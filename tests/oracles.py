"""Independent numerical oracles and seeded generators used by the
tests.

Finite differences here are a test oracle only; the library itself
never falls back to them.  The generators draw from a numpy Generator,
so a recorded seed reproduces a test input bit for bit.
"""

import numpy as np

from polekit import expr as ex
from polekit.charts import ChartPair, linear_chart
from polekit.expr import tau_rows
from polekit.fields import _coulomb_expr
from polekit.moments import (_EPS, DipoleComponents, QuadrupoleComponents,
                             quadrupole_basis)
from polekit.pairing import AffineFormFamily, _random_affine
from polekit.worldlines import Worldline

_SPATIAL = (1, 2, 3)


def fd_gradient(f, x, h=1e-4):
    """Second-order central differences, Richardson extrapolated."""
    x = np.asarray(x, dtype=float)

    def d(step):
        out = np.zeros(4)
        for a in range(4):
            e = np.zeros(4)
            e[a] = step
            out[a] = (f(x + e) - f(x - e)) / (2 * step)
        return out

    return (4.0 * d(h / 2) - d(h)) / 3.0


def fd_gradient_plain(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    out = np.zeros(4)
    for a in range(4):
        e = np.zeros(4)
        e[a] = h
        out[a] = (f(x + e) - f(x - e)) / (2 * h)
    return out


def fd_hessian(f, x, h=1e-4):
    """Central-difference Hessian, Richardson extrapolated."""
    x = np.asarray(x, dtype=float)

    def d(step):
        out = np.zeros((4, 4))
        f0 = f(x)
        for a in range(4):
            ea = np.zeros(4)
            ea[a] = step
            out[a, a] = (f(x + ea) - 2 * f0 + f(x - ea)) / step ** 2
            for b in range(a + 1, 4):
                eb = np.zeros(4)
                eb[b] = step
                v = (
                    f(x + ea + eb) - f(x + ea - eb)
                    - f(x - ea + eb) + f(x - ea - eb)
                ) / (4 * step ** 2)
                out[a, b] = out[b, a] = v
        return out

    return (4.0 * d(h / 2) - d(h)) / 3.0


def random_safe_expression(rng):
    """A random composed expression that keeps all elementary functions
    comfortably inside their domains (denominators bounded away from
    zero, sqrt arguments positive), so finite differences are stable."""
    from polekit import expr as ex

    def leaf():
        if rng.uniform() < 0.7:
            return ex.Var(int(rng.integers(0, 4)))
        return ex.Const(float(rng.uniform(-2, 2)))

    def build(depth):
        if depth <= 0:
            return leaf()
        pick = rng.uniform()
        if pick < 0.18:
            return ex.Add(build(depth - 1), build(depth - 1))
        if pick < 0.36:
            return ex.Sub(build(depth - 1), build(depth - 1))
        if pick < 0.54:
            return ex.Mul(build(depth - 1), build(depth - 1))
        if pick < 0.64:
            # bounded-denominator division
            d = build(depth - 1)
            den = ex.Add(ex.Const(2.0), ex.Mul(d, d))
            return ex.Div(build(depth - 1), den)
        if pick < 0.74:
            return ex.Fun("sin", build(depth - 1))
        if pick < 0.84:
            return ex.Fun("cos", build(depth - 1))
        if pick < 0.92:
            # tame the exponent to avoid overflow
            return ex.Fun("exp", ex.Mul(ex.Const(0.3), ex.Fun("sin", build(depth - 1))))
        u = build(depth - 1)
        return ex.Fun("sqrt", ex.Add(ex.Const(1.5), ex.Mul(u, u)))

    return build(int(rng.integers(2, 4)))


# -- general-arithmetic references for the structured jet paths ---------
#
# Each builds a jet by general jet arithmetic; the tests compare it bit
# for bit with the jet the library forms from its structure.


def same_bits(j, ref):
    """Whether two jets have equal values, gradients and packed Hessians
    (a zero of either sign equals any zero)."""
    return (np.array_equal(j.value, ref.value)
            and np.array_equal(j.grad, ref.grad)
            and np.array_equal(j.hess, ref.hess))


def same_signed_bits(a, b):
    """Whether two float arrays (or floats) have equal shapes and equal
    bits, down to the sign of each zero."""
    a, b = (np.ascontiguousarray(x, dtype=float) for x in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def first_order_part(j, ref):
    """Whether ``j`` is an order-1 jet (no Hessian rows, or a constant,
    which is of either order) with the value and gradient of ``ref``
    bit for bit, down to the sign of each zero."""
    from polekit.jets import _is_constant

    return ((j.hess is None or _is_constant(j))
            and same_signed_bits(j.value, ref.value)
            and same_signed_bits(j.grad, ref.grad))


def compose_by_einsum(outer, inner):
    """Jet of F(Y(x)) for one outer jet F: the gradient and Hessian
    rows of Y stacked point-major and contracted by einsum."""
    from polekit.jets import Jet2, entries_array, full_hessian

    n = np.shape(inner[0].grad)[-1]
    m = n * (n + 1) // 2
    rows, cols = np.triu_indices(n)
    shape = np.broadcast_shapes(*(np.shape(j.value) for j in (outer, *inner)))
    J = entries_array([j.grad for j in inner], shape, (n,))
    K = entries_array([j.hess for j in inner], shape, (m,))
    G = np.ascontiguousarray(outer.grad)
    H = full_hessian(np.ascontiguousarray(outer.hess))
    grad = np.einsum("...b,...ba->...a", G, J)
    JHJ = np.einsum("...ba,...bc->...ac", J,
                    np.einsum("...bd,...dc->...bc", H, J))
    hess = JHJ[..., rows, cols] + np.einsum("...b,...bk->...k", G, K)
    return Jet2(outer.value, grad, hess)


def window_by_products(pts, center, half):
    """Jet of prod_b bump((x^b - center^b) / half^b) as the general
    product ((b0 b1) b2) b3 of one-coordinate bump jets."""
    from polekit.jets import Jet2, apply

    w = None
    for b in range(4):
        hw = half[..., b]
        u = (pts[:, b] - center[..., b]) / hw
        grad = np.zeros((4,) + np.shape(hw))
        grad[b] = 1.0 / hw
        bj = apply("bump", Jet2.affine(u, grad, 2))
        w = bj if w is None else w * bj
    return w


def family_jets_by_products(family, pts, owner):
    """The jets of the members ``owner`` of an ``AffineFormFamily`` at
    the rows of ``pts``: each polynomial k_a + c_a0 (x^0 - m^0) + ... +
    c_a3 (x^3 - m^3), formed as ``term + k`` and then added left to
    right over seed jets, times :func:`window_by_products`."""
    from polekit.jets import Jet2

    k, c, m = (family.consts[owner], family.coefs[owner],
               family.centers[owner])
    x = Jet2.seed_point(tuple(pts.T), 2)
    w = window_by_products(pts, m, family.halves[owner])
    out = []
    for a in range(4):
        e = (x[0] - m[:, 0]) * c[:, a, 0] + k[:, a]
        for b in range(1, 4):
            e = e + (x[b] - m[:, b]) * c[:, a, b]
        out.append(e * w)
    return out


# -- full-batch pairing integrands -----------------------------------------
#
# The pairing integrands as whole-batch formulas: the form read at every
# row (its bump window gives zeros outside its support) and each
# contraction an einsum over all rows.  The library contracts over the
# live rows alone and writes +0.0 at every other row; the tests compare
# the two bit for bit on the live rows.


def gamma_integrand_by_full_batch(gamma2, gamma3, worldline, form, taus,
                                  owner):
    """-gamma2[ab] d_b phi_a + (1/2) gamma3[abc] d_b d_c phi_a at every
    row, either term left out when its components are None."""
    from polekit.jets import stacked

    points, _ = worldline.eval(taus)
    jets = form.jets_at(points, owner, 2)
    terms = []
    if gamma2 is not None:
        terms.append(-np.einsum("nab,nab->n", gamma2.values_at(taus),
                                stacked(jets, taus.shape, 1)))
    if gamma3 is not None:
        terms.append(0.5 * np.einsum("nabc,nabc->n", gamma3.values_at(taus),
                                     stacked(jets, taus.shape, 2)))
    return sum(terms[1:], terms[0])


def charge_integrand_by_full_batch(q, worldline, form, taus, owner):
    """q v^a phi_a at every row."""
    points, vel = worldline.eval(taus)
    vals = form.values_at(points, owner)
    return q * (vel[:, 0] * vals[:, 0] + vel[:, 1] * vals[:, 1]
                + vel[:, 2] * vals[:, 2] + vel[:, 3] * vals[:, 3])


# -- seeded test inputs ------------------------------------------------------


def poly_tau_expr(rng, degree=2, scale=1.0):
    """Random polynomial in tau with uniform coefficients."""
    e = ex.const(scale * rng.uniform(-1, 1))
    for k in range(1, degree + 1):
        c = scale * rng.uniform(-1, 1)
        e = ex.add(e, ex.mul(ex.const(c), ex.Pow(ex.Var(0), float(k))))
    return e


def random_dipole(rng, degree=2, scale=1.0):
    """Antisymmetric dipole components with polynomial tau dependence."""
    entries = {}
    for a in range(4):
        for b in range(a + 1, 4):
            p = poly_tau_expr(rng, degree, scale)
            entries[(a, b)] = p
            entries[(b, a)] = ex.neg(p)
    return DipoleComponents.from_dict(entries)


def random_quadrupole(rng, degree=2, scale=1.0, directions=5):
    """Valid quadrupole components: a few random directions in the
    20-dimensional constraint null space, each with a polynomial
    coefficient.

    The coefficient polynomials are shared across all 64 entries, so
    the whole tensor is computed at once for a batch of taus; entries
    that no picked direction touches are exact zeros.
    """
    basis = quadrupole_basis()
    picks = rng.choice(len(basis), size=min(directions, len(basis)),
                       replace=False)
    tensors = np.array([basis[i] for i in picks])
    coeffs = [poly_tau_expr(rng, degree, scale) for _ in picks]
    mask = np.max(np.abs(tensors), axis=0) >= 1e-300
    tensors = np.where(mask, tensors, 0.0)

    def combo(order):
        def field(taus):
            return np.einsum("ni,iabc->nabc", tau_rows(coeffs, taus, order),
                             tensors)

        return field

    return QuadrupoleComponents(combo(0), combo(1), combo(2),
                                zero=not mask.any())


def random_antisym_poly_grid(rng, degree=2):
    """Antisymmetric 4x4 grid of polynomial expressions in tau
    (embedding input)."""
    grid = [[ex.const(0.0) for _ in range(4)] for _ in range(4)]
    for a in range(4):
        for b in range(a + 1, 4):
            p = poly_tau_expr(rng, degree)
            grid[a][b] = p
            grid[b][a] = ex.neg(p)
    return grid


def random_linear_pair(rng):
    """A well-conditioned random linear chart with its exact inverse."""
    while True:
        M = np.eye(4) + 0.35 * rng.uniform(-1, 1, (4, 4))
        if abs(np.linalg.det(M)) > 0.3:
            break
    fw = linear_chart(M, "random linear")
    bw = linear_chart(np.linalg.inv(M), "random linear inverse")
    return ChartPair(fw, bw)


def random_test_form(rng, center, half_widths):
    """Product test form with random affine component polynomials, as a
    family of one."""
    consts, coefs = _random_affine(rng, half_widths)
    return AffineFormFamily(consts, coefs, center, half_widths)


def family_member(family, k):
    """Member k of an :class:`AffineFormFamily` as a family of one."""
    return AffineFormFamily(family.consts[k], family.coefs[k],
                            family.centers[k], family.halves[k])


def reparametrized(worldline, components, tau_of, interval_hat):
    """A source (a worldline and its dipole or quadrupole components) as
    a function of a new parameter tau_hat, where tau = ``tau_of``, an
    orientation-preserving expression in variable 0 that maps
    ``interval_hat`` onto the worldline's interval: the curve by
    substitution, and the components times dtau/dtau_hat, so that the
    source pairs as before."""
    curve = Worldline(
        tuple(c.subs({0: tau_of}) for c in worldline.components),
        interval_hat)
    tail = (Ellipsis,) + (None,) * components.rank

    def tau_and_speeds(th):
        return [tau_rows([tau_of], th, k)[:, 0] for k in range(3)]

    def values(th):
        tau, speed, _ = tau_and_speeds(th)
        return speed[tail] * components.values_at(tau)

    def derivs(th):
        tau, speed, accel = tau_and_speeds(th)
        return (accel[tail] * components.values_at(tau)
                + (speed * speed)[tail] * components.derivs_at(tau))

    return curve, type(components)(values, derivs)


# -- second paths that tests compare with the library ------------------------


def static_dipole_vectors(dip, tau=0.0):
    """Inverse of :func:`polekit.moments.make_static_dipole` at one
    tau."""
    g = dip.values_at(np.array([tau]))[0]
    p_ed = np.array([g[0, mu] for mu in _SPATIAL])
    p_md = np.array(
        [
            0.5
            * sum(
                _EPS[mu, nu, s] * g[mu, nu]
                for mu in _SPATIAL
                for nu in _SPATIAL
            )
            for s in _SPATIAL
        ]
    )
    return p_ed, p_md


def potential_exprs(source):
    """Closed-form scalar and vector potential expressions in x1..x3 of
    a :class:`polekit.fields.StaticSource` (hand-differentiated Coulomb
    derivatives, compared with its jet path)."""
    ker = _coulomb_expr(1.0, source.eps0)
    grads = [ker.diff(mu) for mu in _SPATIAL]
    if source.kind == "monopole":
        return ex.mul(ex.const(float(source.moments)), ker), None
    if source.kind == "electric_dipole":
        e = ex.const(0.0)
        for k, mu in enumerate(_SPATIAL):
            e = ex.add(e, ex.mul(ex.const(source.moments[k]), grads[k]))
        return e, None
    if source.kind == "magnetic_dipole":
        p = source.moments
        comps = []
        for m in range(3):
            e = ex.const(0.0)
            for n in range(3):
                for s in range(3):
                    sign = _EPS[m + 1, n + 1, s + 1]
                    if sign:
                        e = ex.add(
                            e,
                            ex.mul(ex.const(sign * p[n]), grads[s]),
                        )
            comps.append(e)
        return None, tuple(comps)
    hessians = [
        [grads[m].diff(nu) for nu in _SPATIAL] for m in range(3)
    ]
    if source.kind == "electric_quadrupole":
        e = ex.const(0.0)
        for m in range(3):
            for n in range(3):
                if source.moments[m, n]:
                    e = ex.add(
                        e,
                        ex.mul(ex.const(source.moments[m, n]),
                               hessians[m][n]),
                    )
        return e, None
    comps = []
    for m in range(3):
        e = ex.const(0.0)
        for n in range(3):
            for s in range(3):
                if source.moments[m, n, s]:
                    e = ex.add(
                        e,
                        ex.mul(ex.const(source.moments[m, n, s]),
                               hessians[n][s]),
                    )
        comps.append(e)
    return None, tuple(comps)


def central_difference(components, taus, h=1e-3):
    """Central differences in tau of the values of a component
    container at a 1-D array of taus."""
    return (components.values_at(taus + h)
            - components.values_at(taus - h)) / (2.0 * h)
