"""Independent numerical oracles used by the tests.

Finite differences here are a test oracle only; the library itself
never falls back to them.
"""

import numpy as np


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
        bj = apply("bump", Jet2.affine(u, grad))
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
    x = Jet2.seed_point(tuple(pts.T))
    w = window_by_products(pts, m, family.halves[owner])
    out = []
    for a in range(4):
        e = (x[0] - m[:, 0]) * c[:, a, 0] + k[:, a]
        for b in range(1, 4):
            e = e + (x[b] - m[:, b]) * c[:, a, b]
        out.append(e * w)
    return out
