"""Monopole, dipole and quadrupole component containers.

Dipole components gamma2[a][b] are antisymmetric; quadrupole components
gamma3[a][b][c] are symmetric in the last two slots and cyclic-free
(gamma[abc] + gamma[bca] + gamma[cab] = 0), leaving 20 independent
entries.  Components are held as batch fields: functions mapping an
array of N taus to the (N, 4, ...) arrays of the values and of their
exact first and second tau derivatives, plus a flag ``zero`` for
components known to be zero everywhere.  There are two ways in:
``from_dict`` for components given entry by entry as expressions or
numbers, and the constructor for batch fields computed elsewhere
(transport results, sampled quadrupoles).  Whole arrays read back as
``values_at`` / ``derivs_at``; an entry ``q[a, b, c]`` is the function
of tau that reads its slot of ``values_at``.  Functions of tau are
combined as expression trees (:mod:`polekit.expr`), not entry by entry.
Symmetry is validated at sampled tau values, never assumed.

The adapted-basis coefficient dictionary (:class:`AdaptedCoefficients`)
is held the same way: its 40 coefficients are a fixed linear map of
batch fields, read family by family as arrays over taus.
:func:`zeta_from_gamma` is a fixed linear map of the component arrays
and their first two tau derivatives; :func:`gamma_from_zeta` maps the
second-order coefficients and two running integrals back.

Index conventions: index 0 is the tau-like coordinate, spatial indices
run 1..3, and the Levi-Civita symbol has eps[1,2,3] = +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .errors import DerivativeUnavailable, DomainError, SymmetryError
from .expr import Const, Expr, Program, is_zero, tau_rows
from .quadrature import CumulativeIntegral

_SPATIAL = (1, 2, 3)


def sample_taus(interval, n=50, seed=0):
    """Deterministic random tau samples used by symmetry validation."""
    rng = np.random.default_rng(seed)
    t0, t1 = interval
    return np.sort(rng.uniform(t0, t1, n))


def _expr_fields(entries, rank):
    """(values, derivs, derivs2, zero) batch fields of components given
    as {index: Expr or number}; zero constants are left out, and
    ``zero`` tells whether that left every entry out.

    Entries with equal trees (mirror entries written alike, such as a
    quadrupole's "001" and "010") are read once per call and copied to
    each of their slots.  Trees that compare equal may still differ in
    the sign of a zero constant, which their printed form shows, so the
    two are grouped only when that agrees too."""
    exprs = {}
    for idx, e in entries.items():
        if isinstance(e, (int, float)):
            e = Const(float(e))
        if not isinstance(e, Expr):
            raise TypeError(f"expected Expr or number, got {type(e)!r}")
        if not is_zero(e):
            exprs[tuple(idx)] = e
    shape = (4,) * rank
    flat = [np.ravel_multi_index(idx, shape) for idx in exprs]
    column = {}
    source = [column.setdefault((e, e.to_str()), len(column))
              for e in exprs.values()]
    program = Program(e for e, _ in column)

    def field(order):
        def f(taus):
            out = np.zeros(taus.shape + (4 ** rank,))
            if column:
                out[..., flat] = tau_rows(program, taus, order)[..., source]
            return out.reshape(taus.shape + shape)

        return f

    return field(0), field(1), field(2), not exprs


def _input_fields(obj, rank):
    """Batch fields and zero flag of a constructor input: a container,
    or a nested grid (lists or an array) of Expr or numbers."""
    if isinstance(obj, _Components):
        return obj._arrays + (obj.zero,)
    entries = {idx: reduce(lambda g, i: g[i], idx, obj)
               for idx in np.ndindex(*(4,) * rank)}
    return _expr_fields(entries, rank)


@dataclass(frozen=True)
class Monopole:
    """An invariant point charge carried along the worldline."""

    q: float


class _Components:
    """Components of one rank over tau, held as batch fields.

    ``values``, ``derivs`` and ``derivs2`` map a 1-D array of N taus to
    an (N, 4, ...) array (derivatives are optional: reading a missing
    one raises :class:`DerivativeUnavailable`); ``zero`` marks
    components known to be zero everywhere, which pairings skip.  A
    subclass names its ``constraint`` (a kind of :func:`violations`) and
    one SymmetryError message per part of it.
    """

    rank = None

    def __init__(self, values, derivs=None, derivs2=None, zero=False):
        self.zero = zero
        self._arrays = (values, derivs, derivs2)

    @classmethod
    def from_dict(cls, entries):
        """Components from {index tuple: Expr or number}; entries not
        listed are zero."""
        return cls(*_expr_fields(entries, cls.rank))

    def _read(self, k, taus):
        """Array ``k`` (0: values, 1: derivatives) at a 1-D array of
        taus."""
        fn = self._arrays[k]
        if fn is None:
            raise DerivativeUnavailable(
                "no exact derivative rule for these components"
            )
        return fn(taus)

    def __getitem__(self, idx):
        """Entry ``idx`` as a function of a 1-D array of taus, read from
        :meth:`values_at`."""
        idx = (Ellipsis,) + tuple(int(i) for i in idx)
        return lambda taus: self.values_at(taus)[idx]

    def values_at(self, tau):
        """Component values at a 1-D array of N taus, shape
        (N, 4, ...)."""
        return self._read(0, tau)

    def derivs_at(self, tau):
        """Exact tau derivatives of the components, shaped like
        :meth:`values_at`."""
        return self._read(1, tau)

    def residuals(self, taus):
        """(largest |violation| of each part of the constraint, largest
        |entry|) over ``taus``, from one read of the values."""
        resids, largest = constraint_residuals(
            self.constraint, self.values_at(np.asarray(taus)))
        return [float(r.max(initial=0.0)) for r in resids], largest

    def check(self, taus, tol):
        """Raises SymmetryError at the first entry that is not finite,
        then at the first tau where a part of the constraint breaks the
        rule of :func:`breaks`, naming the worst index there."""
        g = self.values_at(np.asarray(taus))
        bad = np.argwhere(~np.isfinite(g))
        if len(bad):
            i, *idx = (int(j) for j in bad[0])
            raise SymmetryError(
                f"gamma{tuple(idx)} is not finite at tau={taus[i]}",
                index=tuple(idx), tau=float(taus[i]))
        resids, largest = constraint_residuals(self.constraint, g)
        for i, t in enumerate(taus):
            for resid, message in zip(resids, self.messages):
                r = np.max(resid[i])
                if breaks(r, tol, largest):
                    idx = tuple(int(j) for j in np.unravel_index(
                        np.argmax(resid[i]), resid[i].shape))
                    raise SymmetryError(
                        message.format(idx=idx, rev=idx[::-1], t=t, r=r),
                        index=idx, tau=float(t))


class DipoleComponents(_Components):
    """Antisymmetric 4x4 tau-dependent dipole components."""

    rank = 2
    constraint = "antisymmetric"
    messages = ("dipole components not antisymmetric at tau={t}: "
                "|gamma{idx} + gamma{rev}| = {r:.3e}",)


class QuadrupoleComponents(_Components):
    """4x4x4 tau-dependent quadrupole components.

    Full storage with validated constraints is deliberate: the transport
    law is index-natural, and packing into 20 parameters is a
    presentation concern.
    """

    rank = 3
    constraint = "quadrupole"
    messages = ("gamma{idx} != gamma with last slots swapped at tau={t} "
                "(residual {r:.3e})",
                "cyclic sum over gamma{idx} is nonzero at tau={t} "
                "(residual {r:.3e})")


# -- symmetry constraint algebra ------------------------------------------


def violations(kind, g):
    """The signed violations of constraint ``kind`` by ``g``, read over
    its last axes, as a tuple of arrays shaped like ``g``:
    ``"antisymmetric"`` g[ab] + g[ba]; ``"symmetric"`` g[ab] - g[ba];
    ``"quadrupole"`` the pair g[abc] - g[acb] and the cyclic sum
    g[abc] + g[cab] + g[bca].  A violation that overflows reads inf or
    NaN."""
    swapped = np.swapaxes(g, -1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "antisymmetric":
            return (g + swapped,)
        if kind == "symmetric":
            return (g - swapped,)
        return (g - swapped,
                g + np.moveaxis(g, -3, -1) + np.moveaxis(g, -1, -3))


def constraint_residuals(kind, g):
    """(|violation| of each part of constraint ``kind`` by ``g``,
    largest |entry| of ``g``)."""
    return ([np.abs(v) for v in violations(kind, g)],
            float(np.max(np.abs(g), initial=0.0)))


def breaks(resid, tol, largest):
    """The one tolerance rule, elementwise: whether ``resid`` is not at
    most ``tol`` * max(1, ``largest``).  A NaN residual breaks it, and
    so does every residual when ``largest`` is not finite."""
    return ~np.less_equal(resid, tol * max(1.0, largest)
                          if largest < np.inf else np.nan)


def satisfies(kind, g, tol):
    """Whether ``g`` satisfies constraint ``kind`` by :func:`breaks`."""
    resids, largest = constraint_residuals(kind, g)
    return not any(breaks(r, tol, largest).any() for r in resids)


def _null_space(kind, rank):
    """Orthonormal rows spanning the arrays of ``rank`` axes that satisfy
    constraint ``kind``: the null space of its violation map on the unit
    arrays (the quadrupole's pair rows for b < c alone)."""
    units = np.eye(4 ** rank).reshape((-1,) + (4,) * rank)
    rows = [v.reshape(len(units), -1).T for v in violations(kind, units)]
    if kind == "quadrupole":
        _, b, c = np.indices((4, 4, 4)).reshape(3, -1)
        rows[0] = rows[0][b < c]
    C = np.concatenate(rows)
    _, s, vt = np.linalg.svd(C)
    return vt[np.sum(s > max(C.shape) * np.finfo(float).eps * s[0]):]


@cache
def quadrupole_basis():
    """Orthonormal basis (as (4,4,4) arrays) of the valid-component space."""
    return [v.reshape(4, 4, 4) for v in _null_space("quadrupole", 3)]


@cache
def symmetry_projector():
    """Orthogonal projector onto the valid-component subspace (64x64)."""
    B = np.reshape(quadrupole_basis(), (-1, 64))
    return B.T @ B


def component_rank(kind):
    """Dimension of a component space: the constraint's null space, or
    for the gauge-quotiented electric kinds the rank of the constructor
    at a generic velocity (its kernel is exactly the gauge family)."""
    if kind == "dipole":
        return len(_null_space("antisymmetric", 2))
    if kind == "quadrupole":
        return len(quadrupole_basis())
    electric = {"electric_dipole_mod_gauge": (_ELECTRIC_DIPOLE, 1),
                "electric_quadrupole_mod_gauge": (_ELECTRIC_QUADRUPOLE, 2)}
    if kind not in electric:
        raise DomainError(f"unknown component kind {kind!r}")
    terms, rank = electric[kind]
    x = np.eye(4 ** rank).reshape((-1,) + (4,) * rank)
    v = np.broadcast_to([1.0, 0.31, -0.22, 0.17], (len(x), 4))
    return int(np.linalg.matrix_rank(
        _combine(terms, v, x).reshape(len(x), -1)))


# -- constructors -----------------------------------------------------------


def _constant(cls, g):
    """Components equal to the constant array ``g``."""

    def values(taus):
        return np.broadcast_to(g, taus.shape + g.shape).copy()

    def zeros(taus):
        return np.zeros(taus.shape + g.shape)

    return cls(values, zeros, zeros, not g.any())


def make_static_dipole(p_ed, p_md):
    """Constant dipole from electric and magnetic 3-vectors:
    gamma[0][mu] = p_ed[mu] and gamma[mu][nu] = eps[mu, nu, s] p_md[s]."""
    p_ed = np.asarray(p_ed, dtype=float)
    m1, m2, m3 = np.asarray(p_md, dtype=float)
    g = np.zeros((4, 4))
    g[0, 1:], g[1:, 0] = p_ed, -p_ed
    g[1:, 1:] = 0.0 + np.array([[0.0, m3, -m2], [-m3, 0.0, m1],
                                [m2, -m1, 0.0]])
    return _constant(DipoleComponents, g)


def make_toroidal_quadrupole(T):
    """Spatial quadrupole pattern built from a 3-vector: the delta
    pattern delta[mu][sg] T[nu] + delta[mu][nu] T[sg]
    - 2 delta[nu][sg] T[sg], projected orthogonally onto the
    valid-component subspace."""
    d, T = np.eye(3), np.asarray(T, dtype=float)
    raw = np.zeros((4, 4, 4))
    raw[1:, 1:, 1:] = (0.0 + np.einsum("ms,n->mns", d, T)
                       + np.einsum("mn,s->mns", d, T) - 2.0 * (d * T)[None])
    proj = symmetry_projector() @ raw.reshape(64)
    return _constant(QuadrupoleComponents, proj.reshape(4, 4, 4))


# Term tables (einsum spec, sign) of the maps bilinear in the worldline
# velocity v and an input x.
_ELECTRIC_DIPOLE = (("nb,na->nab", 1.0), ("na,nb->nab", -1.0))
_ELECTRIC_QUADRUPOLE = (("na,nbc->nabc", 1.0), ("na,ncb->nabc", 1.0),
                        ("nb,nac->nabc", -1.0), ("nc,nab->nabc", -1.0))
_EMBEDDING = (("nc,nab->nabc", 1.0), ("nb,nac->nabc", 1.0))


def _combine(terms, v, x):
    """sum_k sign_k einsum(spec_k, v, x) over a term table."""
    return sum(sign * np.einsum(spec, v, x) for spec, sign in terms)


def _velocity_product(cls, terms, X, worldline):
    """Components ``_combine(terms, v, X)`` bilinear in the worldline
    velocity v and the input fields X.

    Derivatives follow the product rule with the curve's acceleration;
    second derivatives are not available.  The product is zero where the
    input is.
    """
    xv, xd, _, xzero = X

    def values(taus):
        return _combine(terms, worldline.velocity_at(taus), xv(taus))

    def derivs(taus):
        if xd is None:
            raise DerivativeUnavailable(
                "no exact derivative rule for the input components"
            )
        return (_combine(terms, worldline.acceleration_at(taus), xv(taus))
                + _combine(terms, worldline.velocity_at(taus), xd(taus)))

    return cls(values, derivs, None, xzero)


def make_electric_dipole(w, worldline):
    """gamma[ab] = w^a v^b - w^b v^a with v the worldline velocity."""
    return _velocity_product(DipoleComponents, _ELECTRIC_DIPOLE,
                             _input_fields(w, 1), worldline)


def make_electric_quadrupole(qgrid, worldline):
    """gamma[abc] = v^a q^{bc} + v^a q^{cb} - v^b q^{ac} - v^c q^{ab}."""
    out = _velocity_product(QuadrupoleComponents, _ELECTRIC_QUADRUPOLE,
                            _input_fields(qgrid, 2), worldline)
    out.check(sample_taus(worldline.interval), 1e-10)
    return out


def embed_dipole_as_quadrupole(p, worldline):
    """gamma[abc] = p^{ab} v^c + p^{ac} v^b for antisymmetric p."""
    X = _input_fields(p, 2)
    taus = sample_taus(worldline.interval, n=11)
    pv = X[0](taus)
    (resid,), largest = constraint_residuals("antisymmetric", pv)
    for fault, what in ((~np.isfinite(pv), "not finite"),
                        (breaks(resid, 1e-10, largest), "not antisymmetric")):
        # (a, b, t) order: the first offending pair has a <= b.
        bad = np.argwhere(fault.transpose(1, 2, 0))
        if len(bad):
            a, b, i = (int(j) for j in bad[0])
            raise SymmetryError(f"p[{a}][{b}] is {what} at tau={taus[i]}",
                                index=(a, b), tau=float(taus[i]))
    out = _velocity_product(QuadrupoleComponents, _EMBEDDING, X, worldline)
    out.check(sample_taus(worldline.interval), 1e-10)
    return out


def extract_dipole(p):
    """The dipole gamma[ab] = d p^{ab} / d tau hiding in an embedded
    antisymmetric p."""
    _, derivs, derivs2, zero = _input_fields(p, 2)
    if derivs is None:
        raise DerivativeUnavailable(
            "no exact first-derivative rule for this component"
        )
    return DipoleComponents(derivs, derivs2, None, zero)


# -- adapted-coordinate coefficient dictionary ------------------------------

_SPAIRS = ((1, 2), (1, 3), (2, 3))
# Sorted spatial pairs of second_0 and (pair, rho) triples of second.
_S0 = tuple((mu, nu) for mu in _SPATIAL for nu in _SPATIAL if mu <= nu)
_S = tuple((mu, nu, rho) for mu, nu in _S0 for rho in _SPATIAL)
_PAIR = {pair: i for i, pair in enumerate(_S0)}
_MU, _NU = np.array(_S0).T

# The 40 coefficients in order: family -> (rows, shape per tau).
_FAMILIES = {
    "charge": (slice(0, 1), ()),
    "zeroth": (slice(1, 4), (3,)),
    "first_0": (slice(4, 7), (3,)),
    "first": (slice(7, 16), (3, 3)),
    "second_0": (slice(16, 22), (6,)),
    "second": (slice(22, 40), (6, 3)),
}


def _pair(mu, nu):
    return _PAIR[min(mu, nu), max(mu, nu)]


class AdaptedCoefficients:
    """Coefficients of a degree-three distribution over an adapted
    worldline in the basis of spatial probe derivatives.

    Forty coefficients in six families; a spatial index mu = 1..3 is
    stored at mu - 1:

    ``charge``          -> coefficient of phi_0
    ``zeroth[nu]``      -> coefficient of phi_nu
    ``first_0[mu]``     -> coefficient of d_mu phi_0
    ``first[mu, nu]``   -> coefficient of d_mu phi_nu
    ``second_0[i]``     -> coefficient of d_mu d_nu phi_0
    ``second[i, rho]``  -> coefficient of d_mu d_nu phi_rho

    where i runs over the sorted pairs (mu, nu) = (1,1), (1,2), (1,3),
    (2,2), (2,3), (3,3).

    The coefficients are a fixed linear map of a source: ``fields`` =
    (values, derivs, derivs2) map N taus to (N, m) arrays of a vector
    x(tau) and of its exact tau derivatives (derivatives optional), and
    ``weights`` has shape (3, 40, m), so that the k-th tau derivative of
    the coefficients is sum_j weights[j] @ x^(j + k).  A derivative
    that needs x beyond what its fields give raises
    :class:`DerivativeUnavailable`.
    """

    def __init__(self, fields, weights, interval):
        self.fields = tuple(fields)
        self.weights = np.asarray(weights, dtype=float)
        self.interval = interval

    def arrays(self, taus, *wanted):
        """Arrays of coefficient families at a 1-D array of N taus, one
        per ``wanted`` item: a family name (its values) or a (name, k)
        pair (its k-th tau derivative), each of shape (N, ...).  Each
        source field is read at most once per call.
        """
        xs = {}

        def source(k):
            if k not in xs:
                fn = self.fields[k] if k < 3 else None
                if fn is None:
                    raise DerivativeUnavailable(
                        f"no exact tau derivative of order {k} for the "
                        "source of these coefficients"
                    )
                xs[k] = fn(taus)
            return xs[k]

        out = []
        for item in wanted:
            name, order = (item, 0) if isinstance(item, str) else item
            rows, shape = _FAMILIES[name]
            acc = np.zeros((len(taus), rows.stop - rows.start))
            for j, w in enumerate(self.weights[:, rows]):
                if w.any():
                    acc = acc + source(j + order) @ w.T
            out.append(acc.reshape((len(taus),) + shape))
        return out

    def density(self, taus, values, grads, hess):
        """The distribution's integrand at N taus: the sum of each
        coefficient times its probe term, from the form's (N, 4) values,
        (N, 4, 4) gradients (grads[n, a, b] = d_b phi_a) and
        (N, 4, 4, 4) Hessians."""
        n = len(taus)
        probes = np.concatenate([
            values,
            grads[:, 0, 1:],
            grads[:, 1:, 1:].transpose(0, 2, 1).reshape(n, 9),
            hess[:, 0, _MU, _NU],
            hess[:, 1:, _MU, _NU].transpose(0, 2, 1).reshape(n, 18),
        ], axis=1)
        coeffs = np.concatenate(
            [a.reshape(n, -1) for a in self.arrays(taus, *_FAMILIES)], axis=1)
        return np.einsum("ni,ni->n", coeffs, probes)

    def _checks(self):
        """(closedness residuals, largest coefficient) over 33 taus."""
        taus = np.linspace(*self.interval, 33)
        *values, dcharge, dfirst_0, dsecond_0 = self.arrays(
            taus, *_FAMILIES, ("charge", 1), ("first_0", 1), ("second_0", 1))
        _, zeroth, _, first, _, second = values

        def f(mu, nu):
            return first[:, mu - 1, nu - 1]

        def ds0(mu, nu):
            return dsecond_0[:, _pair(mu, nu)]

        def s(mu, nu, rho):
            return second[:, _pair(mu, nu), rho - 1]

        residuals = {
            "charge_constant": _worst([dcharge]),
            "velocity_pair": _worst([dfirst_0 - zeroth]),
            "diag_step": _worst(f(mu, mu) - ds0(mu, mu) for mu in _SPATIAL),
            "offdiag_step": _worst(
                f(mu, nu) + f(nu, mu) - ds0(mu, nu) for mu, nu in _SPAIRS
            ),
            "diag_spatial": _worst(s(mu, mu, mu) for mu in _SPATIAL),
            "mixed_spatial": _worst(
                s(mu, mu, rho) + s(mu, rho, mu)
                for mu in _SPATIAL
                for rho in _SPATIAL
                if rho != mu
            ),
            "triple": _worst([s(1, 2, 3) + s(1, 3, 2) + s(2, 3, 1)]),
        }
        return residuals, _worst(values)

    def is_closed(self):
        """Whether every closedness residual is at most 1e-9 times the
        largest coefficient or 1, whichever is larger; and the
        residuals."""
        res, scale = self._checks()
        scale = max(1.0, scale)
        return all(v <= 1e-9 * scale for v in res.values()), res

    def _scale(self):
        return _worst(self.arrays(np.linspace(*self.interval, 17), *_FAMILIES))


def _worst(values):
    """Largest |v| over a sequence of arrays (or floats); 0 if empty."""
    return max((float(np.max(np.abs(v))) for v in values), default=0.0)


def _zeta_from_gamma_map():
    """(3, 40, 65) weights of the coefficients on gamma[abc] (flattened
    to columns 0..63) and the charge (column 64), then on their first
    and second tau derivatives."""
    W = np.zeros((3, 40, 65))
    W[0, 0, 64] = 1.0

    def col(a, b, c):
        return 16 * a + 4 * b + c

    for mu in _SPATIAL:
        W[2, mu, col(mu, 0, 0)] = 0.5
        W[1, 3 + mu, col(mu, 0, 0)] = 0.5
        for nu in _SPATIAL:
            W[1, 7 + 3 * (mu - 1) + (nu - 1), col(nu, mu, 0)] = -1.0
    for i, (mu, nu) in enumerate(_S0):
        half = 0.5 if mu == nu else 1.0
        W[0, 16 + i, col(0, mu, nu)] = half
        for rho in _SPATIAL:
            W[0, 22 + 3 * i + (rho - 1), col(rho, mu, nu)] = half
    return W


_ZETA_FROM_GAMMA = _zeta_from_gamma_map()


def zeta_from_gamma(monopole, quad, worldline):
    """Adapted-basis coefficients of a monopole + quadrupole bundle.

    The worldline must be in adapted form C(tau) = (tau, 0, 0, 0); the
    time-slot components then enter through their tau derivatives.  The
    coefficients are the fixed linear map ``_ZETA_FROM_GAMMA`` of the
    component arrays and their first and second tau derivatives, with
    the charge as one more (constant) source entry.
    """
    if not worldline.is_adapted():
        raise DomainError(
            "coefficient extraction needs an adapted worldline "
            "C(tau) = (tau, 0, 0, 0)"
        )

    def source(field, charge):
        if field is None:
            return None
        return lambda taus: np.concatenate(
            [field(taus).reshape(len(taus), 64),
             np.full((len(taus), 1), charge)], axis=1)

    fields = [source(field, monopole.q if k == 0 else 0.0)
              for k, field in enumerate(quad._arrays)]
    return AdaptedCoefficients(fields, _ZETA_FROM_GAMMA, worldline.interval)


def _gamma_from_zeta_map():
    """(4, 4, 4, 30) linear map to gamma[abc] from, in order: the 6
    second_0, the 18 second coefficients, gamma[mu][0][0] and the
    antisymmetric part of gamma[nu][mu][0] over (1,2), (1,3), (2,3)."""
    M = np.zeros((4, 4, 4, 30))
    for i, (mu, nu) in enumerate(_S0):
        if mu == nu:
            M[0, mu, mu, i] = 2.0
            M[mu, mu, 0, i] = M[mu, 0, mu, i] = -1.0
            continue
        M[0, mu, nu, i] = M[0, nu, mu, i] = 1.0
        for a, b in ((mu, nu), (nu, mu)):
            M[a, b, 0, i] = M[a, 0, b, i] = -0.5
    for j, (mu, nu, rho) in enumerate(_S, start=6):
        M[rho, mu, nu, j] = M[rho, nu, mu, j] = 1.0 if mu != nu else 2.0
    for k, mu in enumerate(_SPATIAL, start=24):
        M[mu, 0, 0, k] = 1.0
        M[0, mu, 0, k] = M[0, 0, mu, k] = -0.5
    for k, (a, b) in enumerate(_SPAIRS, start=27):
        M[a, b, 0, k] = M[a, 0, b, k] = 1.0
        M[b, a, 0, k] = M[b, 0, a, k] = -1.0
    return M


_GAMMA_FROM_ZETA = _gamma_from_zeta_map()


def gamma_from_zeta(z, constants=None):
    """Rebuild (monopole, quadrupole components) from adapted-basis
    coefficients.

    Entries whose dictionary relation involves a tau derivative are
    returned as running integrals anchored at the interval start;
    ``constants`` may supply their values at the anchor:
    ``{"v00": 3 reals for gamma[mu][0][0](tau0),
       "spatial_time": 3 reals for the antisymmetric part of
       gamma[mu][nu][0](tau0) over pairs (1,2), (1,3), (2,3)}``.
    The components are a fixed linear map of the second-order
    coefficients and the two running integrals; second derivatives are
    not available.
    """
    t0, t1 = z.interval
    constants = constants or {}
    c_v00 = np.asarray(constants.get("v00", (0.0, 0.0, 0.0)), dtype=float)
    c_st = np.asarray(
        constants.get("spatial_time", (0.0, 0.0, 0.0)), dtype=float
    )
    cum_v00 = CumulativeIntegral(
        lambda t: 2.0 * z.arrays(t, "first_0")[0],
        t0, t1, 3, 1e-12, label="gamma[mu][0][0] reconstruction",
    )

    def anti(t):
        """d/dtau of the antisymmetric part of gamma[nu][mu][0] over the
        sorted pairs (nu, mu)."""
        first = z.arrays(t, "first")[0]
        return np.stack([0.5 * (first[..., nu - 1, mu - 1]
                                - first[..., mu - 1, nu - 1])
                         for nu, mu in _SPAIRS], axis=-1)

    cum_anti = CumulativeIntegral(
        anti, t0, t1, 3, 1e-12,
        label="spatial-time antisymmetric reconstruction",
    )

    def field(order, parts):
        def f(taus):
            s0, s = z.arrays(taus, ("second_0", order), ("second", order))
            flat = [s0, s.reshape(len(taus), 18)]
            return np.tensordot(
                np.concatenate(flat + [part(taus) for part in parts],
                               axis=-1),
                _GAMMA_FROM_ZETA, axes=([1], [3]))

        return f

    values = field(0, [
        lambda taus: c_v00 + cum_v00.value(taus),
        lambda taus: c_st + cum_anti.value(taus),
    ])
    derivs = field(1, [cum_v00.derivative, cum_anti.derivative])
    charge = float(z.arrays(np.array([t0]), "charge")[0][0])
    return Monopole(charge), QuadrupoleComponents(values, derivs)
