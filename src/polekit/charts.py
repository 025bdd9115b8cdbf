"""Coordinate charts with exact Jacobians and Hessians.

A chart is four expression trees mapping (x0..x3) to hatted coordinates.
Jet evaluation of the component trees gives the Jacobian A^a_b and the
Hessian A^a_bc in one pass, which is everything the transport law needs.
The registry provides the built-in charts; pairs carry a verified
inverse (no numerical inversion anywhere: an inverse is trusted only
after round-trip and Jacobian-inverse checks).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import DomainError, RegistryError, SingularJacobianWarning
from .jets import Jet2, entries_array, full_hessian

_DET_CUTOFF = 1e-12


@dataclass(frozen=True)
class DomainHint:
    """Validity region of a chart: a predicate plus a description.

    The predicate maps an array of points (coordinates on the last
    axis) to a boolean array, elementwise."""

    predicate: object  # callable (..., 4) array -> (...) bool array
    description: str

    def contains(self, x):
        ok = self.predicate(np.asarray(x, dtype=float))
        return ok if np.ndim(x) == 2 else bool(ok)


@dataclass(frozen=True)
class Chart:
    forward: tuple  # four Expr, functions of x0..x3
    label: str = "chart"
    domain_hint: DomainHint | None = None

    def in_domain(self, x):
        """Whether the point x (or each row of an (N, 4) array) lies in
        the chart's domain."""
        if self.domain_hint is None:
            return np.ones(len(x), dtype=bool) if np.ndim(x) == 2 else True
        return self.domain_hint.contains(x)

    def _check_domain(self, x):
        ok = self.in_domain(x)
        if not np.all(ok):
            bad = x[np.argmin(ok)] if np.ndim(x) == 2 else x
            raise DomainError(
                f"point {tuple(float(c) for c in bad)!r} outside domain of "
                f"chart {self.label!r} ({self.domain_hint.description})"
            )

    @staticmethod
    def _coords(x):
        """The four coordinates of a point as floats, or of N points
        (rows of an (N, 4) array) as arrays."""
        if np.ndim(x) == 2:
            return tuple(np.asarray(x, dtype=float).T)
        return tuple(float(c) for c in x)

    def value_at(self, x):
        """Hatted coordinates of x: a 4-tuple for one point, an (N, 4)
        array for an (N, 4) array of points."""
        self._check_domain(x)
        env = self._coords(x)
        vals = [comp.eval_value(env) for comp in self.forward]
        if np.ndim(x) == 2:
            return entries_array(vals, (len(x),))
        return tuple(vals)

    def jets_at(self, x):
        """Jets of the four components at x (one point, or batch jets
        over the rows of an (N, 4) array)."""
        self._check_domain(x)
        seeds = Jet2.seed_point(self._coords(x))
        return tuple(comp.eval_jet(seeds) for comp in self.forward)

    def jacobian_at(self, x):
        """A^a_b = d(hatted x^a)/d x^b as a 4x4 numpy array."""
        A = self.frames_at(x)[1]
        det = np.linalg.det(A)
        if abs(det) < _DET_CUTOFF:
            warnings.warn(
                f"chart {self.label!r} has |det A| = {abs(det):.3e} "
                f"at {tuple(x)!r}",
                SingularJacobianWarning,
                stacklevel=2,
            )
        return A

    def hessian_at(self, x):
        """A^a_bc as a (4, 4, 4) array, symmetric in the last two slots."""
        return self.frames_at(x)[2]

    def frames_at(self, x):
        """(value, Jacobian, Hessian) from a single jet pass; for an
        (N, 4) array of points: arrays of shape (N, 4), (N, 4, 4) and
        (N, 4, 4, 4)."""
        jlist = self.jets_at(x)
        shape = (len(x),) if np.ndim(x) == 2 else ()
        value = entries_array([j.value for j in jlist], shape)
        if not shape:
            value = tuple(float(v) for v in value)
        return (value, entries_array([j.grad for j in jlist], shape, (4,)),
                full_hessian(entries_array([j.hess for j in jlist], shape,
                                           (10,))))

    def jacobian_exprs(self):
        """Symbolic Jacobian entries, J[a][b] = d forward[a] / d x^b."""
        return tuple(
            tuple(comp.diff(b) for b in range(4)) for comp in self.forward
        )


def compose_charts(outer, inner, label=None):
    """The chart x -> outer(inner(x)) by expression substitution."""
    mapping = {i: inner.forward[i] for i in range(4)}
    comps = tuple(c.subs(mapping) for c in outer.forward)
    hint = None
    if inner.domain_hint is not None or outer.domain_hint is not None:

        def pred(x, _in=inner, _out=outer):
            pts = np.atleast_2d(x)
            ok = _in.in_domain(pts)
            if _out.domain_hint is not None and np.any(ok):
                ok[ok] = _out.in_domain(_in.value_at(pts[ok]))
            return ok if np.ndim(x) == 2 else ok[0]

        parts = [
            h.description
            for h in (inner.domain_hint, outer.domain_hint)
            if h is not None
        ]
        hint = DomainHint(pred, " and ".join(parts))
    return Chart(
        comps,
        label or f"{outer.label} o {inner.label}",
        hint,
    )


@dataclass(frozen=True)
class ChartPair:
    forward: Chart
    inverse: Chart

    def verify(self, points, round_trip_tol=1e-9, jacobian_tol=1e-8):
        """Check the inverse on sample points.

        Round trip in the hatted coordinates and Jacobian-inverse
        agreement; raises DomainError on failure.
        """
        for x in points:
            xh = self.forward.value_at(x)
            back = self.inverse.value_at(xh)
            there = self.forward.value_at(back)
            scale = max(1.0, max(abs(v) for v in xh))
            err = max(abs(there[i] - xh[i]) for i in range(4))
            if err > round_trip_tol * scale:
                raise DomainError(
                    f"round trip error {err:.3e} at {tuple(x)!r} for "
                    f"pair {self.forward.label!r}"
                )
            A = self.forward.jacobian_at(x)
            B = self.inverse.jacobian_at(xh)
            resid = float(np.max(np.abs(B @ A - np.eye(4))))
            if resid > jacobian_tol:
                raise DomainError(
                    f"Jacobians are not inverse (residual {resid:.3e}) "
                    f"at {tuple(x)!r} for pair {self.forward.label!r}"
                )
        return True


# -- built-in charts ------------------------------------------------------


def identity_chart():
    return Chart(tuple(ex.Var(a) for a in range(4)), "identity")


def linear_chart(matrix, label="linear"):
    M = np.asarray(matrix, dtype=float)
    if M.shape != (4, 4):
        raise RegistryError("linear chart needs a 4x4 matrix")
    if abs(np.linalg.det(M)) < _DET_CUTOFF:
        raise RegistryError("linear chart matrix is singular")
    comps = tuple(ex.linear_combination(M[a]) for a in range(4))
    return Chart(comps, label)


def lorentz_boost_chart(v, inverse=False, label=None):
    v = float(v)
    if abs(v) >= 1.0:
        raise RegistryError(f"boost speed |v| = {abs(v)} must be < 1")
    if inverse:
        v = -v
    g = 1.0 / np.sqrt(1.0 - v * v)
    M = np.eye(4)
    M[0, 0] = M[1, 1] = g
    M[0, 1] = M[1, 0] = -g * v
    return linear_chart(M, label or f"lorentz_boost(v={v})")


def cylindrical_to_cartesian_chart():
    # (t, r, theta, z) -> (t, r cos theta, r sin theta, z); needs r > 0
    # and theta away from the branch cut for invertibility.
    t, r, th, z = (ex.Var(i) for i in range(4))
    comps = (t, ex.Mul(r, ex.Fun("cos", th)), ex.Mul(r, ex.Fun("sin", th)), z)
    hint = DomainHint(
        lambda x: (x[..., 1] > 0.0) & (-np.pi < x[..., 2])
        & (x[..., 2] < np.pi),
        "r > 0 and -pi < theta < pi",
    )
    return Chart(comps, "cylindrical_to_cartesian", hint)


def cartesian_to_cylindrical_chart():
    t, x, y, z = (ex.Var(i) for i in range(4))
    r = ex.Fun("sqrt", ex.Add(ex.Mul(x, x), ex.Mul(y, y)))
    comps = (t, r, ex.Atan2(y, x), z)
    hint = DomainHint(
        lambda p: ((p[..., 1] * p[..., 1] + p[..., 2] * p[..., 2]) > 0.0)
        & ~((p[..., 1] < 0.0) & (p[..., 2] == 0.0)),
        "x^2 + y^2 > 0, off the negative-x branch cut",
    )
    return Chart(comps, "cartesian_to_cylindrical", hint)


def spherical_to_cartesian_chart():
    # (t, r, theta, phi) -> (t, r sin th cos ph, r sin th sin ph, r cos th)
    t, r, th, ph = (ex.Var(i) for i in range(4))
    sth = ex.Fun("sin", th)
    comps = (
        t,
        ex.Mul(r, ex.Mul(sth, ex.Fun("cos", ph))),
        ex.Mul(r, ex.Mul(sth, ex.Fun("sin", ph))),
        ex.Mul(r, ex.Fun("cos", th)),
    )
    hint = DomainHint(
        lambda x: (x[..., 1] > 0.0) & (0.0 < x[..., 2]) & (x[..., 2] < np.pi),
        "r > 0 and 0 < theta < pi",
    )
    return Chart(comps, "spherical_to_cartesian", hint)


_QUAD_PAIRS = tuple(
    (b, c) for b in range(4) for c in range(b, 4)
)  # 10 ordered pairs matching the coefficient layout


def polynomial_chart(coeffs, label="polynomial"):
    """Chart with polynomial components of total degree <= 2.

    ``coeffs`` is a flat list of 4 x 15 reals; per component: constant,
    4 linear terms, then 10 quadratic terms over ordered index pairs
    (0,0), (0,1), ... (3,3).
    """
    c = np.asarray(coeffs, dtype=float)
    if c.size != 60:
        raise RegistryError(
            f"polynomial chart needs 60 coefficients, got {c.size}"
        )
    c = c.reshape(4, 15)
    comps = []
    for a in range(4):
        e = ex.const(c[a, 0])
        for b in range(4):
            e = ex.add(e, ex.mul(ex.const(c[a, 1 + b]), ex.Var(b)))
        for k, (b1, b2) in enumerate(_QUAD_PAIRS):
            e = ex.add(
                e,
                ex.mul(
                    ex.const(c[a, 5 + k]), ex.Mul(ex.Var(b1), ex.Var(b2))
                ),
            )
        comps.append(e)
    return Chart(tuple(comps), label)


_PAIRED = ("identity", "linear", "lorentz_boost", "cylindrical_to_cartesian",
           "cartesian_to_cylindrical")
_NAMES = _PAIRED + ("spherical_to_cartesian", "polynomial")


def get(name, params=None):
    """Fetch a chart from the registry; paired names return a ChartPair.

    ``params``: 16 matrix entries for ``linear``, one speed for
    ``lorentz_boost``, 60 coefficients for ``polynomial``.
    """
    if name == "identity":
        return ChartPair(identity_chart(), identity_chart())
    if name == "linear":
        if params is None:
            raise RegistryError("linear chart needs matrix parameters")
        M = np.asarray(params, dtype=float).reshape(4, 4)
        fw = linear_chart(M)
        bw = linear_chart(np.linalg.inv(M), "linear inverse")
        return ChartPair(fw, bw)
    if name == "lorentz_boost":
        if params is None:
            raise RegistryError("lorentz_boost needs a speed parameter")
        v = float(np.atleast_1d(params)[0])
        return ChartPair(
            lorentz_boost_chart(v), lorentz_boost_chart(v, inverse=True)
        )
    if name == "cylindrical_to_cartesian":
        return ChartPair(
            cylindrical_to_cartesian_chart(), cartesian_to_cylindrical_chart()
        )
    if name == "cartesian_to_cylindrical":
        return ChartPair(
            cartesian_to_cylindrical_chart(), cylindrical_to_cartesian_chart()
        )
    if name == "spherical_to_cartesian":
        return spherical_to_cartesian_chart()
    if name == "polynomial":
        if params is None:
            raise RegistryError("polynomial chart needs coefficients")
        return polynomial_chart(params)
    raise RegistryError(
        f"unknown chart {name!r}; known: {', '.join(_NAMES)}"
    )


def registry_names():
    return _NAMES
