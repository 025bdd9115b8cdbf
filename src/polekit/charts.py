"""Coordinate charts with exact Jacobians and Hessians.

A chart is four expression trees mapping (x0..x3) to hatted coordinates.
Jet evaluation of the component trees gives the Jacobian A^a_b and the
Hessian A^a_bc in one pass, which is everything the transport law needs.
Every evaluator takes an (N, 4) array of points (N = 1 for one point)
and returns arrays with a leading axis of length N.
The registry provides the built-in charts as pairs, with a verified
inverse where one is known (no numerical inversion anywhere: an inverse
is trusted only after round-trip and Jacobian-inverse checks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import DomainError, RegistryError
from .jets import Jet2, columns, entries_array, stacked

_DET_CUTOFF = 1e-12


def singular_row(A):
    """The first of the (N, 4, 4) Jacobians A whose |det A| is below
    the regularity cutoff, or None when there is none."""
    singular = np.abs(np.linalg.det(A)) < _DET_CUTOFF
    return int(np.argmax(singular)) if np.any(singular) else None


@dataclass(frozen=True)
class DomainHint:
    """Validity region of a chart: a predicate plus a description.

    The predicate maps an array of points (coordinates on the last
    axis) to a boolean array, elementwise."""

    predicate: object  # callable (..., 4) array -> (...) bool array
    description: str

    def contains(self, x):
        """(N,) booleans for the rows of an (N, 4) array of points."""
        return self.predicate(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Chart:
    forward: tuple  # four Expr, functions of x0..x3
    label: str = "chart"
    domain_hint: DomainHint | None = None

    def in_domain(self, x):
        """Whether each row of an (N, 4) array of points lies in the
        chart's domain."""
        if self.domain_hint is None:
            return np.ones(len(x), dtype=bool)
        return self.domain_hint.contains(x)

    def _check_domain(self, x):
        ok = self.in_domain(x)
        if not np.all(ok):
            bad = x[np.argmin(ok)]
            raise DomainError(
                f"point {tuple(float(c) for c in bad)!r} outside domain of "
                f"chart {self.label!r} ({self.domain_hint.description})"
            )

    def value_at(self, x):
        """Hatted coordinates of the rows of x, an (N, 4) array."""
        env = columns(x)
        self._check_domain(x)
        return entries_array([comp.eval(env) for comp in self.forward],
                             (len(x),))

    def jets_at(self, x, order):
        """Jets of the four components over the rows of x, truncated at
        ``order``."""
        env = columns(x)
        self._check_domain(x)
        seeds = Jet2.seed_point(env, order)
        return tuple(comp.eval(seeds) for comp in self.forward)

    def jacobian_at(self, x):
        """A^a_b = d(hatted x^a)/d x^b as an (N, 4, 4) array; raises
        DomainError when |det A| is below the cutoff at any row."""
        A = self.frames_at(x, 1)[1]
        i = singular_row(A)
        if i is not None:
            raise DomainError(
                f"chart {self.label!r} has |det A| = "
                f"{abs(np.linalg.det(A[i])):.3e} "
                f"at {tuple(float(c) for c in x[i])!r}")
        return A

    def frames_at(self, x, order):
        """(value, Jacobian, Hessian) from a single jet pass: arrays of
        shape (N, 4), (N, 4, 4) and (N, 4, 4, 4); (value, Jacobian) for
        ``order`` 1."""
        jlist = self.jets_at(x, order)
        return tuple(stacked(jlist, (len(x),), k) for k in range(order + 1))

    def jacobian_exprs(self):
        """Symbolic Jacobian entries, J[a][b] = d forward[a] / d x^b."""
        return tuple(
            tuple(comp.diff(b) for b in range(4)) for comp in self.forward
        )


def compose_charts(outer, inner):
    """The chart x -> outer(inner(x)) by expression substitution."""
    mapping = {i: inner.forward[i] for i in range(4)}
    comps = tuple(c.subs(mapping) for c in outer.forward)
    hint = None
    if inner.domain_hint is not None or outer.domain_hint is not None:

        def pred(x, _in=inner, _out=outer):
            ok = _in.in_domain(x)
            if _out.domain_hint is not None and np.any(ok):
                ok[ok] = _out.in_domain(_in.value_at(x[ok]))
            return ok

        parts = [
            h.description
            for h in (inner.domain_hint, outer.domain_hint)
            if h is not None
        ]
        hint = DomainHint(pred, " and ".join(parts))
    return Chart(comps, f"{outer.label} o {inner.label}", hint)


@dataclass(frozen=True)
class ChartPair:
    forward: Chart
    inverse: Chart | None  # None when no inverse is known

    def verify(self, points):
        """Check the inverse on sample points (an (N, 4) array).

        The round trip in the hatted coordinates must hold to 1e-9 of
        their scale, and the product of the two Jacobians must be the
        identity to 1e-8; raises DomainError naming the first failing
        point.
        """
        x = np.asarray(points, dtype=float)
        xh = self.forward.value_at(x)
        there = self.forward.value_at(self.inverse.value_at(xh))
        scale = np.maximum(1.0, np.max(np.abs(xh), axis=1))
        err = np.max(np.abs(there - xh), axis=1)
        resid = np.max(np.abs(self.inverse.jacobian_at(xh)
                              @ self.forward.jacobian_at(x) - np.eye(4)),
                       axis=(1, 2))
        for i, p in enumerate(x):
            at = f"at {tuple(float(c) for c in p)!r} for pair"
            if not err[i] <= 1e-9 * scale[i]:
                raise DomainError(f"round trip error {err[i]:.3e} {at} "
                                  f"{self.forward.label!r}")
            if not resid[i] <= 1e-8:
                raise DomainError(
                    f"Jacobians are not inverse (residual {resid[i]:.3e}) "
                    f"{at} {self.forward.label!r}")
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


def lorentz_boost_chart(v, inverse=False):
    v = float(v)
    if abs(v) >= 1.0:
        raise RegistryError(f"boost speed |v| = {abs(v)} must be < 1")
    if inverse:
        v = -v
    g = 1.0 / np.sqrt(1.0 - v * v)
    M = np.eye(4)
    M[0, 0] = M[1, 1] = g
    M[0, 1] = M[1, 0] = -g * v
    return linear_chart(M, f"lorentz_boost(v={v})")


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


def polynomial_chart(coeffs):
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
    return Chart(tuple(comps), "polynomial")


_NAMES = ("identity", "linear", "lorentz_boost", "cylindrical_to_cartesian",
          "cartesian_to_cylindrical", "spherical_to_cartesian", "polynomial")


def _params(name, params, count):
    """``params`` as a flat array of ``count`` floats; a RegistryError
    naming the chart when they are missing, not finite numbers (``null``
    included), or too few or too many."""
    try:
        values = np.asarray(params, dtype=float).ravel()
    except (TypeError, ValueError, OverflowError):
        values = np.array([np.nan])
    if values.size != count or not np.all(np.isfinite(values)):
        raise RegistryError(
            f"{name} chart needs params of {count} number"
            f"{'s' if count > 1 else ''}, got {params!r}")
    return values


def get(name, params=None):
    """Fetch a chart from the registry as a ChartPair, whose inverse is
    None for ``spherical_to_cartesian`` and ``polynomial``.

    ``params``: 16 matrix entries for ``linear``, one speed for
    ``lorentz_boost``, 60 coefficients for ``polynomial``.
    """
    if name == "identity":
        return ChartPair(identity_chart(), identity_chart())
    if name == "linear":
        M = _params(name, params, 16).reshape(4, 4)
        fw = linear_chart(M)
        bw = linear_chart(np.linalg.inv(M), "linear inverse")
        return ChartPair(fw, bw)
    if name == "lorentz_boost":
        v = _params(name, params, 1)[0]
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
        return ChartPair(spherical_to_cartesian_chart(), None)
    if name == "polynomial":
        return ChartPair(polynomial_chart(_params(name, params, 60)), None)
    raise RegistryError(
        f"unknown chart {name!r}; known: {', '.join(_NAMES)}"
    )
