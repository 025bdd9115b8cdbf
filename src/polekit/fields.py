"""Static potentials of point sources and their large-distance falloff.

The scalar Coulomb kernel q/(4 pi eps0 r) is the only primitive; every
other potential is a directional first or second derivative of it,
computed by jets at runtime.  Closed-form expression fields are also
provided (and cross-checked against the jet path in tests) so that
potentials can themselves be jet-differentiated, e.g. for harmonicity
checks.  Units default to eps0 = 1; falloff exponents and ratios are
unit-free either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import DomainError
from .jets import Jet2, columns, stacked

EPS0_SI = 8.8541878128e-12

KINDS = (
    "monopole",
    "electric_dipole",
    "magnetic_dipole",
    "electric_quadrupole",
    "magnetic_quadrupole",
)

_SPATIAL = (1, 2, 3)


def _spatial_hessian(j):
    """The spatial block of a batch jet's Hessian as a contiguous
    (N, 3, 3) array (einsum's summation order depends on the memory
    layout)."""
    return np.ascontiguousarray(stacked([j], j.value.shape, 2)[:, 0, 1:, 1:])


def _coulomb_expr(q, eps0):
    # q / (4 pi eps0) * (x1^2 + x2^2 + x3^2)^(-1/2)
    r2 = ex.Add(
        ex.Mul(ex.Var(1), ex.Var(1)),
        ex.Add(ex.Mul(ex.Var(2), ex.Var(2)), ex.Mul(ex.Var(3), ex.Var(3))),
    )
    c = q / (4.0 * np.pi * eps0)
    return ex.mul(ex.const(c), ex.Pow(r2, -0.5))


@dataclass
class StaticSource:
    """A static point source at the origin.

    ``moments``: charge for ``monopole``; 3-vector for the dipoles;
    symmetric 3x3 (the time-slot quadrupole components) for
    ``electric_quadrupole``; spatial 3x3x3 components for
    ``magnetic_quadrupole``.
    """

    kind: str
    moments: object
    eps0: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(
                f"unknown source kind {self.kind!r}; known: {', '.join(KINDS)}"
            )
        m = np.asarray(self.moments, dtype=float)
        if self.kind == "monopole":
            m = m.reshape(())
        elif self.kind in ("electric_dipole", "magnetic_dipole"):
            m = m.reshape(3)
        elif self.kind == "electric_quadrupole":
            m = m.reshape(3, 3)
            if np.max(np.abs(m - m.T)) > 1e-12:
                raise DomainError(
                    "electric quadrupole moments must be symmetric "
                    "(time-slot components gamma[0][mu][nu])"
                )
        else:
            m = m.reshape(3, 3, 3)
            pair = np.max(np.abs(m - m.transpose(0, 2, 1)))
            cyc = np.max(
                np.abs(m + m.transpose(1, 2, 0) + m.transpose(2, 0, 1))
            )
            if pair > 1e-12 or cyc > 1e-12:
                raise DomainError(
                    "magnetic quadrupole moments must satisfy the spatial "
                    "component symmetries (last-two-slot symmetry and "
                    "vanishing cyclic sum)"
                )
        self.moments = m

    def _kernel_jet(self, x3):
        x = columns(x3, 3)
        if np.any(x[0] * x[0] + x[1] * x[1] + x[2] * x[2] == 0.0):
            raise DomainError("potential evaluated at the source point")
        ker = _coulomb_expr(1.0, self.eps0)
        return ker.eval(Jet2.seed_point((np.zeros(len(x[0])), *x)))

    def potential_at(self, x3):
        """(scalar potential (N,), vector potential (N, 3)) at the rows
        of an (N, 3) array of spatial points, from one jet pass."""
        j = self._kernel_jet(x3)
        n = len(j.value)
        if self.kind == "monopole":
            return float(self.moments) * j.value, np.zeros((n, 3))
        grad = stacked([j], (n,), 1)[:, 0, 1:]
        if self.kind == "electric_dipole":
            return np.einsum("m,nm->n", self.moments, grad), np.zeros((n, 3))
        if self.kind == "magnetic_dipole":
            return np.zeros(n), np.cross(self.moments, grad)
        hess = _spatial_hessian(j)
        if self.kind == "electric_quadrupole":
            return np.einsum("mn,kmn->k", self.moments, hess), np.zeros((n, 3))
        return np.zeros(n), np.einsum("mns,kns->km", self.moments, hess)

    def potential_exprs(self):
        """Closed-form scalar and vector potential expressions in
        x1..x3 (hand-differentiated Coulomb derivatives; verified
        against the jet path in tests)."""
        ker = _coulomb_expr(1.0, self.eps0)
        grads = [ker.diff(mu) for mu in _SPATIAL]
        if self.kind == "monopole":
            return ex.mul(ex.const(float(self.moments)), ker), None
        if self.kind == "electric_dipole":
            e = ex.const(0.0)
            for k, mu in enumerate(_SPATIAL):
                e = ex.add(e, ex.mul(ex.const(self.moments[k]), grads[k]))
            return e, None
        if self.kind == "magnetic_dipole":
            p = self.moments
            comps = []
            for m in range(3):
                e = ex.const(0.0)
                for n in range(3):
                    for s in range(3):
                        sign = _eps3(m, n, s)
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
        if self.kind == "electric_quadrupole":
            e = ex.const(0.0)
            for m in range(3):
                for n in range(3):
                    if self.moments[m, n]:
                        e = ex.add(
                            e,
                            ex.mul(ex.const(self.moments[m, n]), hessians[m][n]),
                        )
            return e, None
        comps = []
        for m in range(3):
            e = ex.const(0.0)
            for n in range(3):
                for s in range(3):
                    if self.moments[m, n, s]:
                        e = ex.add(
                            e,
                            ex.mul(ex.const(self.moments[m, n, s]), hessians[n][s]),
                        )
            comps.append(e)
        return None, tuple(comps)


def _eps3(i, j, k):
    return {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
            (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}.get((i, j, k), 0)


def potential_magnitude(source, x3):
    """|(phi, A)| at the rows of an (N, 3) array of spatial points."""
    phi, A = source.potential_at(x3)
    return np.hypot(np.abs(phi), np.linalg.norm(A, axis=-1))


def ray_magnitudes(source, direction, r_lo=10.0, r_hi=1000.0, n=50):
    """Radii ``rs`` geometrically spaced on [r_lo, r_hi] and the
    potential magnitudes ``mags`` at ``rs`` along a ray.

    Raises :class:`DomainError` when the potential vanishes along the
    ray (pick another direction).
    """
    d = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(d)
    if norm == 0.0:
        raise DomainError("direction must be nonzero")
    d = d / norm
    rs = np.geomspace(r_lo, r_hi, n)
    mags = potential_magnitude(source, rs[:, None] * d)
    if np.min(mags) <= 0.0 or np.max(mags) < 1e-300:
        raise DomainError(
            f"potential vanishes along direction {tuple(direction)!r}; "
            "pick another direction"
        )
    return rs, mags


def loglog_slope(rs, mags):
    """Least-squares slope of log mags against log rs."""
    return float(np.polyfit(np.log(rs), np.log(mags), 1)[0])


def falloff_exponent(source, direction, r_lo=10.0, r_hi=1000.0, n=50):
    """Least-squares slope of log |potential| against log r along a ray.

    Raises :class:`DomainError` when the potential vanishes along the
    ray (pick another direction).
    """
    return loglog_slope(*ray_magnitudes(source, direction, r_lo, r_hi, n))
