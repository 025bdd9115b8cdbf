"""Static potentials of point sources and their large-distance falloff.

The scalar Coulomb kernel q/(4 pi eps0 r) is the only primitive; every
other potential is a directional first or second derivative of it,
computed by jets at runtime.  Units default to eps0 = 1; falloff
exponents and ratios are unit-free either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import DomainError
from .jets import Jet2, columns, stacked
from .moments import satisfies

EPS0_SI = 8.8541878128e-12

# The shape of the moments of each source kind.
_MOMENT_SHAPES = {
    "monopole": (),
    "electric_dipole": (3,),
    "magnetic_dipole": (3,),
    "electric_quadrupole": (3, 3),
    "magnetic_quadrupole": (3, 3, 3),
}
KINDS = tuple(_MOMENT_SHAPES)
# The constraint on the moments of a quadrupole kind, and the message
# when they break it.
_MOMENT_CONSTRAINTS = {
    "electric_quadrupole": (
        "symmetric", "electric quadrupole moments must be symmetric "
                     "(time-slot components gamma[0][mu][nu])"),
    "magnetic_quadrupole": (
        "quadrupole", "magnetic quadrupole moments must satisfy the spatial "
                      "component symmetries (last-two-slot symmetry and "
                      "vanishing cyclic sum)"),
}


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
    ``magnetic_quadrupole``.  Other moments and an ``eps0`` that is
    not positive and finite raise :class:`DomainError`.
    """

    kind: str
    moments: object
    eps0: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(
                f"unknown source kind {self.kind!r}; known: {', '.join(KINDS)}"
            )
        shape = _MOMENT_SHAPES[self.kind]
        try:
            m = np.asarray(self.moments, dtype=float).reshape(shape)
        except (TypeError, ValueError, OverflowError):
            m = np.nan
        if not np.all(np.isfinite(m)):
            dims = "x".join(map(str, shape)) or "one"
            raise DomainError(
                f"{self.kind} moments must be {dims} finite "
                f"number{'s' if shape else ''}")
        try:
            eps0 = float(self.eps0)
        except (TypeError, ValueError, OverflowError):
            eps0 = np.nan
        if not 0.0 < eps0 < np.inf:
            raise DomainError(
                f"eps0 {self.eps0!r} must be a positive finite number")
        self.eps0 = eps0
        if self.kind in _MOMENT_CONSTRAINTS:
            constraint, message = _MOMENT_CONSTRAINTS[self.kind]
            if not satisfies(constraint, m, 1e-12):
                raise DomainError(message)
        self.moments = m
        self._kernel = ex.Program((_coulomb_expr(1.0, eps0),))

    def _kernel_jet(self, x3):
        x = columns(x3, 3)
        if np.any(x[0] * x[0] + x[1] * x[1] + x[2] * x[2] == 0.0):
            raise DomainError("potential evaluated at the source point")
        # potential_at reads the Hessian for the quadrupoles alone.
        order = 2 if self.kind.endswith("quadrupole") else 1
        return self._kernel(
            Jet2.seed_point((np.zeros(len(x[0])), *x), order))[0]

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


def ray_magnitudes(source, direction, r_lo, r_hi, n):
    """Radii ``rs`` geometrically spaced on [r_lo, r_hi] and the
    potential magnitudes ``mags`` = |(phi, A)| at ``rs`` along a ray.

    Raises :class:`DomainError` below two distinct radii (no slope can
    be fitted), when a magnitude is not finite (it overflows), and when
    the potential vanishes along the ray (pick another direction).
    """
    if n < 2 or r_lo == r_hi:
        raise DomainError(f"a ray needs 2 distinct radii, got {n} on "
                          f"[{r_lo}, {r_hi}]")
    d = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(d)
    if norm == 0.0:
        raise DomainError("direction must be nonzero")
    d = d / norm
    rs = np.geomspace(r_lo, r_hi, n)
    with np.errstate(over="ignore", invalid="ignore"):
        phi, A = source.potential_at(rs[:, None] * d)
        mags = np.hypot(np.abs(phi), np.linalg.norm(A, axis=-1))
    if not np.all(np.isfinite(mags)):
        raise DomainError(f"potential magnitude is not finite along "
                          f"direction {tuple(direction)!r}")
    if np.min(mags) <= 0.0 or np.max(mags) < 1e-300:
        raise DomainError(
            f"potential vanishes along direction {tuple(direction)!r}; "
            "pick another direction"
        )
    return rs, mags


def loglog_slope(rs, mags):
    """Least-squares slope of log mags against log rs."""
    return float(np.polyfit(np.log(rs), np.log(mags), 1)[0])


def falloff_exponent(source, direction):
    """Least-squares slope of log |potential| against log r along a ray
    over 50 radii on [10, 1000].

    Raises :class:`DomainError` when the potential vanishes along the
    ray (pick another direction).
    """
    return loglog_slope(*ray_magnitudes(source, direction, 10.0, 1000.0, 50))
