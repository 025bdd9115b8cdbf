"""Seeded random generators shared by the CLI jobs and the test suite.

Everything here is driven by a numpy Generator so that a recorded seed
reproduces a run bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from .charts import ChartPair, linear_chart
from .moments import DipoleComponents, QuadrupoleComponents, quadrupole_basis
from .pairing import AffineFormFamily
from .expr import tau_rows


def rng_from_seed(seed):
    return np.random.default_rng(int(seed))


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

    return QuadrupoleComponents.from_arrays(combo(0), combo(1), combo(2),
                                            mask=mask)


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


def _random_affine(rng, half_widths):
    """The constants (4,) and coefficients (4, 4) of four random affine
    component polynomials."""
    consts = np.empty(4)
    coefs = np.empty((4, 4))
    for a in range(4):
        consts[a] = rng.uniform(0.4, 1.6) * rng.choice([-1, 1])
        for b in range(4):
            coefs[a, b] = rng.uniform(-1, 1) / max(half_widths[b], 1e-9)
    return consts, coefs


def random_test_form(rng, center, half_widths):
    """Product test form with random affine component polynomials, as a
    family of one."""
    consts, coefs = _random_affine(rng, half_widths)
    return AffineFormFamily(consts, coefs, center, half_widths)


def random_test_form_along(rng, worldline, margin=0.2, count=1):
    """``count`` test forms, drawn one after the other, as one
    :class:`AffineFormFamily`; each box sits on the worldline image, away
    from the parameter interval ends (pairing identities integrate by
    parts in tau, so probes must vanish at the interval boundary).

    The time half-width is 0.08 to 0.2 of the parameter interval; the
    spatial half-widths are 0.08 to 0.2, so boxes stay small compared to
    chart features (axis distance, branch cuts)."""
    t0, t1 = worldline.interval
    length = t1 - t0
    draws = []
    for _ in range(count):
        tc = rng.uniform(t0 + margin * length, t1 - margin * length)
        point = worldline.point_at(np.array([tc]))
        tw = float(rng.uniform(0.08, 0.2) * length)
        sw = rng.uniform(0.08, 0.2, 3)
        widths = (tw, float(sw[0]), float(sw[1]), float(sw[2]))
        draws.append((*_random_affine(rng, widths), point[0], widths))
    return AffineFormFamily(*(np.array([d[i] for d in draws])
                              for i in range(4)))
