import math

import numpy as np
import pytest

from oracles import potential_exprs, static_dipole_vectors
from polekit.errors import DomainError
from polekit.fields import StaticSource, falloff_exponent
from polekit.jets import Jet2, full_hessian
from polekit.moments import make_toroidal_quadrupole


def test_monopole_value():
    s = StaticSource("monopole", 4 * math.pi)  # q = 4 pi eps0 with eps0 = 1
    phi, A = s.potential_at(np.array([[2.0, 0.0, 0.0]]))
    assert phi[0] == pytest.approx(0.5, rel=1e-14)
    assert np.max(np.abs(A[0])) == 0.0


def test_electric_dipole_plane_and_pattern():
    s = StaticSource("electric_dipole", (0.0, 0.0, 1.0))
    # vanishes on the z = 0 plane by symmetry
    assert s.potential_at(np.array([[1.3, -0.4, 0.0]]))[0][0] == \
        pytest.approx(0.0, abs=1e-15)
    # z / r^3 pattern (with the sign of the defining derivative)
    z, r = 2.0, 2.0
    phi, _ = s.potential_at(np.array([[0.0, 0.0, z]]))
    assert phi[0] == pytest.approx(-z / (4 * math.pi * r ** 3), rel=1e-12)


def test_electric_quadrupole_closed_form(rng):
    # gamma[0][3][3] = 1: phi = d^2/dz^2 (1/4 pi r) = (3z^2 - r^2)/(4 pi r^5)
    s = StaticSource("electric_quadrupole", [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]])
    for _ in range(10):
        x = rng.uniform(-3, 3, 3)
        r = np.linalg.norm(x)
        if r < 0.5:
            continue
        phi, _ = s.potential_at(x[None])
        expected = (3 * x[2] ** 2 - r ** 2) / (4 * math.pi * r ** 5)
        assert phi[0] == pytest.approx(expected, rel=1e-11)


def test_evaluation_at_origin_rejected():
    s = StaticSource("monopole", 1.0)
    with pytest.raises(DomainError):
        s.potential_at(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


def test_invalid_moments_rejected():
    with pytest.raises(DomainError):
        StaticSource("electric_quadrupole", [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(DomainError):
        StaticSource("magnetic_quadrupole", np.ones((3, 3, 3)))
    with pytest.raises(DomainError):
        StaticSource("octopole", 1.0)


@pytest.mark.parametrize("kind,moments,expected", [
    ("monopole", 2.0, -1.0),
    ("electric_dipole", (0.4, -1.0, 0.3), -2.0),
    ("magnetic_dipole", (0.0, 0.7, 1.0), -2.0),
    ("electric_quadrupole", [[1.0, 0.2, 0], [0.2, -0.5, 0], [0, 0, -0.5]],
     -3.0),
])
def test_falloff_exponents(kind, moments, expected):
    s = StaticSource(kind, moments)
    e = falloff_exponent(s, (0.3, 0.5, 1.0))
    assert e == pytest.approx(expected, abs=0.01)


def test_magnetic_quadrupole_falloff():
    tor = make_toroidal_quadrupole((0.0, 0.0, 1.0))
    spatial = tor.values_at(np.zeros(1))[0, 1:, 1:, 1:]
    s = StaticSource("magnetic_quadrupole", spatial)
    e = falloff_exponent(s, (0.3, 0.5, 1.0))
    assert e == pytest.approx(-3.0, abs=0.01)


@pytest.mark.parametrize("factor", [1e3, 1e6])
def test_moments_are_judged_relative_to_their_largest_entry(factor):
    """A valid pattern scaled up keeps its rounding relative to its size:
    the toroidal block times 1e3 has a pair residual of about 1e-12,
    which passes against 1e-12 times its largest entry.  A residual
    that is large relative to that entry still fails."""
    tor = make_toroidal_quadrupole((0.3, -1.1, 0.7))
    spatial = factor * tor.values_at(np.zeros(1))[0, 1:, 1:, 1:]
    StaticSource("magnetic_quadrupole", spatial)
    sym = factor * np.array([[1.0, 0.2, 0.0], [0.2, -0.5, 0.3],
                             [0.0, 0.3, -0.5]])
    sym[0, 1] += 1e-13 * factor
    StaticSource("electric_quadrupole", sym)
    sym[0, 1] += 1e-6 * factor
    with pytest.raises(DomainError, match="must be symmetric"):
        StaticSource("electric_quadrupole", sym)
    spatial[0, 1, 2] += 1e-6 * factor
    with pytest.raises(DomainError, match="spatial component symmetries"):
        StaticSource("magnetic_quadrupole", spatial)


def test_zero_potential_direction_rejected():
    s = StaticSource("electric_dipole", (0.0, 0.0, 1.0))
    with pytest.raises(DomainError):
        falloff_exponent(s, (1.0, 0.0, 0.0))  # equatorial: identically zero
    with pytest.raises(DomainError):
        falloff_exponent(s, (0.0, 0.0, 0.0))


def test_scalar_potentials_are_harmonic(rng):
    """Jet Laplacian of the closed-form potentials vanishes away from
    the origin (<= 1e-8 x local magnitude)."""
    sources = [
        StaticSource("monopole", 3.0),
        StaticSource("electric_dipole", (0.5, -0.2, 1.0)),
        StaticSource("electric_quadrupole",
                     [[1.0, 0.1, 0.0], [0.1, -0.4, 0.3], [0.0, 0.3, -0.6]]),
    ]
    for s in sources:
        phi_expr, _ = potential_exprs(s)
        checked = 0
        while checked < 100:
            x = rng.uniform(-4, 4, 3)
            if np.linalg.norm(x) < 0.7:
                continue
            j = phi_expr.eval(Jet2.seed_point((0.0, *x), 2))
            H = full_hessian(j.hess)
            lap = H[1, 1] + H[2, 2] + H[3, 3]
            local = max(abs(j.value), 1e-12)
            assert abs(lap) <= 1e-8 * max(local, 1.0)
            checked += 1


def test_jet_path_matches_closed_forms(rng):
    for s in (
        StaticSource("electric_dipole", (0.3, 0.9, -0.5)),
        StaticSource("electric_quadrupole",
                     [[0.4, 0.0, 0.2], [0.0, -0.4, 0.0], [0.2, 0.0, 0.0]]),
    ):
        phi_expr, _ = potential_exprs(s)
        x = rng.uniform(-2, 2, (10, 3))
        x = x[np.linalg.norm(x, axis=1) >= 0.5]
        assert s.potential_at(x)[0] == pytest.approx(
            phi_expr.eval((0.0, *x.T)), rel=1e-11
        )
    s = StaticSource("magnetic_dipole", (0.1, -0.8, 0.4))
    _, A_exprs = potential_exprs(s)
    x = rng.uniform(-2, 2, (5, 3))
    x = x[np.linalg.norm(x, axis=1) >= 0.5]
    A = s.potential_at(x)[1]
    closed = np.stack([c.eval((0.0, *x.T)) for c in A_exprs], axis=1)
    assert A.shape == closed.shape == (len(x), 3)
    assert np.allclose(A, closed, rtol=1e-11, atol=1e-13)


def test_transported_dipole_part_falls_like_inverse_square(rng):
    """The dipole appearing in the Cartesian image of the resting
    cylindrical quadrupole has an inverse-square potential."""
    from polekit import expr as ex
    from polekit.charts import cylindrical_to_cartesian_chart
    from polekit.moments import QuadrupoleComponents
    from polekit.transport import transform_quadrupole
    from polekit.worldlines import Worldline

    kappa = 1.0
    quad = QuadrupoleComponents.from_dict({
        (2, 1, 1): ex.const(2 * kappa),
        (1, 2, 1): ex.const(-kappa),
        (1, 1, 2): ex.const(-kappa),
    })
    C = Worldline.static_at((1.0, 0.0, 0.0), (0.0, 10.0))
    tr = transform_quadrupole(quad, cylindrical_to_cartesian_chart(), C)
    p_ed, p_md = static_dipole_vectors(tr.gamma2_hat, tau=5.0)
    assert np.allclose(p_ed, 0.0, atol=1e-12)
    assert p_md == pytest.approx((0.0, 0.0, kappa), abs=1e-10)
    s = StaticSource("magnetic_dipole", p_md)
    e = falloff_exponent(s, (0.2, 0.4, 1.0))
    assert e == pytest.approx(-2.0, abs=0.01)
