import math

import numpy as np
import pytest

from oracles import random_linear_pair
from polekit import expr as ex
from polekit.charts import (
    Chart,
    ChartPair,
    compose_charts,
    cylindrical_to_cartesian_chart,
    get,
    linear_chart,
    lorentz_boost_chart,
    polynomial_chart,
    spherical_to_cartesian_chart,
)
from polekit.errors import DomainError, RegistryError


def test_identity_chart():
    pair = get("identity")
    x = np.array([[0.4, -1.0, 2.0, 0.3]])
    assert np.allclose(pair.forward.jacobian_at(x)[0], np.eye(4))
    assert np.max(np.abs(pair.forward.frames_at(x, 2)[2])) == 0.0


def test_cylindrical_jacobian_at_axis_point():
    # at (t, r, theta, z) = (0, 1, 0, 0): the Jacobian is the identity
    ch = cylindrical_to_cartesian_chart()
    x = np.array([[0.0, 1.0, 0.0, 0.0]])
    A = ch.jacobian_at(x)[0]
    assert A[1, 1] == pytest.approx(1.0)   # d x / d r = cos(theta)
    assert A[2, 1] == pytest.approx(0.0)   # d y / d r = sin(theta)
    assert A[1, 2] == pytest.approx(0.0)   # d x / d theta = -r sin(theta)
    assert A[2, 2] == pytest.approx(1.0)   # d y / d theta = r cos(theta)


def test_cylindrical_jacobian_general_angle():
    ch = cylindrical_to_cartesian_chart()
    r, th = 1.7, 0.62
    A = ch.jacobian_at(np.array([[0.0, r, th, 0.0]]))[0]
    assert A[1, 1] == pytest.approx(math.cos(th), rel=1e-14)
    assert A[2, 1] == pytest.approx(math.sin(th), rel=1e-14)
    assert A[1, 2] == pytest.approx(-r * math.sin(th), rel=1e-14)
    assert A[2, 2] == pytest.approx(r * math.cos(th), rel=1e-14)


def test_cylindrical_hessian_entries():
    ch = cylindrical_to_cartesian_chart()
    r, th = 1.0, 0.0
    H = ch.frames_at(np.array([[0.0, r, th, 0.0]]), 2)[2][0]
    assert H[1][1][2] == pytest.approx(-math.sin(th))   # = 0
    assert H[1][2][1] == pytest.approx(-math.sin(th))
    assert H[2][1][2] == pytest.approx(math.cos(th))    # = 1
    assert H[1][2][2] == pytest.approx(-r * math.cos(th))  # = -1
    assert H[2][2][2] == pytest.approx(-r * math.sin(th))  # = 0
    # all components with a time or z slot vanish
    assert np.max(np.abs(H[0])) == 0.0
    assert np.max(np.abs(H[3])) == 0.0


def test_linear_chart_constant_jacobian(rng):
    M = np.eye(4) + 0.3 * rng.uniform(-1, 1, (4, 4))
    ch = linear_chart(M)
    for _ in range(5):
        x = rng.uniform(-2, 2, (1, 4))
        assert np.allclose(ch.jacobian_at(x)[0], M, atol=1e-14)
        assert np.max(np.abs(ch.frames_at(x, 2)[2])) == 0.0


def test_quadratic_chart_hessian():
    # x1_hat = x1 + x2^2: the only Hessian entry is A^1_22 = 2
    coeffs = np.zeros((4, 15))
    for a in range(4):
        coeffs[a, 1 + a] = 1.0
    coeffs[1, 5 + 7] = 1.0  # quadratic pair index (2,2) is slot 7
    ch = polynomial_chart(coeffs.reshape(-1))
    H = ch.frames_at(np.array([[0.1, 0.2, 0.3, 0.4]]), 2)[2][0]
    assert H[1][2][2] == pytest.approx(2.0)
    H[1][2][2] = 0.0
    assert np.max(np.abs(H)) == 0.0


def test_boost_zero_velocity_is_identity():
    ch = lorentz_boost_chart(0.0)
    assert np.allclose(ch.jacobian_at(np.zeros((1, 4)))[0], np.eye(4))


def test_boost_matrix():
    v = 0.6
    g = 1 / math.sqrt(1 - v * v)
    A = lorentz_boost_chart(v).jacobian_at(np.array([[0.2, 0.1, 0.0, 0.0]]))[0]
    expected = np.eye(4)
    expected[0, 0] = expected[1, 1] = g
    expected[0, 1] = expected[1, 0] = -g * v
    assert np.allclose(A, expected, atol=1e-14)


@pytest.mark.parametrize("name, params, inverse", [
    ("identity", None, True),
    ("linear", np.eye(4).ravel() * 2.0, True),
    ("lorentz_boost", [0.3], True),
    ("cylindrical_to_cartesian", None, True),
    ("cartesian_to_cylindrical", None, True),
    ("spherical_to_cartesian", None, False),
    ("polynomial", np.eye(4, 15, 1).ravel(), False),
])
def test_every_registry_name_gives_a_pair(name, params, inverse):
    """Every registry chart is a pair, whose inverse is None where none
    is known."""
    pair = get(name, params)
    assert isinstance(pair, ChartPair) and isinstance(pair.forward, Chart)
    assert (pair.inverse is not None) == inverse


def test_registry_errors():
    with pytest.raises(RegistryError, match="known: identity"):
        get("nonsense")
    with pytest.raises(RegistryError):
        get("lorentz_boost", [1.0])
    with pytest.raises(RegistryError):
        get("linear", np.zeros(16))
    with pytest.raises(RegistryError):
        get("polynomial", [1.0, 2.0])


def test_chain_rule_for_composed_charts(rng):
    inner = cylindrical_to_cartesian_chart()
    M = np.eye(4) + 0.2 * rng.uniform(-1, 1, (4, 4))
    outer = linear_chart(M)
    both = compose_charts(outer, inner)
    for _ in range(10):
        x = np.array([[rng.uniform(-1, 1), rng.uniform(0.5, 2),
                       rng.uniform(-1, 1), rng.uniform(-1, 1)]])
        A_inner = inner.jacobian_at(x)[0]
        A_outer = outer.jacobian_at(inner.value_at(x))[0]
        A_both = both.jacobian_at(x)[0]
        resid = np.max(np.abs(A_both - A_outer @ A_inner))
        assert resid <= 1e-10 * max(1.0, np.max(np.abs(A_both)))


@pytest.mark.parametrize("name,params", [
    ("identity", None),
    ("lorentz_boost", [0.6]),
    ("cylindrical_to_cartesian", None),
    ("cartesian_to_cylindrical", None),
])
def test_pairs_round_trip_and_inverse_jacobians(name, params, rng):
    pair = get(name, params)
    pts = []
    while len(pts) < 100:
        x = (rng.uniform(-1, 1), rng.uniform(0.4, 2.0),
             rng.uniform(-1.2, 1.2), rng.uniform(-1, 1))
        try:
            pair.forward.value_at(np.array([x]))
        except DomainError:
            continue
        pts.append(x)
    assert pair.verify(pts)


def test_random_linear_pair_verifies(rng):
    pair = random_linear_pair(rng)
    pts = [tuple(rng.uniform(-2, 2, 4)) for _ in range(100)]
    assert pair.verify(pts)


def test_spherical_chart_values():
    ch = spherical_to_cartesian_chart()
    t, r, th, ph = 0.3, 2.0, 1.1, 0.7
    v = ch.value_at(np.array([[t, r, th, ph]]))[0]
    assert v[1] == pytest.approx(r * math.sin(th) * math.cos(ph))
    assert v[2] == pytest.approx(r * math.sin(th) * math.sin(ph))
    assert v[3] == pytest.approx(r * math.cos(th))


def test_domain_hint_enforced():
    ch = cylindrical_to_cartesian_chart()
    with pytest.raises(DomainError):
        ch.value_at(np.array([[0.0, -1.0, 0.0, 0.0]]))


def test_one_point_needs_a_batch_of_one():
    ch = cylindrical_to_cartesian_chart()
    with pytest.raises(ValueError, match=r"\(N, 4\) array"):
        ch.value_at((0.0, 1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match=r"shape \(1, 3\)"):
        ch.jacobian_at(np.ones((1, 3)))


def test_singular_jacobian_raises():
    # scale one row to zero smoothly: x1_hat = x1^2 is singular at x1=0
    comps = (ex.Var(0), ex.Mul(ex.Var(1), ex.Var(1)), ex.Var(2), ex.Var(3))
    ch = Chart(comps, "pinch")
    want = r"'pinch' has \|det A\| = 0\.000e\+00 at \(0\.0, 0\.0, 0\.0, 0\.0\)"
    with pytest.raises(DomainError, match=want):
        ch.jacobian_at(np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))
    assert ch.jacobian_at(np.array([[0.0, 1.0, 0.0, 0.0]]))[0, 1, 1] == 2.0


def test_hessian_symmetric_by_storage(rng):
    ch = cylindrical_to_cartesian_chart()
    x = np.array([[0.0, 1.3, 0.4, -0.2]])
    H = ch.frames_at(x, 2)[2][0]
    assert np.array_equal(H, H.transpose(0, 2, 1))
