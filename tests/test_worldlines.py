import math

import numpy as np
import pytest

from oracles import poly_tau_expr, random_dipole, reparametrized
from polekit import expr as ex
from polekit.expr import tau_rows
from polekit.charts import get, lorentz_boost_chart
from polekit.errors import DomainError
from polekit.jets import Jet2
from polekit.pairing import pair_dipole, random_test_form_along
from polekit.worldlines import Worldline


def test_static_worldline_eval():
    C = Worldline.static_at((0.0, 0.0, 0.0), (0.0, 10.0))
    point, vel = C.eval(np.array([5.0]))
    assert tuple(point[0]) == (5.0, 0.0, 0.0, 0.0)
    assert tuple(vel[0]) == (1.0, 0.0, 0.0, 0.0)


def test_helix_eval():
    C = Worldline(
        (ex.Var(0), ex.Fun("cos", ex.Var(0)), ex.Fun("sin", ex.Var(0)),
         ex.Const(0.0)),
        (-2.0, 2.0),
    )
    point, vel = C.eval(np.zeros(1))
    assert point[0] == pytest.approx((0.0, 1.0, 0.0, 0.0))
    assert vel[0] == pytest.approx((1.0, 0.0, 1.0, 0.0))


def test_linear_motion_eval():
    C = Worldline(
        (ex.Var(0), ex.Mul(ex.Const(0.5), ex.Var(0)), ex.Const(0.0),
         ex.Const(0.0)),
        (0.0, 5.0),
    )
    point, vel = C.eval(np.array([2.0]))
    assert point[0] == pytest.approx((2.0, 1.0, 0.0, 0.0))
    assert vel[0] == pytest.approx((1.0, 0.5, 0.0, 0.0))


def test_outside_interval_raises():
    C = Worldline.static_at((0.0, 0.0, 0.0), (0.0, 1.0))
    with pytest.raises(DomainError):
        C.eval(np.array([0.5, 2.0]))


def test_push_through_cylindrical_axis_point():
    ch = get("cylindrical_to_cartesian").forward
    C = Worldline.static_at((1.0, 0.0, 0.0), (0.0, 4.0))
    image = C.push_through_chart(ch)
    p, v = image.eval(np.array([2.0]))
    assert p[0] == pytest.approx((2.0, 1.0, 0.0, 0.0))
    C2 = Worldline.static_at((1.0, math.pi / 2, 0.0), (0.0, 4.0))
    p2, _ = C2.push_through_chart(ch).eval(np.array([2.0]))
    assert p2[0] == pytest.approx((2.0, 0.0, 1.0, 0.0), abs=1e-15)


def test_push_through_boost_matches_matrix():
    v = 0.6
    g = 1 / math.sqrt(1 - v * v)
    ch = lorentz_boost_chart(v)
    C = Worldline.static_at((0.7, 0.0, 0.0), (0.0, 3.0))
    image = C.push_through_chart(ch)
    tau = 1.3
    p, vel = image.eval(np.array([tau]))
    # matrix applied by hand to (tau, 0.7, 0, 0)
    assert p[0, 0] == pytest.approx(g * tau - g * v * 0.7, rel=1e-14)
    assert p[0, 1] == pytest.approx(g * 0.7 - g * v * tau, rel=1e-14)
    assert vel[0] == pytest.approx((g, -g * v, 0.0, 0.0), rel=1e-14)


def test_pushed_velocity_is_jacobian_times_velocity(wobble_worldline):
    ch = get("cylindrical_to_cartesian").forward
    C = wobble_worldline
    image = C.push_through_chart(ch)
    for tau in np.linspace(0.1, 5.9, 9)[:, None]:
        p, v = C.eval(tau)
        A = ch.jacobian_at(p)[0]
        ph, vh = image.eval(tau)
        assert np.allclose(ph, ch.value_at(p), atol=1e-12)
        assert np.allclose(vh[0], A @ np.array(v[0]), atol=1e-12)


def test_regularity_check():
    # velocity vanishes at tau = 0 for C = (tau^3, 0, 0, 0)
    C = Worldline(
        (ex.Pow(ex.Var(0), 3.0), ex.Const(0.0), ex.Const(0.0), ex.Const(0.0)),
        (-1.0, 1.0),
    )
    with pytest.raises(DomainError):
        C.check_regular()


def test_is_adapted():
    assert Worldline.static_at((0.0, 0.0, 0.0), (0.0, 1.0)).is_adapted()
    assert not Worldline.static_at((1.0, 0.0, 0.0), (0.0, 1.0)).is_adapted()


def test_reparametrized_pairing_invariance(rng):
    """Pairing computed in the original parameter equals the pairing of
    the reparametrized components (with the parameter-change factor)
    along the reparametrized curve: a dipole is a distribution along the
    curve, whatever its parameter."""
    C = Worldline(
        (ex.Var(0), ex.Mul(ex.Const(0.3), ex.Var(0)), ex.Const(0.2),
         ex.Const(0.0)),
        (0.5, 4.0),
    )
    gamma = random_dipole(rng, degree=2)
    # tau = tau_hat^2 is orientation-preserving on positive tau_hat
    C_hat, gamma_hat = reparametrized(
        C, gamma, ex.Mul(ex.Var(0), ex.Var(0)), (math.sqrt(0.5), 2.0))
    for _ in range(4):
        form = random_test_form_along(rng, C)
        a = pair_dipole(gamma, C, form).value
        b = pair_dipole(gamma_hat, C_hat, form).value
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def test_velocity_taufn_derivative():
    C = Worldline(
        (ex.Var(0), ex.Fun("sin", ex.Var(0)), ex.Const(0.0), ex.Const(0.0)),
        (0.0, 3.0),
    )
    assert C.eval(np.ones(1))[1][0, 1] == pytest.approx(math.cos(1.0),
                                                        rel=1e-14)
    assert C.acceleration_at(np.ones(1))[0, 1] == pytest.approx(
        -math.sin(1.0), rel=1e-13)


# -- one-variable seeding --------------------------------------------------


def _four_variable(e, taus):
    """Value, d/dtau and d2/dtau2 of e from jets seeded in four
    variables at (tau, 0, 0, 0)."""
    env = (taus, 0.0, 0.0, 0.0)
    jet = e.eval(Jet2.seed_point(env, 2))
    return e.eval(env), jet.grad[..., 0], jet.hess[..., 0]


def test_one_variable_tau_derivatives_equal_four_variable_seeding(rng):
    taus = np.linspace(-1.3, 2.1, 37)
    for _ in range(40):
        p = poly_tau_expr(rng, 3, 1.5)
        for e in (p, ex.Fun("sin", p), ex.Fun("exp", p),
                  ex.Fun("sqrt", ex.add(ex.mul(p, p), ex.const(1.0)))):
            old = _four_variable(e, taus)
            for k in range(3):
                new = tau_rows(ex.Program([e]), taus, k)[:, 0]
                assert np.array_equal(np.broadcast_to(new, taus.shape),
                                      np.broadcast_to(old[k], taus.shape))
            for t in (float(taus[0]), float(taus[17])):
                single = _four_variable(e, t)
                for k in range(3):
                    assert tau_rows(ex.Program([e]), np.array([t]), k)[0, 0] == single[k]


def test_one_variable_worldline_equals_four_variable_seeding(
        wobble_worldline):
    C = wobble_worldline
    taus = np.linspace(*C.interval, 41)
    old = [_four_variable(c, taus) for c in C.components]
    point, vel = C.eval(taus)
    acc = C.acceleration_at(taus)
    for a in range(4):
        for new, ref in zip((point[:, a], vel[:, a], acc[:, a]), old[a]):
            assert np.array_equal(new, np.broadcast_to(ref, taus.shape))
    t = float(taus[9])
    old = [_four_variable(c, t) for c in C.components]
    point, vel = C.eval(np.array([t]))
    assert (tuple(point[0]), tuple(vel[0])) == (tuple(o[0] for o in old),
                                                tuple(o[1] for o in old))
    assert tuple(C.acceleration_at(np.array([t]))[0]) == tuple(
        o[2] for o in old)
