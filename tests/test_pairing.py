import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import fd_gradient_plain
from polekit import expr as ex
from polekit import pairing
from polekit.charts import get
from polekit.errors import DomainError, QuadratureError
from polekit.moments import Monopole, make_static_dipole
from polekit.pairing import (
    Box,
    ExprCovector,
    SourceBundle,
    make_test_form,
    pair_bundle,
    pair_dipole,
    pair_monopole,
    pair_quadrupole,
    pull_back_test_form,
)
from polekit.sampling import (
    random_dipole,
    random_quadrupole,
    random_test_form,
    random_test_form_along,
)
from polekit.worldlines import Worldline

BUMP_INTEGRAL = 0.4439938161680793  # scipy quad of exp(-1/(1-u^2)) on [-1,1]


def bump(u):
    w = 1 - u * u
    return math.exp(-1 / w) if w > 0 else 0.0


# -- test forms ---------------------------------------------------------------


def test_peak_value_is_fourth_power_of_bump():
    form = make_test_form(
        (ex.const(1.0), ex.const(0.0), ex.const(0.0), ex.const(0.0)),
        center=(1.0, 2.0, 3.0, 4.0), half_widths=(0.5, 0.5, 0.5, 0.5),
    )
    vals = form.values_at(np.array([[1.0, 2.0, 3.0, 4.0]]))[0]
    assert vals[0] == pytest.approx(math.exp(-4.0), rel=1e-14)
    assert vals[1] == vals[2] == vals[3] == 0.0


def test_exactly_zero_outside_box():
    form = make_test_form(
        (ex.parse("x1 + 1"), ex.const(2.0), ex.const(0.0), ex.const(0.0)),
        center=(0.0, 0.0, 0.0, 0.0), half_widths=(1.0, 1.0, 1.0, 1.0),
    )
    x = np.array([[0.0, 1.5, 0.0, 0.0]])
    assert tuple(form.values_at(x)[0]) == (0.0, 0.0, 0.0, 0.0)
    jets = form.jets_at(x)
    for j in jets:
        assert j.value[0] == 0.0
        assert all(g == 0.0 for g in j.grad[0])
        assert all(h == 0.0 for h in j.hess[0])


def test_zero_width_rejected():
    with pytest.raises(DomainError):
        make_test_form((ex.const(1.0),) * 4, (0.0,) * 4, (1.0, 0.0, 1.0, 1.0))


def test_form_jets_match_finite_differences(rng):
    form = random_test_form(rng, (0.5, -0.3, 0.2, 0.0),
                            (0.8, 0.7, 0.9, 0.6))
    checked = 0
    while checked < 100:
        x = tuple(
            form.box.center[i] + 0.85 * form.box.half[i] * rng.uniform(-1, 1)
            for i in range(4)
        )
        jets = form.jets_at(np.array([x]))
        for a in range(4):
            def f(p, _a=a):
                return form.values_at(np.array([p]))[0][_a]

            g = fd_gradient_plain(f, x, h=1e-5)
            for i in range(4):
                assert abs(jets[a].grad[0][i] - g[i]) <= 1e-6 * max(
                    1.0, abs(jets[a].grad[0][i])
                )
        checked += 4


# -- monopole pairing ---------------------------------------------------------


def test_monopole_zero_charge_and_disjoint_support(adapted_worldline):
    form = make_test_form(
        (ex.const(1.0),) * 4,
        center=(2.0, 5.0, 5.0, 5.0), half_widths=(0.5, 0.5, 0.5, 0.5),
    )
    # support misses the worldline image entirely
    r = pair_monopole(Monopole(2.0), adapted_worldline, form)
    assert r.value == 0.0
    r2 = pair_monopole(Monopole(0.0), adapted_worldline, form)
    assert r2.value == 0.0


def test_monopole_time_bump_oracle(adapted_worldline):
    """q = 2 against a pure time-window component: the pairing reduces
    to 2 * w0 * integral of the bump, computed independently by scipy."""
    w0 = 0.8
    comp0 = ex.Fun(
        "bump", ex.div(ex.sub(ex.Var(0), ex.const(2.0)), ex.const(w0))
    )
    probe = ExprCovector(
        (comp0, ex.const(0.0), ex.const(0.0), ex.const(0.0)),
        box=Box((2.0, 0.0, 0.0, 0.0), (w0, 9.0, 9.0, 9.0)),
    )
    r = pair_monopole(Monopole(2.0), adapted_worldline, probe)
    oracle, _ = quad(lambda t: 2.0 * bump((t - 2.0) / w0), 1.0, 3.0,
                     epsabs=1e-13, epsrel=1e-13)
    assert r.value == pytest.approx(oracle, abs=1e-10)
    assert r.value == pytest.approx(2.0 * w0 * BUMP_INTEGRAL, abs=1e-10)
    assert r.quadrature_error_estimate <= 1e-8


# -- dipole pairing -----------------------------------------------------------


def test_dipole_zero_components(adapted_worldline, rng):
    from polekit.moments import DipoleComponents

    r = pair_dipole(DipoleComponents.zero(), adapted_worldline,
                    random_test_form_along(rng, adapted_worldline))
    assert r.value == 0.0


def test_dipole_constant_component_region(adapted_worldline):
    # constant-in-space components have vanishing spatial derivatives:
    # a gamma[1,2] dipole pairs to zero against a time-only probe
    d = make_static_dipole((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    comp = ex.Fun("bump", ex.sub(ex.Var(0), ex.const(2.0)))
    probe = ExprCovector(
        (ex.const(0.0), comp, comp, ex.const(0.0)),
        box=Box((2.0, 0.0, 0.0, 0.0), (1.0, 9.0, 9.0, 9.0)),
    )
    r = pair_dipole(d, adapted_worldline, probe)
    assert abs(r.value) <= 1e-12


def test_dipole_bump_reduction_oracle(adapted_worldline):
    """gamma[01] = 1 against phi_0 = x1 * window: reduces by hand to
    -e^{-3} * w0 * integral(bump)."""
    w0 = 0.8
    form = make_test_form(
        (ex.Var(1), ex.const(0.0), ex.const(0.0), ex.const(0.0)),
        center=(2.0, 0.0, 0.0, 0.0), half_widths=(w0, 1.0, 1.0, 1.0),
    )
    d = make_static_dipole((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    r = pair_dipole(d, adapted_worldline, form)
    expected = -math.exp(-3.0) * w0 * BUMP_INTEGRAL
    assert r.value == pytest.approx(expected, abs=1e-10)


# -- quadrupole pairing ---------------------------------------------------------


def test_quadrupole_zero(adapted_worldline, rng):
    from polekit.moments import QuadrupoleComponents

    r = pair_quadrupole(QuadrupoleComponents.zero(), adapted_worldline,
                        random_test_form_along(rng, adapted_worldline))
    assert r.value == 0.0


def test_pairing_linearity(rng, adapted_worldline):
    q1 = random_quadrupole(rng)
    q2 = random_quadrupole(rng)
    alpha, beta = 0.6, -1.7
    from polekit.moments import QuadrupoleComponents

    combo = QuadrupoleComponents.from_arrays(
        lambda t: alpha * q1.values_at(t) + beta * q2.values_at(t))
    for _ in range(3):
        form = random_test_form_along(rng, adapted_worldline)
        v1 = pair_quadrupole(q1, adapted_worldline, form).value
        v2 = pair_quadrupole(q2, adapted_worldline, form).value
        vc = pair_quadrupole(combo, adapted_worldline, form).value
        assert vc == pytest.approx(alpha * v1 + beta * v2,
                                   rel=1e-10, abs=1e-12)


# -- pullback ----------------------------------------------------------------


def test_pullback_identity(rng, adapted_worldline):
    pair = get("identity")
    form = random_test_form_along(rng, adapted_worldline)
    pulled = pull_back_test_form(form, pair)
    for _ in range(10):
        x = np.array([[
            form.box.center[i] + form.box.half[i] * rng.uniform(-0.9, 0.9)
            for i in range(4)
        ]])
        assert np.allclose(pulled.values_at(x), form.values_at(x),
                           atol=1e-14)


def test_pullback_linear_mixes_with_transpose(rng):
    from polekit.sampling import random_linear_pair

    pair = random_linear_pair(rng)
    M = pair.forward.jacobian_at(np.zeros((1, 4)))[0]
    center_hat = pair.forward.value_at(np.zeros((1, 4)))[0]
    form = random_test_form(rng, center_hat, (1.0, 1.0, 1.0, 1.0))
    pulled = pull_back_test_form(form, pair)
    for _ in range(10):
        x = rng.uniform(-0.2, 0.2, (1, 4))
        y = pair.forward.value_at(x)
        hatted = np.array(form.values_at(y)[0])
        expected = M.T @ hatted
        assert np.allclose(pulled.values_at(x)[0], expected, atol=1e-12)


def test_pullback_support_escape_raises():
    pair = get("cylindrical_to_cartesian")
    # a Cartesian box containing the spatial origin has no cylindrical
    # preimage on the chart domain
    form = make_test_form(
        (ex.const(1.0),) * 4, center=(0.0, 0.0, 0.0, 0.0),
        half_widths=(1.0, 1.0, 1.0, 1.0),
    )
    with pytest.raises(DomainError):
        pull_back_test_form(form, pair)


def test_pullback_pairing_invariance_all_kinds(rng, wobble_worldline):
    """Pairings against a hatted form equal pairings of the pulled-back
    form for monopole / dipole / quadrupole (transport done on the
    components where needed)."""
    from polekit.transport import transform_dipole, transform_quadrupole

    pair = get("cylindrical_to_cartesian")
    C = wobble_worldline
    hatC = C.push_through_chart(pair.forward)
    m = Monopole(1.3)
    d = random_dipole(rng)
    q = random_quadrupole(rng)
    dhat = transform_dipole(d, pair.forward, C)
    qhat = transform_quadrupole(q, pair.forward, C)
    for _ in range(3):
        form = random_test_form_along(rng, hatC, margin=0.25)
        pulled = pull_back_test_form(form, pair)
        pairs = [
            (pair_monopole(m, C, pulled).value,
             pair_monopole(m, hatC, form).value),
            (pair_dipole(d, C, pulled).value,
             pair_dipole(dhat, hatC, form).value),
            (pair_quadrupole(q, C, pulled).value,
             pair_quadrupole(qhat.gamma3_hat, hatC, form).value),
        ]
        for src, hat in pairs:
            assert abs(src - hat) <= 1e-6 * max(1.0, abs(src))


def test_bundle_pairing_sums_parts(rng, adapted_worldline):
    m = Monopole(0.7)
    d = random_dipole(rng)
    form = random_test_form_along(rng, adapted_worldline)
    bundle = SourceBundle(adapted_worldline, monopole=m, dipole=d)
    total = pair_bundle(bundle, form)
    parts = (
        pair_monopole(m, adapted_worldline, form).value
        + pair_dipole(d, adapted_worldline, form).value
    )
    assert total.value == pytest.approx(parts, rel=1e-12)


def test_floor_panels_reported_and_summed(rng, adapted_worldline,
                                          monkeypatch):
    """A pairing reports the floor panels of its quadrature, and a
    bundle pairing sums them over its parts."""
    real = pairing.integrate

    def floored(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), floor_panels=3)

    m = Monopole(0.7)
    d = random_dipole(rng)
    form = random_test_form_along(rng, adapted_worldline)
    bundle = SourceBundle(adapted_worldline, monopole=m, dipole=d)
    assert pair_bundle(bundle, form).floor_panels == 0
    monkeypatch.setattr(pairing, "integrate", floored)
    assert pair_monopole(m, adapted_worldline, form).floor_panels == 3
    assert pair_bundle(bundle, form).floor_panels == 6


def test_concurrent_pairing_is_deterministic(rng, wobble_worldline):
    """Containers and charts are immutable; the same pairing computed
    from several threads gives bit-identical results."""
    from concurrent.futures import ThreadPoolExecutor

    q = random_quadrupole(rng)
    form = random_test_form_along(rng, wobble_worldline)

    def work(_):
        return pair_quadrupole(q, wobble_worldline, form).value

    with ThreadPoolExecutor(max_workers=4) as pool:
        values = list(pool.map(work, range(8)))
    assert len(set(values)) == 1


def _fast_worldline(speed):
    return Worldline.from_exprs(
        (ex.Var(0), ex.mul(ex.const(speed), ex.Var(0)), 0.0, 0.0), (0.0, 10.0)
    )


def test_support_between_scan_samples_is_found():
    """A unit box that the worldline crosses between two of the coarse
    scan samples is still integrated, against mpmath at 30 digits."""
    import mpmath

    C = _fast_worldline(100.0)
    form = make_test_form([1, 1, 1, 1], (5.02, 502.0, 0.0, 0.0), (0.5,) * 4)
    r = pair_monopole(Monopole(1.0), C, form)

    def mbump(u):
        return mpmath.exp(-1 / (1 - u * u)) if abs(u) < 1 else mpmath.mpf(0)

    def integrand(t):
        # v = (1, 100, 0, 0) and every component of phi is the window.
        return (101 * mbump((t - mpmath.mpf(5.02)) * 2)
                * mbump((100 * t - mpmath.mpf(502.0)) * 2) * mbump(0) ** 2)

    # The support is tau in [5.015, 5.025], where x1 = 100 tau crosses it.
    with mpmath.workdps(30):
        ref = float(mpmath.quad(integrand, [5.015, 5.02, 5.025]))
    assert ref == pytest.approx(0.011162924485830596, rel=1e-14)
    assert r.nodes_used > 0
    assert abs(r.value - ref) <= 1e-10


def test_support_scan_too_fine_raises():
    """A box too narrow for the bounded rescan raises instead of
    returning 0."""
    C = _fast_worldline(1e6)
    form = make_test_form([1, 1, 1, 1], (5.02, 5.02e6, 0.0, 0.0), (0.5,) * 4)
    with pytest.raises(QuadratureError):
        pair_monopole(Monopole(1.0), C, form)
