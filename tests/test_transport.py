import math

import numpy as np
import pytest

from oracles import (
    central_difference,
    random_antisym_poly_grid,
    random_dipole,
    random_linear_pair,
    random_quadrupole,
    reparametrized as reparametrize,
)
from polekit import expr as ex
from polekit.charts import (
    Chart,
    compose_charts,
    cylindrical_to_cartesian_chart,
    get,
    linear_chart,
    lorentz_boost_chart,
    polynomial_chart,
)
from polekit.errors import DomainError, QuadratureError
from polekit.expr import tau_rows
from polekit.moments import (
    QuadrupoleComponents,
    embed_dipole_as_quadrupole,
    extract_dipole,
    make_static_dipole,
    sample_taus,
)
from polekit.pairing import (
    make_test_form,
    pair_dipole,
    pair_quadrupole,
    pull_back_test_form,
    random_test_form_along,
)
from polekit.transport import transform_dipole, transform_quadrupole
from polekit.worldlines import Worldline


def worked_example(kappa=1.0, interval=(0.0, 10.0)):
    quad = QuadrupoleComponents.from_dict({
        (2, 1, 1): ex.const(2 * kappa),
        (1, 2, 1): ex.const(-kappa),
        (1, 1, 2): ex.const(-kappa),
    })
    worldline = Worldline.static_at((1.0, 0.0, 0.0), interval)
    return quad, worldline, cylindrical_to_cartesian_chart()


# -- dipole transport ---------------------------------------------------------


def test_dipole_identity_chart(rng):
    d = random_dipole(rng)
    C = Worldline.static_at((0.5, 0.2, 0.0), (0.0, 3.0))
    dhat = transform_dipole(d, get("identity").forward, C)
    for t in np.linspace(0.1, 2.9, 7)[:, None]:
        assert np.allclose(dhat.values_at(t), d.values_at(t), atol=1e-13)


def test_dipole_rotation_moves_index():
    # rotate the (1,2) plane by pi/2: gamma[01] -> gamma_hat[02]
    R = np.eye(4)
    R[1, 1] = R[2, 2] = 0.0
    R[1, 2] = -1.0
    R[2, 1] = 1.0
    d = make_static_dipole((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    C = Worldline.static_at((0.0, 0.0, 0.0), (0.0, 1.0))
    dhat = transform_dipole(d, linear_chart(R), C)
    g = dhat.values_at(np.array([0.5]))[0]
    assert g[0, 2] == pytest.approx(1.0, abs=1e-14)
    assert g[2, 0] == pytest.approx(-1.0, abs=1e-14)
    assert abs(g[0, 1]) < 1e-14


def test_boosted_electric_dipole_gains_magnetic_part():
    # gamma[02] = p boosted along x1 picks up gamma_hat[12] = -g v p
    v, p = 0.6, 1.0
    g = 1 / math.sqrt(1 - v * v)
    d = make_static_dipole((0.0, p, 0.0), (0.0, 0.0, 0.0))
    C = Worldline.static_at((0.0, 0.0, 0.0), (0.0, 1.0))
    dhat = transform_dipole(d, lorentz_boost_chart(v), C)
    got = dhat.values_at(np.array([0.3]))[0]
    # hand-applied boost: gamma_hat = L gamma L^T
    L = np.eye(4)
    L[0, 0] = L[1, 1] = g
    L[0, 1] = L[1, 0] = -g * v
    expected = L @ d.values_at(np.array([0.3]))[0] @ L.T
    assert np.allclose(got, expected, atol=1e-13)
    assert abs(got[1, 2]) > 0.1  # magnetic entry appeared


def test_dipole_transport_preserves_antisymmetry(rng, wobble_worldline):
    d = random_dipole(rng)
    dhat = transform_dipole(d, cylindrical_to_cartesian_chart(),
                            wobble_worldline)
    (anti,), _ = dhat.residuals(sample_taus(wobble_worldline.interval, n=20))
    assert anti < 1e-12


# -- worked example -----------------------------------------------------------


def test_worked_example_integrand_is_kappa():
    kappa = 1.0
    quad, C, chart = worked_example(kappa)
    tr = transform_quadrupole(quad, chart, C)
    for t in np.linspace(0.0, 10.0, 21):
        M = tr.P.deriv_matrix_at(np.array([t]))[0]
        assert M[1, 2] == pytest.approx(kappa, abs=1e-13)
        assert M[2, 1] == pytest.approx(-kappa, abs=1e-13)
        M[1, 2] = M[2, 1] = 0.0
        assert np.max(np.abs(M)) < 1e-13


def test_worked_example_integrand_position_independent():
    # the integrand stays exactly kappa for any rest position (r, theta)
    kappa = 0.8
    quad = QuadrupoleComponents.from_dict({
        (2, 1, 1): ex.const(2 * kappa),
        (1, 2, 1): ex.const(-kappa),
        (1, 1, 2): ex.const(-kappa),
    })
    chart = cylindrical_to_cartesian_chart()
    for r0, th0 in ((1.0, 0.0), (2.5, 0.9), (0.7, -1.2)):
        C = Worldline.static_at((r0, th0, 0.3), (0.0, 2.0))
        tr = transform_quadrupole(quad, chart, C)
        assert tr.P.deriv_matrix_at(np.ones(1))[0, 1, 2] == pytest.approx(
            kappa, abs=1e-12
        )


def test_worked_example_components_and_dipole_part():
    kappa, kappa0 = 1.0, 0.0
    quad, C, chart = worked_example(kappa)
    tr = transform_quadrupole(quad, chart, C)
    for t in np.linspace(0.5, 9.5, 20):
        val = kappa * t + kappa0
        t = np.array([t])
        assert tr.P.matrix_at(t)[0, 1, 2] == pytest.approx(val, abs=1e-9)
        assert tr.gamma3_hat[1, 2, 0](t)[0] == pytest.approx(val, abs=1e-9)
        assert tr.gamma3_hat[1, 0, 2](t)[0] == pytest.approx(val, abs=1e-9)
        assert tr.gamma3_hat[2, 1, 0](t)[0] == pytest.approx(-val, abs=1e-9)
        # the transformation law leaves the (0,1,2)-slot component zero
        assert tr.gamma3_hat[0, 1, 2](t)[0] == pytest.approx(0.0, abs=1e-12)
        assert tr.gamma2_hat[1, 2](t)[0] == pytest.approx(kappa, abs=1e-9)


def test_worked_example_kappa0_offset():
    kappa = 1.0
    kappa0 = np.zeros((4, 4))
    kappa0[1, 2] = 0.7
    kappa0[2, 1] = -0.7
    quad, C, chart = worked_example(kappa)
    tr = transform_quadrupole(quad, chart, C, kappa0=kappa0)
    t = 4.0
    assert tr.P.matrix_at(np.array([t]))[0, 1, 2] == pytest.approx(
        kappa * t + 0.7, abs=1e-9)
    # the dipole part is unchanged by the constant
    d = tr.gamma2_hat
    assert d[1, 2](np.array([t]))[0] == pytest.approx(kappa, abs=1e-9)


def test_nan_component_value_in_the_integral_term_raises(monkeypatch):
    """One NaN component value read by the integral term's integrand
    stops the transport, naming the tau, instead of giving a P with a
    NaN error estimate."""
    quad, C, chart = worked_example()
    values_at = QuadrupoleComponents.values_at
    first = []

    def poisoned(self, taus):
        first.append(taus[0])
        out = values_at(self, taus)
        out[0, 2, 1, 1] = np.nan
        return out

    monkeypatch.setattr(QuadrupoleComponents, "values_at", poisoned)
    with pytest.raises(QuadratureError) as err:
        transform_quadrupole(quad, chart, C)
    assert len(first) == 1
    assert str(err.value) == (
        f"integral term through {chart.label!r}: non-finite integrand "
        f"value at tau={first[0]}")


def test_kappa0_must_be_antisymmetric():
    quad, C, chart = worked_example()
    bad = np.zeros((4, 4))
    bad[1, 2] = 1.0
    with pytest.raises(DomainError):
        transform_quadrupole(quad, chart, C, kappa0=bad)


def test_kappa0_is_judged_relative_to_its_largest_entry():
    """kappa0 follows the rule of component dictionaries: a residual of
    about 1e-9 on entries of 1e6 passes, one of 1 fails."""
    quad, C, chart = worked_example()
    kappa0 = np.zeros((4, 4))
    kappa0[1, 2] = 1e6
    kappa0[2, 1] = -(1e6 + 1e-9)
    assert kappa0[1, 2] + kappa0[2, 1] != 0.0
    transform_quadrupole(quad, chart, C, kappa0=kappa0)
    kappa0[2, 1] = -(1e6 - 1.0)
    with pytest.raises(DomainError, match="must be antisymmetric"):
        transform_quadrupole(quad, chart, C, kappa0=kappa0)


@pytest.mark.parametrize("entry", [np.nan, 1e308])
def test_kappa0_that_is_nan_or_overflows_is_rejected(entry):
    """A NaN kappa0, or one whose antisymmetry residual overflows, fails
    the check with no warning."""
    quad, C, chart = worked_example()
    bad = np.zeros((4, 4))
    bad[1, 2] = bad[2, 1] = entry
    with pytest.raises(DomainError, match="must be antisymmetric"):
        transform_quadrupole(quad, chart, C, kappa0=bad)


# -- linear charts: purely tensorial -----------------------------------------


def test_linear_chart_kills_integral_term(rng):
    for _ in range(10):
        pair = random_linear_pair(rng)
        q = random_quadrupole(rng)
        C = Worldline.static_at((0.3, -0.2, 0.5), (0.0, 2.0))
        tr = transform_quadrupole(q, pair.forward, C)
        for t in np.array([[0.0], [0.7], [1.4], [2.0]]):
            assert np.max(np.abs(tr.P.matrix_at(t))) <= 1e-12
        # independent contraction oracle
        A = pair.forward.jacobian_at(np.zeros((1, 4)))[0]
        for t in np.array([[0.3], [1.1], [1.9]]):
            expected = np.einsum("da,eb,fc,abc->def", A, A, A,
                                 q.values_at(t)[0])
            got = np.array([
                [[tr.gamma3_hat[d, e, f](t)[0] for f in range(4)]
                 for e in range(4)]
                for d in range(4)
            ])
            scale = max(1.0, np.max(np.abs(expected)))
            assert np.max(np.abs(got - expected)) <= 1e-12 * scale


def test_linear_chart_dipole_part_vanishes(rng):
    pair = random_linear_pair(rng)
    q = random_quadrupole(rng)
    C = Worldline.static_at((0.0, 0.0, 0.0), (0.0, 2.0))
    tr = transform_quadrupole(q, pair.forward, C)
    for t in np.array([[0.2], [1.0], [1.8]]):
        assert np.max(np.abs(tr.gamma2_hat.values_at(t))) <= 1e-12


# -- invariants of the transported components --------------------------------


def test_transported_symmetries_hold(rng, wobble_worldline):
    q = random_quadrupole(rng)
    kappa0 = np.zeros((4, 4))
    kappa0[0, 3] = 1.3
    kappa0[3, 0] = -1.3
    tr = transform_quadrupole(q, cylindrical_to_cartesian_chart(),
                              wobble_worldline, kappa0=kappa0)
    taus = sample_taus(wobble_worldline.interval, n=50)
    (pair_r, cyc_r), largest = tr.gamma3_hat.residuals(taus)
    scale = max(1.0, largest)
    assert pair_r <= 1e-10 * scale
    assert cyc_r <= 1e-10 * scale


def test_integrand_antisymmetry(rng, wobble_worldline):
    q = random_quadrupole(rng)
    tr = transform_quadrupole(q, cylindrical_to_cartesian_chart(),
                              wobble_worldline)
    for t in np.linspace(0.0, 6.0, 13):
        M = tr.P.deriv_matrix_at(np.array([t]))[0]
        assert np.max(np.abs(M + M.T)) <= 1e-12


def test_singular_chart_raises():
    comps = (ex.Var(0), ex.Mul(ex.Var(1), ex.Var(1)), ex.Var(2), ex.Var(3))
    pinch = Chart(comps, "pinch")
    q = QuadrupoleComponents.from_dict({(1, 2, 3): ex.const(1.0),
                                        (1, 3, 2): ex.const(1.0),
                                        (2, 3, 1): ex.const(-0.5),
                                        (2, 1, 3): ex.const(-0.5),
                                        (3, 1, 2): ex.const(-0.5),
                                        (3, 2, 1): ex.const(-0.5)})
    C = Worldline.static_at((0.0, 0.0, 0.0), (0.0, 1.0))  # x1 = 0: singular
    with pytest.raises(DomainError):
        transform_quadrupole(q, pinch, C)


def _near_identity_polynomial_chart():
    c = np.zeros((4, 15))
    c[:, 1:5] = np.eye(4)
    c[:, 5:] = 0.05 * np.random.default_rng(41).uniform(-1, 1, (4, 10))
    return polynomial_chart(c.reshape(-1))


_CHARTS = {
    "cylindrical": cylindrical_to_cartesian_chart,
    "boost": lambda: lorentz_boost_chart(0.6),
    "polynomial": _near_identity_polynomial_chart,
}


@pytest.mark.parametrize("reparametrized", (False, True),
                         ids=("tau", "tau_hat"))
@pytest.mark.parametrize("chart_name", sorted(_CHARTS))
def test_transported_values_and_derivatives(rng, wobble_worldline,
                                            chart_name, reparametrized):
    """gamma3_hat against the module docstring's law, written out with
    one four-operand contraction, and its derivative against a
    Richardson-extrapolated central difference of its values.  The
    source is given in tau or in a new parameter tau_hat: the transport
    of the reparametrized source is the law at tau(tau_hat) times
    dtau/dtau_hat, with its own P."""
    C = wobble_worldline
    chart = _CHARTS[chart_name]()
    q = random_quadrupole(rng, directions=8)
    kappa0 = np.zeros((4, 4))
    kappa0[np.triu_indices(4, 1)] = (0.4, -1.1, 0.3, 0.9, -0.2, 0.7)
    kappa0 -= kappa0.T
    ths = taus = np.linspace(*C.interval, 9)[1:-1]
    speed = np.ones_like(ths)
    source, q_source = C, q
    if reparametrized:
        # tau = tau_hat / 2 + tau_hat^2 / 4 maps [0, 4] onto [0, 6]
        tau_of = ex.parse("0.5*tau + 0.25*tau*tau", ex.TAU_VARS)
        source, q_source = reparametrize(C, q, tau_of, (0.0, 4.0))
        ths = np.linspace(0.0, 4.0, 9)[1:-1]
        taus, speed = (tau_rows(ex.Program([tau_of]), ths, k)[:, 0] for k in (0, 1))
    tr = transform_quadrupole(q_source, chart, source, kappa0=kappa0)

    A = chart.jacobian_at(C.point_at(taus))
    vhat = np.einsum("nab,nb->na", A, C.velocity_at(taus))
    Pm = tr.P.matrix_at(ths)
    if reparametrized:
        # P depends on the curve, not on its parameter.
        P_tau = transform_quadrupole(q, chart, C, kappa0=kappa0).P
        assert np.max(np.abs(Pm - P_tau.matrix_at(taus))) <= 1e-8
    expected = speed[:, None, None, None] * (
        np.einsum("nda,neb,nfc,nabc->ndef", A, A, A, q.values_at(taus))
        + np.einsum("nde,nf->ndef", Pm, vhat)
        + np.einsum("ndf,ne->ndef", Pm, vhat))
    got = tr.gamma3_hat.values_at(ths)
    assert np.max(np.abs(got - expected)) <= (
        1e-13 * np.max(np.abs(expected)))

    def central(h):
        return (tr.gamma3_hat.values_at(ths + h)
                - tr.gamma3_hat.values_at(ths - h)) / (2 * h)

    h = 1e-2
    fd = (4.0 * central(h / 2) - central(h)) / 3.0
    derivs = tr.gamma3_hat.derivs_at(ths)
    assert np.max(np.abs(derivs - fd)) <= 1e-7 * max(1.0, np.max(np.abs(fd)))


# -- pairing-level properties -------------------------------------------------


def test_kappa0_never_affects_pairings(rng, wobble_worldline):
    q = random_quadrupole(rng)
    chart_pair = get("cylindrical_to_cartesian")
    C = wobble_worldline
    results = {}
    for label, entries in (("zero", 0.0), ("one", 1.0), ("minus5", -5.0)):
        kappa0 = np.zeros((4, 4))
        for d in range(4):
            for e in range(d + 1, 4):
                kappa0[d, e] = entries
                kappa0[e, d] = -entries
        tr = transform_quadrupole(q, chart_pair.forward, C, kappa0=kappa0)
        results[label] = tr
    rng2 = np.random.default_rng(5)
    for _ in range(5):
        form = random_test_form_along(rng2, results["zero"].worldline_hat)
        vals = [
            pair_quadrupole(results[k].gamma3_hat,
                            results[k].worldline_hat, form).value
            for k in ("zero", "one", "minus5")
        ]
        ref = vals[0]
        for v in vals[1:]:
            assert abs(v - ref) <= 1e-9 * max(1.0, abs(ref))


def test_composition_coherence(rng, wobble_worldline):
    """One transport through the composed chart pairs like two staged
    transports (component arrays may differ by a distributionally null
    constant-p embedding)."""
    C = wobble_worldline
    q = random_quadrupole(rng)
    cyl = cylindrical_to_cartesian_chart()
    M = np.eye(4) + 0.25 * rng.uniform(-1, 1, (4, 4))
    lin = linear_chart(M)
    composed = compose_charts(lin, cyl)

    tr_one = transform_quadrupole(q, composed, C)
    tr_a = transform_quadrupole(q, cyl, C)
    tr_b = transform_quadrupole(tr_a.gamma3_hat, lin, tr_a.worldline_hat)
    C_final = tr_b.worldline_hat
    rng2 = np.random.default_rng(17)
    for _ in range(4):
        form = random_test_form_along(rng2, C_final)
        one = pair_quadrupole(tr_one.gamma3_hat, tr_one.worldline_hat,
                              form).value
        two = pair_quadrupole(tr_b.gamma3_hat, C_final, form).value
        assert abs(one - two) <= 1e-6 * max(1.0, abs(one))


def test_embedding_commutes_with_transport(rng, wobble_worldline):
    """Transporting an embedded dipole pairs like the transported
    extracted dipole."""
    C = wobble_worldline
    p = random_antisym_poly_grid(rng, degree=2)
    chart = cylindrical_to_cartesian_chart()
    quad = embed_dipole_as_quadrupole(p, C)
    tr = transform_quadrupole(quad, chart, C)
    dip_hat = transform_dipole(extract_dipole(p), chart, C)
    rng2 = np.random.default_rng(23)
    for _ in range(4):
        form = random_test_form_along(rng2, tr.worldline_hat)
        a = pair_quadrupole(tr.gamma3_hat, tr.worldline_hat, form).value
        b = pair_dipole(dip_hat, tr.worldline_hat, form).value
        assert abs(a - b) <= 1e-6 * max(1.0, abs(a))


def test_pairing_invariance_spot_check(rng, wobble_worldline):
    """Chart invariance of the quadrupole pairing through the
    cylindrical pair (the full sweep lives in the acceptance suite)."""
    C = wobble_worldline
    q = random_quadrupole(rng)
    chart_pair = get("cylindrical_to_cartesian")
    tr = transform_quadrupole(q, chart_pair.forward, C)
    for _ in range(4):
        form_hat = random_test_form_along(rng, tr.worldline_hat)
        hat = pair_quadrupole(tr.gamma3_hat, tr.worldline_hat, form_hat).value
        src = pair_quadrupole(
            q, C, pull_back_test_form(form_hat, chart_pair)
        ).value
        assert abs(hat - src) <= 1e-6 * max(1.0, abs(src))


def test_quadrupole_transport_with_reparametrization(rng):
    """The full law with a parameter change: the source given in tau_hat
    (tau = tau_hat^2) transports to pairings along its image worldline
    that match the pairings of the source in tau."""
    C = Worldline(
        (ex.Var(0), ex.parse("1 + 0.1*sin(tau)", ex.TAU_VARS),
         ex.parse("0.2*cos(0.6*tau)", ex.TAU_VARS), ex.const(0.0)),
        (0.25, 4.0),
    )
    q = random_quadrupole(rng)
    C_rep, q_rep = reparametrize(
        C, q, ex.Mul(ex.Var(0), ex.Var(0)), (0.5, 2.0))
    chart = cylindrical_to_cartesian_chart()
    tr = transform_quadrupole(q_rep, chart, C_rep)
    hatC = tr.worldline_hat
    assert hatC.interval == (0.5, 2.0)
    rng2 = np.random.default_rng(31)
    for _ in range(3):
        form = random_test_form_along(rng2, hatC)
        hat = pair_quadrupole(tr.gamma3_hat, hatC, form).value
        src = pair_quadrupole(
            q, C, pull_back_test_form(form, get("cylindrical_to_cartesian"))
        ).value
        assert abs(hat - src) <= 1e-6 * max(1.0, abs(src))



# Two fixed product forms near the image worldline (tau, 1, 0, 0):
# (phi_1, phi_2 polynomials, box center, box half-widths), with
# phi_0 = phi_3 = 0.  The polynomials are Python functions of the four
# coordinates, so the same formula builds a polekit expression and an
# mpmath value.
_ORACLE_FORMS = (
    (("1 + x0 * x2 + 0.5 * x1", "x1 * x1 - 0.3 * x0 + x2"),
     (5.0, 1.1, 0.05, -0.02), (1.5, 0.6, 0.5, 0.5)),
    (("x0 * x1 - x2 * x2", "0.7 + x0 * x2 - x1 * x2"),
     (3.2, 0.8, -0.1, 0.1), (0.9, 0.5, 0.4, 0.3)),
)


def test_worked_example_pairing_against_mpmath():
    """pair_quadrupole of the transported worked example against an
    oracle that uses no polekit numerics: the closed-form hatted
    components gamma[120] = gamma[102] = tau, gamma[210] = gamma[201] =
    -tau, gamma[211] = 2, gamma[121] = gamma[112] = -1 (kappa = 1) on the
    image worldline (tau, 1, 0, 0), second derivatives of the form taken
    symbolically by sympy, and mpmath.quad at 30 digits."""
    import mpmath
    import sympy as sp

    quad, C, chart = worked_example()
    tr = transform_quadrupole(quad, chart, C)
    x = sp.symbols("x0:4")
    for (p1, p2), center, half in _ORACLE_FORMS:
        form = make_test_form([0, ex.parse(p1, ex.CHART_VARS),
                               ex.parse(p2, ex.CHART_VARS), 0], center, half)
        got = pair_quadrupole(tr.gamma3_hat, tr.worldline_hat, form)

        # Exact rationals keep |u| < 1 at every mpmath node inside the box.
        window = sp.Mul(*(
            sp.exp(-1 / (1 - ((xb - sp.Rational(cb)) / sp.Rational(hb)) ** 2))
            for xb, cb, hb in zip(x, center, half)))
        phi1, phi2 = (sp.sympify(p, locals=dict(zip(map(str, x), x)))
                      * window for p in (p1, p2))
        # (1/2) gamma[abc] d_b d_c phi_a with tau = x0 on the worldline
        density = (x[0] * sp.diff(phi1, x[0], x[2])
                   - x[0] * sp.diff(phi2, x[0], x[1])
                   + sp.diff(phi2, x[1], 2)
                   - sp.diff(phi1, x[1], x[2]))
        along = sp.lambdify(
            x[0], density.subs({x[1]: 1, x[2]: 0, x[3]: 0}), "mpmath")
        with mpmath.workdps(30):
            c0, h0 = mpmath.mpf(center[0]), mpmath.mpf(half[0])
            ref = float(mpmath.quad(along, [c0 - h0, c0, c0 + h0]))
        assert math.isfinite(ref) and got.nodes_used > 0
        assert abs(got.value - ref) <= 1e-10 * max(1.0, abs(ref)), (
            got.value, ref)


def test_transported_dipole_derivative_matches_central_differences(
        rng, wobble_worldline):
    """The tau derivative rule of a dipole moved through a nonlinear chart
    along a moving worldline agrees with central differences of its
    values."""
    chart = get("cylindrical_to_cartesian").forward
    dhat = transform_dipole(random_dipole(rng), chart, wobble_worldline)
    taus = np.linspace(0.5, 5.5, 7)
    exact = dhat.derivs_at(taus)
    fd = central_difference(dhat, taus)
    assert np.max(np.abs(exact - fd)) <= 1e-6 * np.max(np.abs(exact))
