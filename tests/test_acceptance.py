"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance
and prints a PASS/FAIL line (run with ``pytest tests/test_acceptance.py
-v -s`` to see the lines as they happen).
"""

import time

import numpy as np

from oracles import (
    fd_gradient,
    fd_hessian,
    random_antisym_poly_grid,
    random_dipole,
    random_linear_pair,
    random_quadrupole,
    random_safe_expression,
    static_dipole_vectors,
)
from polekit import expr as ex
from polekit.charts import cylindrical_to_cartesian_chart, get, lorentz_boost_chart
from polekit.classify import (
    charge_probe_variations,
    extract_charge,
    test_electric_order as probe_electric_order,
    test_order as probe_order,
)
from polekit.errors import EvaluationError
from polekit.jets import Jet2, full_hessian
from polekit.moments import (
    AdaptedCoefficients,
    Monopole,
    QuadrupoleComponents,
    component_rank,
    embed_dipole_as_quadrupole,
    extract_dipole,
    gamma_from_zeta,
    make_electric_quadrupole,
    make_toroidal_quadrupole,
    sample_taus,
    zeta_from_gamma,
)
from polekit.fields import StaticSource, falloff_exponent
from polekit.pairing import (
    SourceBundle,
    pair_dipole,
    pair_monopole,
    pair_quadrupole,
    pull_back_test_form,
    random_test_form_along,
)
from polekit.transport import transform_dipole, transform_quadrupole
from polekit.worldlines import Worldline


def _report(n, desc, ok, detail=""):
    line = f"ACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def worked_example_transport(kappa=1.0, kappa0=None):
    quad = QuadrupoleComponents.from_dict({
        (2, 1, 1): ex.const(2 * kappa),
        (1, 2, 1): ex.const(-kappa),
        (1, 1, 2): ex.const(-kappa),
    })
    C = Worldline.static_at((1.0, 0.0, 0.0), (0.0, 10.0))
    return transform_quadrupole(
        quad, cylindrical_to_cartesian_chart(), C, kappa0=kappa0)


def test_criterion_1_worked_example():
    start = time.monotonic()
    tr = worked_example_transport()
    worst = 0.0
    for t in np.linspace(0.25, 9.75, 20)[:, None]:
        worst = max(worst, abs(tr.P.matrix_at(t)[0, 1, 2] - t[0]))
        worst = max(worst, abs(tr.gamma3_hat[1, 2, 0](t)[0] - t[0]))
        worst = max(worst, abs(tr.gamma3_hat[1, 0, 2](t)[0] - t[0]))
        worst = max(worst, abs(tr.gamma2_hat[1, 2](t)[0] - 1.0))
        # the transformation law stores the growing value at the
        # {1,2,0} index set; the (0,1,2)-slot component stays zero
        worst = max(worst, abs(tr.gamma3_hat[0, 1, 2](t)[0]))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(
        1,
        "worked example: P[12] = tau, growing component = tau, "
        "dipole part = kappa",
        ok,
        f"residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_pairing_invariance():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    C = Worldline(
        (
            ex.Var(0),
            ex.parse("1 + 0.2*sin(0.7*tau)", ex.TAU_VARS),
            ex.parse("0.3*cos(0.5*tau)", ex.TAU_VARS),
            ex.parse("0.1*tau", ex.TAU_VARS),
        ),
        (0.0, 6.0),
    )
    chart_pairs = [
        ("random linear", random_linear_pair(rng)),
        ("boost v=0.6", get("lorentz_boost", [0.6])),
        ("cylindrical", get("cylindrical_to_cartesian")),
    ]
    m = Monopole(1.3)
    d = random_dipole(rng, degree=2, scale=0.8)
    q = random_quadrupole(rng, degree=2, scale=0.8)
    worst = 0.0
    for label, pair in chart_pairs:
        hatC = C.push_through_chart(pair.forward)
        dhat = transform_dipole(d, pair.forward, C)
        qhat = transform_quadrupole(q, pair.forward, C)
        for _ in range(20):
            form = random_test_form_along(rng, hatC)
            pulled = pull_back_test_form(form, pair)
            checks = (
                (pair_monopole(m, C, pulled).value,
                 pair_monopole(m, hatC, form).value),
                (pair_dipole(d, C, pulled).value,
                 pair_dipole(dhat, hatC, form).value),
                (pair_quadrupole(q, C, pulled).value,
                 pair_quadrupole(qhat.gamma3_hat, hatC, form).value),
            )
            for src, hat in checks:
                worst = max(worst,
                            abs(src - hat) / max(1.0, abs(src)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(
        2,
        "pairing invariance across 3 chart pairs x 3 kinds x 20 forms",
        ok,
        f"worst residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_linear_tensoriality():
    rng = np.random.default_rng(3)
    C = Worldline.static_at((0.4, -0.3, 0.2), (0.0, 2.0))
    worst_p = 0.0
    worst_t = 0.0
    for _ in range(10):
        pair = random_linear_pair(rng)
        q = random_quadrupole(rng)
        tr = transform_quadrupole(q, pair.forward, C)
        A = pair.forward.jacobian_at(np.zeros((1, 4)))[0]
        for t in np.linspace(0.0, 2.0, 5)[:, None]:
            worst_p = max(worst_p, float(np.max(np.abs(tr.P.matrix_at(t)))))
        for t in np.array([[0.3], [1.1], [1.9]]):
            expected = np.einsum("da,eb,fc,abc->def", A, A, A,
                                 q.values_at(t)[0])
            got = np.array([
                [[tr.gamma3_hat[dd, ee, ff](t)[0] for ff in range(4)]
                 for ee in range(4)]
                for dd in range(4)
            ])
            scale = max(1.0, float(np.max(np.abs(expected))))
            worst_t = max(worst_t,
                          float(np.max(np.abs(got - expected))) / scale)
    ok = worst_p <= 1e-12 and worst_t <= 1e-12
    _report(
        3,
        "linear charts: integral term vanishes, transport is the "
        "triple-Jacobian contraction",
        ok,
        f"P {worst_p:.2e}, tensorial {worst_t:.2e}",
    )


def test_criterion_4_dipole_embedding():
    rng = np.random.default_rng(4)
    C = Worldline.static_at((0.0, 0.0, 0.0), (0.0, 4.0))
    worst = 0.0
    for _ in range(10):
        p = random_antisym_poly_grid(rng, degree=2)
        quad = embed_dipole_as_quadrupole(p, C)
        dip = extract_dipole(p)
        form = random_test_form_along(rng, C)
        a = pair_quadrupole(quad, C, form).value
        b = pair_dipole(dip, C, form).value
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    ok = worst <= 1e-8
    _report(
        4,
        "embedded dipole pairs like the derivative dipole "
        "(10 random polynomial p)",
        ok,
        f"worst residual {worst:.2e}",
    )


def test_criterion_5_kappa0_independence():
    rng = np.random.default_rng(5)
    C = Worldline(
        (
            ex.Var(0),
            ex.parse("1 + 0.2*sin(0.7*tau)", ex.TAU_VARS),
            ex.parse("0.3*cos(0.5*tau)", ex.TAU_VARS),
            ex.const(0.0),
        ),
        (0.0, 6.0),
    )
    q = random_quadrupole(rng)
    chart = cylindrical_to_cartesian_chart()
    transports = []
    for fill in (0.0, 1.0, -5.0):
        kappa0 = np.zeros((4, 4))
        for dd in range(4):
            for ee in range(dd + 1, 4):
                kappa0[dd, ee] = fill
                kappa0[ee, dd] = -fill
        transports.append(transform_quadrupole(q, chart, C, kappa0=kappa0))
    hatC = transports[0].worldline_hat
    worst = 0.0
    for _ in range(5):
        form = random_test_form_along(rng, hatC)
        vals = [
            pair_quadrupole(tr.gamma3_hat, hatC, form).value
            for tr in transports
        ]
        for v in vals[1:]:
            worst = max(worst, abs(v - vals[0]) / max(1.0, abs(vals[0])))
    ok = worst <= 1e-9
    _report(
        5,
        "integration constant never affects pairings "
        "(kappa0 in {0, 1, -5})",
        ok,
        f"worst residual {worst:.2e}",
    )


def test_criterion_6_symmetry_preservation():
    rng = np.random.default_rng(6)
    C = Worldline(
        (
            ex.Var(0),
            ex.parse("1 + 0.2*sin(0.7*tau)", ex.TAU_VARS),
            ex.parse("0.3*cos(0.5*tau)", ex.TAU_VARS),
            ex.parse("0.1*tau", ex.TAU_VARS),
        ),
        (0.0, 6.0),
    )
    charts = [
        ("random linear", random_linear_pair(rng).forward),
        ("boost v=0.6", lorentz_boost_chart(0.6)),
        ("cylindrical", cylindrical_to_cartesian_chart()),
    ]
    q = random_quadrupole(rng)
    worst = 0.0
    for label, chart in charts:
        tr = transform_quadrupole(q, chart, C)
        taus = sample_taus(C.interval, n=50, seed=6)
        (pair_r, cyc_r), largest = tr.gamma3_hat.residuals(taus)
        scale = max(1.0, largest)
        worst = max(worst, pair_r / scale, cyc_r / scale)
    ok = worst <= 1e-10
    _report(
        6,
        "transported components satisfy both symmetry constraints at "
        "50 sampled parameters per chart",
        ok,
        f"worst residual {worst:.2e}",
    )


def test_criterion_7_charge_behavior():
    rng = np.random.default_rng(7)
    C = Worldline.static_at((0.0, 0.0, 0.0), (0.0, 4.0))
    mono = SourceBundle(C, monopole=Monopole(3.0))
    worst_q = max(
        abs(extract_charge(mono, p) - 3.0)
        for p in charge_probe_variations(C, n=5, seed=7)
    )
    dip = SourceBundle(C, dipole=random_dipole(rng))
    quad = SourceBundle(C, quadrupole=random_quadrupole(rng))
    worst_zero = max(
        max(abs(extract_charge(b, p))
            for p in charge_probe_variations(C, n=5, seed=8))
        for b in (dip, quad)
    )
    ok = worst_q <= 1e-8 and worst_zero <= 1e-8
    _report(
        7,
        "extracted charge: q for monopoles, 0 for pure dipoles and "
        "quadrupoles, stable across 5 probe choices",
        ok,
        f"monopole dev {worst_q:.2e}, residual charge {worst_zero:.2e}",
    )


def test_criterion_8_classification():
    rng = np.random.default_rng(8)
    C = Worldline.static_at((0.0, 0.0, 0.0), (0.0, 4.0))
    dip = SourceBundle(C, dipole=random_dipole(rng))
    quad = SourceBundle(C, quadrupole=random_quadrupole(rng))
    qgrid = [[ex.const(0.0)] * 4 for _ in range(4)]
    qgrid[1][1] = ex.parse("1 + 0.2*tau", ex.TAU_VARS)
    qgrid[2][3] = ex.const(0.7)
    eq = SourceBundle(C, quadrupole=make_electric_quadrupole(qgrid, C))
    spatial = SourceBundle(
        C, quadrupole=make_toroidal_quadrupole((0.4, -1.0, 0.7))
    )
    checks = []
    checks.append(("dipole order<=1", probe_order(dip, 1, seed=8).passed))
    rep_d0 = probe_order(dip, 0, seed=8)
    checks.append(("dipole order 0 refuted",
                   (not rep_d0.passed)
                   and rep_d0.max_residual >= rep_d0.fail_threshold))
    checks.append(("quadrupole order<=2", probe_order(quad, 2, seed=8).passed))
    checks.append(("electric quadrupole elec<=2",
                   probe_electric_order(eq, 2, seed=8).passed))
    rep_sp = probe_electric_order(spatial, 2, seed=8)
    checks.append(("spatial-only elec 2 refuted",
                   (not rep_sp.passed)
                   and rep_sp.max_residual >= rep_sp.fail_threshold))
    checks.append(("dipole elec<=2",
                   probe_electric_order(dip, 2, seed=8).passed))
    ok = all(passed for _, passed in checks)
    failed = ", ".join(name for name, passed in checks if not passed)
    _report(
        8,
        "order and electric-order classification incl. refutations",
        ok,
        failed or "all six checks",
    )


def test_criterion_9_hierarchy_dimensions():
    dims = (
        component_rank("electric_dipole_mod_gauge"),
        component_rank("dipole"),
        component_rank("electric_quadrupole_mod_gauge"),
        component_rank("quadrupole"),
    )
    ok = dims == (3, 6, 12, 20)
    _report(9, "hierarchy dimensions 3 < 6 < 12 < 20", ok, f"got {dims}")


def test_criterion_10_falloffs():
    direction = (0.3, 0.5, 1.0)
    sources = [
        (StaticSource("monopole", 2.0), -1.0),
        (StaticSource("electric_dipole", (0.4, -1.0, 0.3)), -2.0),
        (StaticSource("magnetic_dipole", (0.0, 0.7, 1.0)), -2.0),
        (StaticSource("electric_quadrupole",
                      [[1.0, 0.2, 0.0], [0.2, -0.5, 0.0],
                       [0.0, 0.0, -0.5]]), -3.0),
        (StaticSource(
            "magnetic_quadrupole",
            make_toroidal_quadrupole((0.0, 0.0, 1.0)).values_at(
                np.zeros(1))[0, 1:, 1:, 1:],
        ), -3.0),
    ]
    worst = 0.0
    for source, expected in sources:
        e = falloff_exponent(source, direction)
        worst = max(worst, abs(e - expected))
    # the transported object's emergent dipole falls off as r^-2
    tr = worked_example_transport()
    _, p_md = static_dipole_vectors(tr.gamma2_hat, tau=5.0)
    e = falloff_exponent(StaticSource("magnetic_dipole", p_md),
                         (0.2, 0.4, 1.0))
    worst = max(worst, abs(e + 2.0))
    ok = worst <= 0.01
    _report(
        10,
        "potential falloff exponents -1/-2/-3 per kind and -2 for the "
        "transported object's dipole part",
        ok,
        f"worst deviation {worst:.4f}",
    )


def test_criterion_11_coefficient_dictionary():
    rng = np.random.default_rng(11)
    C = Worldline.static_at((0.0, 0.0, 0.0), (0.0, 4.0))
    q = random_quadrupole(rng)
    m = Monopole(-0.7)
    z = zeta_from_gamma(m, q, C)
    t0 = C.interval[0]
    g0 = q.values_at(np.array([t0]))[0]
    constants = {
        "v00": [g0[mu, 0, 0] for mu in (1, 2, 3)],
        "spatial_time": [
            0.5 * (g0[n, mm, 0] - g0[mm, n, 0])
            for (n, mm) in ((1, 2), (1, 3), (2, 3))
        ],
    }
    m2, q2 = gamma_from_zeta(z, constants=constants)
    worst = max(
        float(np.max(np.abs(q.values_at(t) - q2.values_at(t))))
        for t in np.linspace(0.1, 3.9, 11)[:, None]
    )
    round_trip_ok = worst <= 1e-10 and abs(m2.q - m.q) <= 1e-12

    accepts_valid = z.is_closed()[0]

    # single violations must each be rejected, with the right family
    def shifted(zz, row, f, df):
        """zz with coefficient ``row`` (of the 40, in family order)
        shifted by the function of tau ``f`` with tau derivative ``df``:
        one more source column, weighted 1 on that row."""
        extra = (f, df, np.zeros_like)
        fields = [
            None if fld is None
            else (lambda t, fld=fld, g=g: np.column_stack([fld(t), g(t)]))
            for fld, g in zip(zz.fields, extra)
        ]
        w = np.zeros((3, 40, 1))
        w[0, row, 0] = 1.0
        return AdaptedCoefficients(
            fields, np.concatenate([zz.weights, w], axis=2), zz.interval)

    def violated(row, f, df, family):
        z2 = shifted(zeta_from_gamma(m, q, C), row, f, df)
        ok2, res = z2.is_closed()
        others = {k: v for k, v in res.items() if k != family}
        scale = 1e-9 * max(1.0, z2._scale())
        return (not ok2) and res[family] > 1e-3 and all(
            v <= scale for v in others.values()
        )

    one, zero = np.ones_like, np.zeros_like
    violations = [
        (0, lambda t: t, one, "charge_constant"),  # charge + tau
        (1, one, zero, "velocity_pair"),  # zeroth[1] + 1
        (7, one, zero, "diag_step"),  # first[1, 1] + 1
        (8, one, zero, "offdiag_step"),  # first[1, 2] + 1
        (22, one, zero, "diag_spatial"),  # second[(1, 1), 1] + 1
        (23, one, zero, "mixed_spatial"),  # second[(1, 1), 2] + 1
        (27, one, zero, "triple"),  # second[(1, 2), 3] + 1
    ]
    rejects = all(violated(*v) for v in violations)
    ok = round_trip_ok and accepts_valid and rejects
    _report(
        11,
        "coefficient dictionary round-trips and the closedness checker "
        "accepts valid / rejects singly-violated sets",
        ok,
        f"round-trip {worst:.2e}, accepts={accepts_valid}, "
        f"rejects={rejects}",
    )


def test_criterion_12_jet_engine():
    rng = np.random.default_rng(12)
    worst_fd = 0.0
    checked = 0
    while checked < 1000:
        e = random_safe_expression(rng)
        x = tuple(rng.uniform(-1.5, 1.5, 4))
        try:
            j = e.eval(Jet2.seed_point(x, 2))
        except EvaluationError:
            continue
        mags = [abs(j.value), *map(abs, j.grad), *map(abs, j.hess)]
        if not all(np.isfinite(mags)) or max(mags) > 1e6:
            continue

        def f(p, _e=e):
            return _e.eval(tuple(p))

        g = fd_gradient(f, x)
        H = fd_hessian(f, x)
        for a in range(4):
            worst_fd = max(
                worst_fd,
                abs(j.grad[a] - g[a]) / max(1.0, abs(j.grad[a])),
            )
        jh = full_hessian(j.hess)
        worst_fd = max(
            worst_fd,
            float(np.max(np.abs(jh - H) / np.maximum(1.0, np.abs(jh)))),
        )
        checked += 1

    worst_poly = 0.0
    for _ in range(200):
        c0 = rng.uniform(-3, 3)
        lin = rng.uniform(-3, 3, 4)
        quadm = rng.uniform(-3, 3, (4, 4))
        quadm = 0.5 * (quadm + quadm.T)
        e = ex.const(c0)
        for a in range(4):
            e = ex.add(e, ex.mul(ex.const(lin[a]), ex.Var(a)))
            for b in range(a, 4):
                coeff = quadm[a, b] if a == b else 2 * quadm[a, b]
                e = ex.add(e, ex.mul(ex.const(coeff),
                                     ex.Mul(ex.Var(a), ex.Var(b))))
        x = rng.uniform(-2, 2, 4)
        j = e.eval(Jet2.seed_point(tuple(x), 2))
        value = c0 + lin @ x + x @ quadm @ x
        grad = lin + 2 * quadm @ x
        hess = 2 * quadm
        scale = max(1.0, abs(value), float(np.max(np.abs(grad))),
                    float(np.max(np.abs(hess))))
        worst_poly = max(
            worst_poly,
            abs(j.value - value) / scale,
            float(np.max(np.abs(np.array(j.grad) - grad))) / scale,
            float(np.max(np.abs(full_hessian(j.hess) - hess))) / scale,
        )
    ok = worst_fd <= 1e-6 and worst_poly <= 1e-13
    _report(
        12,
        "jet engine: 1000 random expressions vs finite differences, "
        "exact on quadratics",
        ok,
        f"fd {worst_fd:.2e}, poly {worst_poly:.2e}",
    )
