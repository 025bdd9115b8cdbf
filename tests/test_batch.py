"""Batched evaluation equals point-by-point evaluation.

Every evaluator takes a batch, and one point is a batch of one.  Each
row of a larger batch must agree with the same quantity computed for a
batch of one (and expression jets with their one-point float path):
exactly, or within 32 ulp of the larger of 1 and the largest magnitude
compared where numpy's vectorised sin/cos/exp differ from their
one-value paths.
"""

import numpy as np

from oracles import (
    preimage_boxes,
    random_dipole,
    random_quadrupole,
    probe_families,
    random_safe_expression,
    random_test_form,
)
from polekit import expr as ex
from polekit import pairing
from polekit.charts import (
    cartesian_to_cylindrical_chart,
    compose_charts,
    cylindrical_to_cartesian_chart,
    get,
)
from polekit.classify import compact_window_expr
from polekit.errors import EvaluationError
from polekit.expr import tau_rows
from polekit.jets import Jet2
from polekit.moments import Monopole, zeta_from_gamma
from polekit.pairing import (
    Box,
    ExprCovector,
    ScaledCovector,
    SourceBundle,
    make_test_form,
    pair_bundle,
    pair_dipole,
    pair_monopole,
    pair_quadrupole,
    pull_back_test_form,
    random_test_form_along,
)
from polekit.quadrature import _NODES, CumulativeIntegral
from polekit.transport import transform_dipole, transform_quadrupole
from polekit.worldlines import Worldline


ULPS = 32 * np.finfo(float).eps


def _close(batch, single):
    batch = np.asarray(batch, dtype=float)
    single = np.asarray(single, dtype=float)
    scale = max(1.0, float(np.max(np.abs(single), initial=0.0)))
    assert np.all(np.abs(batch - single) <= ULPS * scale)


def _jet_rows(jet, n):
    """(n, 15) array: value, gradient, packed Hessian of a batch jet."""
    return np.concatenate([np.broadcast_to(jet.value, (n,))[:, None],
                           np.broadcast_to(jet.grad, (n, 4)),
                           np.broadcast_to(jet.hess, (n, 10))], axis=-1)


def _jet_row(jet):
    """Value, gradient and packed Hessian of a one-point float jet."""
    return np.concatenate([[jet.value], jet.grad, jet.hess])


def test_random_expressions_batch_equals_pointwise(rng):
    checked = 0
    while checked < 200:
        e = random_safe_expression(rng)
        pts = rng.uniform(-1.5, 1.5, (16, 4))
        try:
            single = [e.eval(Jet2.seed_point(tuple(p), 2)) for p in pts]
        except EvaluationError:
            continue
        batch = e.eval(Jet2.seed_point(tuple(pts.T), 2))
        _close(_jet_rows(batch, len(pts)), [_jet_row(j) for j in single])
        one = e.eval(Jet2.seed_point(tuple(pts[:1].T), 2))
        _close(_jet_rows(batch, len(pts))[0], _jet_rows(one, 1)[0])
        values = e.eval(tuple(pts.T))
        _close(np.broadcast_to(values, (len(pts),)),
               [e.eval(tuple(p)) for p in pts])
        checked += 1


def _edge_points(box, rng):
    """Points inside the box, outside it, and exactly on each face (the
    edge of the bump / sstep windows)."""
    c = np.array(box.center)
    h = np.array(box.half)
    pts = [c + h * rng.uniform(-0.9, 0.9, 4) for _ in range(6)]
    pts += [c + h * rng.uniform(1.05, 1.5, 4) for _ in range(3)]
    for b in range(4):
        for side in (-1.0, 1.0):
            p = c + h * rng.uniform(-0.5, 0.5, 4)
            p[b] = c[b] + side * h[b]
            pts.append(p)
            q = p.copy()
            q[b] = c[b] + side * h[b] * (1.0 - 1e-9)
            pts.append(q)
    return np.array(pts)


def _member_0(pts):
    """The member index of each row of ``pts``: all member 0."""
    return np.zeros(len(pts), dtype=np.intp)


def _forms(rng):
    box = Box((0.5, -0.3, 0.2, 0.1), (0.8, 0.7, 0.9, 0.6))
    product = random_test_form(rng, box.center, box.half)
    window = compact_window_expr(box.center, box.half)
    lam = ex.Mul(ex.add(ex.Var(1), ex.const(0.4)), window)
    gradient = ExprCovector(ex.Program(ex.gradient_exprs(lam)), [box])
    scaled = ScaledCovector(ex.Program([lam]), 2, product)
    probes = probe_families(rng, [box])
    pair = get("cylindrical_to_cartesian")
    hatted = random_test_form(rng, (0.0, 1.0, 0.4, 0.1),
                              (0.5, 0.3, 0.3, 0.3))
    pulled = pull_back_test_form(hatted, pair.forward)
    pulled_box = preimage_boxes(hatted, pair.inverse)[0]
    return [(product, box), (gradient, box), (scaled, box),
            (pulled, pulled_box)] + [(form, box) for form in probes.values()]


def test_test_forms_batch_equals_pointwise(rng):
    for form, box in _forms(rng):
        pts = _edge_points(box, rng)
        if isinstance(form, pairing.PulledBackForm):
            pts = pts[form.chart.in_domain(pts)]
        owner = _member_0(pts)
        batch_jets = form.jets_at(pts, owner, 2)
        batch_values = form.values_at(pts, owner)
        batch_support = form.in_support(pts, owner)
        assert batch_values.shape == (len(pts), 4)
        for i, p in enumerate(pts):
            jets = form.jets_at(p[None], owner[:1], 2)
            for a in range(4):
                _close(_jet_rows(batch_jets[a], len(pts))[i],
                       _jet_rows(jets[a], 1)[0])
            _close(batch_values[i], form.values_at(p[None], owner[:1])[0])
            assert batch_support[i] == form.in_support(p[None], owner[:1])[0]
        # outside the support everything is exactly zero
        outside = ~batch_support
        assert np.all(batch_values[outside] == 0.0)
        for a in range(4):
            assert np.all(_jet_rows(batch_jets[a], len(pts))[outside] == 0.0)


def test_pairing_integrand_batch_equals_pointwise(rng, wobble_worldline,
                                                  monkeypatch):
    """The integrands handed to the quadrature evaluate one panel of 16
    nodes as a batch exactly as they do node by node."""
    captured = []
    real = pairing.integrate_many

    def spy(f, windows, *args, **kwargs):
        captured.append((f, windows))
        return real(f, windows, *args, **kwargs)

    monkeypatch.setattr(pairing, "integrate_many", spy)
    pair = get("cylindrical_to_cartesian")
    C = wobble_worldline
    hatC = C.push_through_chart(pair.forward)
    d = random_dipole(rng)
    q = random_quadrupole(rng)
    dhat = transform_dipole(d, pair.forward, C)
    qhat = transform_quadrupole(q, pair.forward, C)
    form = random_test_form_along(rng, hatC)
    pulled = pull_back_test_form(form, pair.forward)
    pair_monopole(Monopole(1.3), C, pulled)
    pair_monopole(Monopole(1.3), hatC, form)
    pair_dipole(d, C, pulled)
    pair_dipole(dhat, hatC, form)
    pair_quadrupole(q, C, pulled)
    pair_quadrupole(qhat.gamma3_hat, hatC, form)
    pair_bundle(SourceBundle(C, dipole=d, quadrupole=q), pulled)
    pair_bundle(SourceBundle(hatC, dipole=dhat,
                             quadrupole=qhat.gamma3_hat), form)
    assert len(captured) == 8
    for f, [(a, b)] in captured:
        taus = 0.5 * (a + b) + 0.5 * (b - a) * _NODES
        batch = f(taus, np.zeros(len(taus), dtype=np.intp))
        single = [f(np.array([t]), np.zeros(1, dtype=np.intp))[0]
                  for t in taus]
        _close(batch, single)
        assert np.any(batch != 0.0)


def _evaluators(rng, wobble_worldline, adapted_worldline):
    """(name, function of a batch, batch) for every batch evaluator."""
    n = 8
    pts = np.column_stack([rng.uniform(-1, 1, n), rng.uniform(0.5, 2.0, n),
                           rng.uniform(-2.0, 2.0, n), rng.uniform(-1, 1, n)])
    mixed = pts * np.where(np.arange(n) % 3 == 0, -1.0, 1.0)[:, None]
    cyl = cylindrical_to_cartesian_chart()
    both = compose_charts(cartesian_to_cylindrical_chart(), cyl)
    C = wobble_worldline
    taus = np.sort(rng.uniform(*C.interval, n))
    box = Box((0.5, -0.3, 0.2, 0.1), (0.8, 0.7, 0.9, 0.6))
    q = random_quadrupole(rng)
    tr = transform_quadrupole(q, cyl, C)
    z = zeta_from_gamma(Monopole(0.4), q, adapted_worldline)
    ztaus = np.sort(rng.uniform(*adapted_worldline.interval, n))
    cum = CumulativeIntegral(
        lambda t: np.stack([np.sin(t), np.cos(3 * t)], axis=1), 0.0, 4.0, 2,
        1e-10)
    wave = ex.parse("1 + 0.2*sin(0.7*tau)", ex.TAU_VARS)
    cases = [
        ("_BatchForm.in_support",
         lambda x: make_test_form([1] * 4, box.center, box.half).in_support(
             x, _member_0(x)), _edge_points(box, rng)),
        ("DomainHint.contains", cyl.domain_hint.contains, mixed),
        ("Chart.in_domain", cyl.in_domain, mixed),
        ("compose_charts predicate", both.domain_hint.contains, mixed),
        ("Chart.value_at", cyl.value_at, pts),
        ("Chart.jets_at", lambda x: cyl.jets_at(x, 2), pts),
        ("Chart.frames_at", lambda x: cyl.frames_at(x, 2), pts),
        ("Chart.jacobian_at", cyl.jacobian_at, pts),
        ("composed Chart.frames_at", lambda x: both.frames_at(x, 2), pts),
        ("Worldline.eval", C.eval, taus),
        ("Worldline.point_at", C.point_at, taus),
        ("Worldline.velocity_at", C.velocity_at, taus),
        ("Worldline.acceleration_at", C.acceleration_at, taus),
        ("components values_at", q.values_at, taus),
        ("components derivs_at", q.derivs_at, taus),
        ("component entry", q[1, 2, 3], taus),
        ("transported values_at", tr.gamma3_hat.values_at, taus),
        ("transported derivs_at", tr.gamma3_hat.derivs_at, taus),
        ("PTerm.matrix_at", tr.P.matrix_at, taus),
        ("AdaptedCoefficients.arrays",
         lambda t: z.arrays(t, "charge", "first", ("second_0", 1)), ztaus),
        ("CumulativeIntegral.value", cum.value, taus),
        ("CumulativeIntegral.derivative", cum.derivative, taus),
    ]
    for k in range(3):
        cases.append((f"tau_rows order {k}",
                      lambda t, k=k: tau_rows(ex.Program([wave]), t, k), taus))
        cases.append((f"tau_rows of a constant, order {k}",
                      lambda t, k=k: tau_rows(ex.Program([ex.const(2.5)]), t, k),
                      taus))
    for form, fbox in _forms(rng):
        name = type(form).__name__
        fpts = _edge_points(fbox, rng)
        if isinstance(form, pairing.PulledBackForm):
            fpts = fpts[form.chart.in_domain(fpts)]
        cases += [(f"{name}.jets_at",
                   lambda x, f=form: f.jets_at(x, _member_0(x), 2), fpts),
                  (f"{name}.values_at",
                   lambda x, f=form: f.values_at(x, _member_0(x)), fpts),
                  (f"{name}.in_support",
                   lambda x, f=form: f.in_support(x, _member_0(x)), fpts)]
    return cases


def _rows(out, n):
    """The outputs of an evaluator as arrays with a leading axis n."""
    if isinstance(out, Jet2):
        return [_jet_rows(out, n)]
    if isinstance(out, (tuple, list)):
        return [r for o in out for r in _rows(o, n)]
    assert np.shape(out)[:1] == (n,)
    return [np.asarray(out, dtype=float)]


def test_batch_of_one_equals_row_of_batch(rng, wobble_worldline,
                                          adapted_worldline):
    """N = 1 is one more input of every evaluator: a batch of one gives
    the matching row of a larger batch."""
    for name, fn, batch in _evaluators(rng, wobble_worldline,
                                       adapted_worldline):
        full = _rows(fn(batch), len(batch))
        for i in range(len(batch)):
            one = _rows(fn(batch[i:i + 1]), 1)
            assert len(one) == len(full), name
            for f, o in zip(full, one):
                try:
                    _close(f[i], o[0])
                except AssertionError:
                    raise AssertionError(f"{name}, row {i}") from None
