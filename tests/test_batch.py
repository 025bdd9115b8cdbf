"""Batched evaluation equals point-by-point evaluation.

Expression jets, test forms and pairing integrands evaluate whole
batches of points at once; each entry must agree with the same
quantity computed one point at a time: exactly, or within 32 ulp of the
larger of 1 and the largest magnitude compared where numpy's vectorised
sin/cos/exp differ from their one-value paths.
"""

import numpy as np

from oracles import random_safe_expression
from polekit import expr as ex
from polekit import pairing
from polekit.charts import get
from polekit.classify import compact_window_expr, vanishing_scalar_expr
from polekit.errors import EvaluationError
from polekit.jets import Jet2
from polekit.moments import Monopole
from polekit.pairing import (
    Box,
    ExprCovector,
    ScaledCovector,
    pair_dipole,
    pair_monopole,
    pair_quadrupole,
    pull_back_test_form,
)
from polekit.quadrature import _NODES
from polekit.sampling import (
    random_dipole,
    random_quadrupole,
    random_test_form,
    random_test_form_along,
)
from polekit.transport import transform_dipole, transform_quadrupole


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
    return np.concatenate([[jet.value], jet.grad, jet.hess])


def test_random_expressions_batch_equals_pointwise(rng):
    checked = 0
    while checked < 200:
        e = random_safe_expression(rng)
        pts = rng.uniform(-1.5, 1.5, (16, 4))
        try:
            single = [e.eval_jet(Jet2.seed_point(tuple(p))) for p in pts]
        except EvaluationError:
            continue
        batch = e.eval_jet(Jet2.seed_point(tuple(pts.T)))
        _close(_jet_rows(batch, len(pts)), [_jet_row(j) for j in single])
        values = e.eval_value(tuple(pts.T))
        _close(np.broadcast_to(values, (len(pts),)),
               [e.eval_value(tuple(p)) for p in pts])
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


def _forms(rng):
    box = Box((0.5, -0.3, 0.2, 0.1), (0.8, 0.7, 0.9, 0.6))
    product = random_test_form(rng, box.center, box.half)
    window = compact_window_expr(box.center, box.half)
    lam = ex.Mul(ex.add(ex.Var(1), ex.const(0.4)), window)
    gradient = ExprCovector(ex.gradient_exprs(lam), box)
    scaled = ScaledCovector(vanishing_scalar_expr(rng, window), 2, product)
    pair = get("cylindrical_to_cartesian")
    hatted = random_test_form(rng, (0.0, 1.0, 0.4, 0.1),
                              (0.5, 0.3, 0.3, 0.3))
    pulled = pull_back_test_form(hatted, pair)
    return [(product, box), (gradient, box), (scaled, box),
            (pulled, pulled.box)]


def test_test_forms_batch_equals_pointwise(rng):
    for form, box in _forms(rng):
        pts = _edge_points(box, rng)
        if isinstance(form, pairing.PulledBackForm):
            pts = pts[form.chart.in_domain(pts)]
        batch_jets = form.jets_at(pts)
        batch_values = form.values_at(pts)
        batch_support = form.in_support(pts)
        assert batch_values.shape == (len(pts), 4)
        for i, p in enumerate(pts):
            jets = form.jets_at(tuple(p))
            for a in range(4):
                _close(_jet_rows(batch_jets[a], len(pts))[i],
                       _jet_row(jets[a]))
            _close(batch_values[i], form.values_at(tuple(p)))
            assert batch_support[i] == form.in_support(tuple(p))
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
    real = pairing.integrate

    def spy(f, a, b, **kwargs):
        captured.append((f, a, b))
        return real(f, a, b, **kwargs)

    monkeypatch.setattr(pairing, "integrate", spy)
    pair = get("cylindrical_to_cartesian")
    C = wobble_worldline
    hatC = C.push_through_chart(pair.forward)
    d = random_dipole(rng)
    q = random_quadrupole(rng)
    dhat = transform_dipole(d, pair.forward, C)
    qhat = transform_quadrupole(q, pair.forward, C)
    form = random_test_form_along(rng, hatC, margin=0.25)
    pulled = pull_back_test_form(form, pair)
    pair_monopole(Monopole(1.3), C, pulled)
    pair_monopole(Monopole(1.3), hatC, form)
    pair_dipole(d, C, pulled)
    pair_dipole(dhat, hatC, form)
    pair_quadrupole(q, C, pulled)
    pair_quadrupole(qhat.gamma3_hat, hatC, form)
    assert len(captured) == 6
    for f, a, b in captured:
        taus = 0.5 * (a + b) + 0.5 * (b - a) * _NODES
        batch = f(taus)
        single = [f(np.array([t]))[0] for t in taus]
        _close(batch, single)
        assert np.any(batch != 0.0)
