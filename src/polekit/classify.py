"""Numerical classification of worldline sources.

Charge extraction pairs the source with a plateau-times-gradient field;
the order tests probe with powers of scalars vanishing on the worldline;
closedness probes with pure gradient fields.  Sampling can only refute
such properties or be consistent with them, so reports carry the wording
"consistent with ..." together with the worst residual, the scale it was
measured against, and the seed that generated the probes.

The order and electric-order tests run on adapted worldlines
C(tau) = (tau, 0, 0, 0): scalars vanishing on the curve are then exact
(multiples of the spatial coordinates) instead of approximations.  For
a general worldline, transport the source to an adapted chart first.
Closedness and charge extraction work along any worldline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import DomainError
from .pairing import Box, ExprCovector, ProductTestForm, ScaledCovector, \
    pair_bundle

_PASS_TOL = 1e-8
_FAIL_TOL = 1e-4


# -- probe building blocks ---------------------------------------------------


def compact_window_expr(center, widths):
    """prod_b sstep(1 - u_b^2), u_b = (x^b - c^b)/w^b: a C^3 compactly
    supported window that symbolic differentiation can chase through."""
    out = None
    for b in range(4):
        u = ex.div(ex.sub(ex.Var(b), ex.const(center[b])), ex.const(widths[b]))
        f = ex.Fun("sstep", ex.sub(ex.const(1.0), ex.Mul(u, u)))
        out = f if out is None else ex.Mul(out, f)
    return out


def plateau_expr(center, widths, outer_radius):
    """Spatial plateau: exactly 1 on the unit tube |u| <= 1, exactly 0
    beyond ``outer_radius``, smooth in between; constant in time."""
    r2 = outer_radius * outer_radius
    out = None
    for mu in (1, 2, 3):
        u = ex.div(
            ex.sub(ex.Var(mu), ex.const(center[mu - 1])),
            ex.const(widths[mu - 1]),
        )
        arg = ex.div(
            ex.sub(ex.const(r2), ex.Mul(u, u)), ex.const(r2 - 1.0)
        )
        f = ex.Fun("sstep", arg)
        out = f if out is None else ex.Mul(out, f)
    return out


def ramp_expr(t_on, t_off, lam0, lam1):
    """lam0 before t_on, lam1 after t_off, C^3 monotone in between."""
    u = ex.div(
        ex.sub(ex.Var(0), ex.const(t_on)), ex.const(t_off - t_on)
    )
    return ex.add(
        ex.const(lam0),
        ex.mul(ex.const(lam1 - lam0), ex.Fun("sstep", u)),
    )


def random_poly_expr(rng, degree=1, offset=1.0):
    """offset + random linear (+ optional bilinear) polynomial in
    x0..x3."""
    e = ex.const(offset)
    for b in range(4):
        e = ex.add(e, ex.mul(ex.const(rng.uniform(-1, 1)), ex.Var(b)))
    if degree >= 2:
        b1 = int(rng.integers(0, 4))
        b2 = int(rng.integers(0, 4))
        e = ex.add(
            e,
            ex.mul(
                ex.const(rng.uniform(-1, 1)),
                ex.Mul(ex.Var(b1), ex.Var(b2)),
            ),
        )
    return e


def vanishing_scalar_expr(rng, window):
    """(random spatial combination) * polynomial * compact window; zero
    on any adapted worldline."""
    lead = ex.linear_combination((0.0, *rng.uniform(-1, 1, 3)))
    return ex.Mul(ex.Mul(lead, random_poly_expr(rng)), window)


# -- reports -----------------------------------------------------------------


@dataclass
class ClassificationReport:
    test: str
    order: int | None
    passed: bool
    max_residual: float
    threshold: float
    fail_threshold: float
    scale: float
    seed: int

    def summary(self):
        status = "consistent" if self.passed else "refuted"
        what = self.test if self.order is None else f"{self.test} <= {self.order}"
        return (
            f"{what}: {status} at residual {self.max_residual:.3e} "
            f"(threshold {self.threshold:.3e}, seed {self.seed})"
        )


def _probe_norm(form, box):
    """Sup of |phi_a| over an interior grid: the test-form norm used in
    the pass/fail scale."""
    return float(np.max(np.abs(form.values_at(box.grid(0.6), None))))


def _require_adapted(bundle):
    if not bundle.worldline.is_adapted():
        raise DomainError(
            "classification runs on adapted worldlines; transport the "
            "source to an adapted chart first"
        )


def _probe_box(worldline, rng):
    # Spatial centers sit on the curve but offset from it, so the
    # probe's window is generic (not flat) where the curve crosses.
    t0, t1 = worldline.interval
    length = t1 - t0
    tc = rng.uniform(t0 + 0.2 * length, t1 - 0.2 * length)
    base = worldline.point_at(np.array([tc]))[0]
    widths = rng.uniform(0.15, 0.3, 4) * min(1.0, length)
    offsets = rng.uniform(-0.45, 0.45, 3) * widths[1:]
    center = (float(tc),) + tuple(
        float(base[mu] + offsets[mu - 1]) for mu in (1, 2, 3)
    )
    return Box(center, tuple(float(w) for w in widths))


def _random_base_form(rng, box):
    polys = [random_poly_expr(rng, offset=float(rng.uniform(0.5, 1.5)))
             for _ in range(4)]
    return ProductTestForm(tuple(polys), box)


def _probe_test(bundle, build, test, order, samples, seed):
    """Pair ``bundle`` with ``samples`` probes and compare the worst
    |pairing| with the thresholds.  ``build(rng, box, window)`` returns
    one probe inside a random box around the worldline, given the
    compact window over that box."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    scale_ref = 0.0
    for _ in range(samples):
        box = _probe_box(bundle.worldline, rng)
        probe = build(rng, box, compact_window_expr(box.center, box.half))
        report = pair_bundle(bundle, probe)
        worst = max(worst, abs(report.value))
        scale_ref = max(scale_ref, _probe_norm(probe, box))
    scale = max(1e-12, bundle.scale() * scale_ref)
    threshold = _PASS_TOL * scale
    return ClassificationReport(
        test=test, order=order, passed=worst <= threshold,
        max_residual=worst, threshold=threshold,
        fail_threshold=_FAIL_TOL * scale, scale=scale,
        seed=seed,
    )


def test_order(bundle, k, samples=8, seed=0):
    """Probe J[lambda^{k+1} phi] = 0 over sampled vanishing scalars."""
    _require_adapted(bundle)

    def build(rng, box, window):
        lam = vanishing_scalar_expr(rng, window)
        return ScaledCovector(lam, k + 1, _random_base_form(rng, box))

    return _probe_test(bundle, build, "order", k, samples, seed)


def test_electric_order(bundle, ell, samples=8, seed=0):
    """Probe J[lambda^ell d mu] = 0 with both scalars vanishing on the
    worldline (mu polynomial, so its gradient is exact)."""
    _require_adapted(bundle)
    if ell < 1:
        raise DomainError("electric-order probes need ell >= 1")

    def build(rng, box, window):
        lam = vanishing_scalar_expr(rng, window)
        mu = ex.Mul(ex.linear_combination((0.0, *rng.uniform(-1, 1, 3))),
                    random_poly_expr(rng))
        return ScaledCovector(lam, ell, ExprCovector(ex.gradient_exprs(mu),
                                                     box))

    return _probe_test(bundle, build, "electric order", ell, samples, seed)


def test_closed(bundle, samples=20, seed=0):
    """Probe J[d lambda] = 0 over sampled compact scalars."""

    def build(rng, box, window):
        lam = ex.Mul(random_poly_expr(rng, degree=2), window)
        return ExprCovector(ex.gradient_exprs(lam), box)

    return _probe_test(bundle, build, "closed", None, samples, seed)


# -- charge extraction -------------------------------------------------------


@dataclass
class ChargeProbe:
    """A plateau-times-gradient covector field with known ramp targets."""

    covector: ExprCovector
    lam0: float
    lam1: float
    description: str


def make_charge_probe(worldline, window=None, lam0=0.0, lam1=1.0,
                      outer_radius=1.5):
    """Build the standard charge probe around a worldline.

    The scalar ramps from lam0 to lam1 inside a time window interior to
    the parameter interval; the plateau is exactly 1 on a spatial tube
    that contains the worldline throughout the window.
    """
    t0, t1 = worldline.interval
    length = t1 - t0
    if window is None:
        window = (t0 + 0.15 * length, t1 - 0.15 * length)
    t_on, t_off = window
    if not (t0 <= t_on < t_off <= t1):
        raise DomainError(f"ramp window {window!r} not inside [{t0}, {t1}]")
    if lam0 == lam1:
        raise DomainError("ramp needs distinct end values")
    spatial = worldline.point_at(np.linspace(t_on, t_off, 33))[:, 1:]
    center = spatial.mean(axis=0)
    spread = np.max(np.abs(spatial - center), axis=0)
    tube_halfwidths = tuple(float(2.0 * s + 0.5) for s in spread)
    lam = ramp_expr(t_on, t_off, lam0, lam1)
    psi = plateau_expr(center, tube_halfwidths, outer_radius)
    comps = tuple(
        ex.mul(psi, lam.diff(a)) for a in range(4)
    )
    pad = 0.1 * (t_off - t_on)
    box = Box(
        (0.5 * (t_on + t_off),) + tuple(float(c) for c in center),
        (0.5 * (t_off - t_on) + pad,)
        + tuple(outer_radius * w * 1.05 for w in tube_halfwidths),
    )
    return ChargeProbe(
        covector=ExprCovector(comps, box),
        lam0=lam0,
        lam1=lam1,
        description=(
            f"ramp {lam0} -> {lam1} on [{t_on:.3g}, {t_off:.3g}], tube "
            f"half-widths {tuple(round(w, 3) for w in tube_halfwidths)}, "
            f"outer radius {outer_radius}"
        ),
    )


def extract_charge(bundle, probe=None):
    """The invariant charge of a bundle: J[psi d lambda]/(lam1 - lam0).

    Monopole-free bundles return (numerically) zero.
    """
    if probe is None:
        probe = make_charge_probe(bundle.worldline)
    report = pair_bundle(bundle, probe.covector)
    return report.value / (probe.lam1 - probe.lam0)


def charge_probe_variations(worldline, n=5, seed=0):
    """A deterministic family of distinct (ramp, plateau) choices for
    stability checks of the extracted charge."""
    rng = np.random.default_rng(seed)
    t0, t1 = worldline.interval
    length = t1 - t0
    probes = []
    for _ in range(n):
        a = t0 + length * rng.uniform(0.1, 0.3)
        b = t1 - length * rng.uniform(0.1, 0.3)
        lam0 = float(rng.uniform(-2.0, -0.5))
        lam1 = float(rng.uniform(0.5, 2.0))
        outer = float(rng.uniform(1.3, 2.5))
        probes.append(
            make_charge_probe(
                worldline, window=(a, b), lam0=lam0, lam1=lam1,
                outer_radius=outer,
            )
        )
    return probes
