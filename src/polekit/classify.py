"""Numerical classification of worldline sources.

Charge extraction pairs the source with a plateau-times-gradient field;
the order tests probe with powers of scalars vanishing on the worldline;
closedness probes with pure gradient fields.  Sampling can only refute
such properties or be consistent with them, so reports carry the wording
"consistent with ..." together with the worst residual, the scale it was
measured against, and the seed that generated the probes.

Each test pairs its probes as one family, in lockstep (one
:func:`~polekit.pairing.pair_bundle_family` call).  It draws every
probe's random box and constants first, in the order a probe drawn
alone would draw them.  The family's expression trees, their symbolic
gradients and their programs are built once per process, by a cached
builder per test: the trees read member k's constants as variables 4,
5, ... (see :class:`_Constants`), so each member has the bits of its
probe paired alone, and a call only draws boxes and constants.  The
charge probes share one such tree set too, over their ramp and plateau
constants, and the probes of :func:`charge_probe_variations` are one
family: the first of them asked about a bundle pairs them all with it
in one call (see :class:`_ChargeFamily`).

The order and electric-order tests run on adapted worldlines
C(tau) = (tau, 0, 0, 0): scalars vanishing on the curve are then exact
(multiples of the spatial coordinates) instead of approximations.  For
a general worldline, transport the source to an adapted chart first.
Closedness and charge extraction work along any worldline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from . import expr as ex
from .errors import DomainError
from .pairing import Box, ExprCovector, ProductTestForm, ScaledCovector, \
    pair_bundle_family

_PASS_TOL = 1e-8
_FAIL_TOL = 1e-4


# -- probe building blocks ---------------------------------------------------


def compact_window_expr(center, widths):
    """prod_b sstep(1 - u_b^2), u_b = (x^b - c^b)/w^b: a C^3 compactly
    supported window that symbolic differentiation can chase through;
    c^b and w^b are floats or trees."""
    out = None
    for b in range(4):
        u = ex.div(ex.sub(ex.Var(b), ex._coerce(center[b])),
                   ex._coerce(widths[b]))
        f = ex.Fun("sstep", ex.sub(ex.const(1.0), ex.Mul(u, u)))
        out = f if out is None else ex.Mul(out, f)
    return out


def plateau_expr(center, widths, r2, r2_minus_1):
    """Spatial plateau, constant in time: with u_mu = (x^mu - c^mu) /
    w^mu and the outer radius r, exactly 1 on the unit tube |u| <= 1,
    exactly 0 beyond r, smooth in between; ``center`` and ``widths``
    are three trees each, ``r2`` and ``r2_minus_1`` the trees of r^2
    and r^2 - 1."""
    out = None
    for mu in (1, 2, 3):
        u = ex.div(ex.sub(ex.Var(mu), center[mu - 1]), widths[mu - 1])
        f = ex.Fun("sstep", ex.div(ex.sub(r2, ex.Mul(u, u)), r2_minus_1))
        out = f if out is None else ex.Mul(out, f)
    return out


def ramp_expr(t_on, t_span, lam0, lam_span):
    """lam0 before t_on, lam0 + lam_span after t_on + t_span, C^3
    monotone in between; the arguments are trees."""
    u = ex.div(ex.sub(ex.Var(0), t_on), t_span)
    return ex.add(lam0, ex.mul(lam_span, ex.Fun("sstep", u)))


class _Constants:
    """The random constants of a family of probes, one member per probe.

    A probe's trees are built once, asking this object for each random
    constant in the order a generator yields it; each answer is the
    parameter variable that reads the constant, variable 4 + i for the
    member's i-th (see :class:`~polekit.pairing._BatchForm`).  The first
    ``given`` constants are set by the caller, who reads them through
    the variables ``given``.  :meth:`draw` then draws the rest of one
    member's constants from a generator in that order.
    """

    def __init__(self, given):
        self.given = tuple(ex.Var(4 + i) for i in range(given))
        self.count = given
        self.draws = []

    def _next(self, n, draw):
        first = 4 + self.count
        self.count += n
        self.draws.append(draw)
        return tuple(ex.Var(first + i) for i in range(n))

    def uniform(self, lo, hi, size=None):
        """``rng.uniform(lo, hi, size)``: one constant, or a tuple of
        ``size``."""
        out = self._next(size or 1, lambda rng: rng.uniform(lo, hi, size))
        return out if size else out[0]

    def coordinate(self):
        """x^b for b drawn by ``rng.integers(0, 4)``, as the sum e_0 x^0 +
        ... + e_3 x^3 over the one-hot constants e: each product is an
        exact zero or x^b itself, so the sum has the bits of x^b up to
        the sign of zeros."""
        return ex.linear_combination(
            self._next(4, lambda rng: np.eye(4)[rng.integers(0, 4)]))

    def draw(self, rng):
        """One member's constants, drawn from ``rng`` (an (n,) array)."""
        return np.concatenate([np.ravel(d(rng)) for d in self.draws])


def random_poly_expr(c, degree=1, offset=1.0):
    """offset + random linear (+ optional bilinear) polynomial in
    x0..x3, its random constants from ``c`` (a :class:`_Constants`)."""
    e = ex._coerce(offset)
    for b in range(4):
        e = ex.add(e, ex.mul(c.uniform(-1, 1), ex.Var(b)))
    if degree >= 2:
        x1 = c.coordinate()
        x2 = c.coordinate()
        e = ex.add(e, ex.mul(c.uniform(-1, 1), ex.Mul(x1, x2)))
    return e


def vanishing_scalar_expr(c, window):
    """(random spatial combination) * polynomial * compact window; zero
    on any adapted worldline."""
    lead = ex.linear_combination((0.0, *c.uniform(-1, 1, 3)))
    return ex.Mul(ex.Mul(lead, random_poly_expr(c)), window)


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


def _window(c):
    """The compact window over a member's box, whose centre and
    half-widths are the eight constants ``c.given``."""
    return compact_window_expr(c.given[:4], c.given[4:])


@cache
def _closed_family():
    """The closedness probes' constants and the program of d(polynomial
    * window)."""
    c = _Constants(8)
    lam = ex.Mul(random_poly_expr(c, degree=2), _window(c))
    return c, ex.Program(ex.gradient_exprs(lam))


@cache
def _order_family():
    """The order probes' constants and the programs of the vanishing
    scalar and of the four polynomials."""
    c = _Constants(8)
    lam = vanishing_scalar_expr(c, _window(c))
    polys = [random_poly_expr(c, offset=c.uniform(0.5, 1.5))
             for _ in range(4)]
    return c, ex.Program([lam]), ex.Program(polys)


@cache
def _electric_order_family():
    """The electric-order probes' constants and the programs of the
    vanishing scalar and of the gradient of the polynomial mu."""
    c = _Constants(8)
    lam = vanishing_scalar_expr(c, _window(c))
    mu = ex.Mul(ex.linear_combination((0.0, *c.uniform(-1, 1, 3))),
                random_poly_expr(c))
    return c, ex.Program([lam]), ex.Program(ex.gradient_exprs(mu))


def _probe_test(bundle, c, make, test, order, samples, seed):
    """Pair ``bundle`` with ``samples`` probes and compare the worst
    |pairing| with the thresholds.

    The probes are one family, paired in lockstep: ``make(boxes,
    params)`` is the family over the members' boxes and constants,
    whose random ones are those of :class:`_Constants` ``c``.  Each
    probe draws a random box around the worldline and then its
    constants, in that order, from the generator of ``seed``.  The
    scale is the sup of |phi_a| over the 3^4-point grid of each box at
    0.6 of its size, read in one call."""
    if samples < 1:
        raise DomainError(f"{test} test needs at least one probe, got "
                          f"{samples}")
    rng = np.random.default_rng(seed)
    boxes, params = [], []
    for _ in range(samples):
        boxes.append(_probe_box(bundle.worldline, rng))
        params.append((*boxes[-1].center, *boxes[-1].half, *c.draw(rng)))
    probe = make(boxes, params)
    worst = 0.0
    for report in pair_bundle_family(bundle, probe):
        worst = max(worst, abs(report.value))
    grid = np.concatenate([b.grid(0.6) for b in boxes])
    owner = np.repeat(np.arange(samples), len(grid) // samples)
    scale_ref = float(np.max(np.abs(probe.values_at(grid, owner))))
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
    c, lam, polys = _order_family()
    return _probe_test(
        bundle, c, lambda boxes, params: ScaledCovector(
            lam, k + 1, ProductTestForm(polys, boxes, params)),
        "order", k, samples, seed)


def test_electric_order(bundle, ell, samples=8, seed=0):
    """Probe J[lambda^ell d mu] = 0 with both scalars vanishing on the
    worldline (mu polynomial, so its gradient is exact)."""
    _require_adapted(bundle)
    if ell < 1:
        raise DomainError("electric-order probes need ell >= 1")
    c, lam, grad = _electric_order_family()
    return _probe_test(
        bundle, c, lambda boxes, params: ScaledCovector(
            lam, ell, ExprCovector(grad, boxes, params)),
        "electric order", ell, samples, seed)


def test_closed(bundle, samples=20, seed=0):
    """Probe J[d lambda] = 0 over sampled compact scalars."""
    c, grad = _closed_family()
    return _probe_test(bundle, c, lambda boxes, params: ExprCovector(
        grad, boxes, params), "closed", None, samples, seed)


# -- charge extraction -------------------------------------------------------


@cache
def _charge_comps():
    """The program of psi d lambda, the ramp lambda times the plateau
    psi, over the constants of one charge probe as variables 4..15:
    t_on, t_off - t_on, lam0, lam1 - lam0, the tube's centre (3) and
    half-widths (3), r^2 and r^2 - 1 for the outer radius r."""
    t_on, t_span, lam0, lam_span, *tube = (ex.Var(4 + i) for i in range(12))
    lam = ramp_expr(t_on, t_span, lam0, lam_span)
    psi = plateau_expr(tube[0:3], tube[3:6], tube[6], tube[7])
    return ex.Program(ex.mul(psi, lam.diff(a)) for a in range(4))


class _ChargeFamily:
    """Charge probes as one :class:`ExprCovector` family (``covector``),
    with the member reports of the one bundle it was last paired with:
    the first member asked about a bundle pairs the whole family with it
    in one lockstep call, and the others read their reports.  Bundles
    are compared by identity."""

    def __init__(self, covector):
        self.covector = covector
        self._bundle = None
        self._reports = None

    def report(self, bundle, member):
        """The pairing of ``bundle`` with member ``member``."""
        if bundle is not self._bundle:
            self._reports = pair_bundle_family(bundle, self.covector)
            self._bundle = bundle
        return self._reports[member]


@dataclass
class ChargeProbe:
    """A plateau-times-gradient covector field with known ramp targets:
    member ``member`` of the charge probe family ``family``."""

    family: _ChargeFamily
    member: int
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
    r2 = outer_radius * outer_radius
    params = (t_on, t_off - t_on, lam0, lam1 - lam0, *center,
              *tube_halfwidths, r2, r2 - 1.0)
    pad = 0.1 * (t_off - t_on)
    box = Box(
        (0.5 * (t_on + t_off),) + tuple(float(c) for c in center),
        (0.5 * (t_off - t_on) + pad,)
        + tuple(outer_radius * w * 1.05 for w in tube_halfwidths),
    )
    return ChargeProbe(
        family=_ChargeFamily(ExprCovector(_charge_comps(), [box], [params])),
        member=0,
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
    report = probe.family.report(bundle, probe.member)
    return report.value / (probe.lam1 - probe.lam0)


def charge_probe_variations(worldline, n=5, seed=0):
    """A deterministic family of distinct (ramp, plateau) choices for
    stability checks of the extracted charge: ``n`` probes, members of
    one family, so that :func:`extract_charge` pairs them with a bundle
    in one lockstep call."""
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
    family = _ChargeFamily(ExprCovector(
        _charge_comps(), [p.family.covector.box for p in probes],
        [p.family.covector.params[0] for p in probes]))
    return [replace(p, family=family, member=k)
            for k, p in enumerate(probes)]
