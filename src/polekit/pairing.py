"""Pairings of worldline sources with compactly supported covector
fields, plus the numerical classification tests built on them.

The pairing numbers are the chart-invariant content of a source:

    monopole:   q * integral  v^a phi_a
    dipole:    -integral  gamma[ab] d_b phi_a
    quadrupole: (1/2) integral  gamma[abc] d_b d_c phi_a

all evaluated along the worldline.  A source bundle pairs as at most
two integrals: the charge over the form's values, and the dipole and
quadrupole together over one read of the form's jets.  Everything else
in this module (charge extraction, order and closedness probes) is
built by feeding specially shaped covector fields into these integrals.

Test forms are polynomials times a product of smooth bumps, so they
vanish identically (with all derivatives) outside their box.  Probes
that must be differentiated symbolically (gradient fields, plateau
ramps) use the polynomial step ``sstep`` family instead of the
exponential bump, which keeps every required derivative exact across
the support boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import DomainError, QuadratureError
from .jets import Jet2, apply, columns, compose, entries_array, stacked
from .moments import DipoleComponents, Monopole, QuadrupoleComponents
from .quadrature import integrate_many


@dataclass(frozen=True)
class Box:
    center: tuple
    half: tuple

    def contains(self, x):
        """(N,) booleans: whether each row of an (N, 4) array of points
        is strictly inside the box."""
        return np.all(
            np.abs(np.asarray(x, dtype=float) - self.center) < self.half,
            axis=-1,
        )

    def grid(self, n=3, factor=1.0):
        """The n^4 points of a regular grid over the box scaled by
        ``factor`` about its center, as an (n^4, 4) array."""
        axes = [np.linspace(c - factor * h, c + factor * h, n)
                for c, h in zip(self.center, self.half)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass
class PairingReport:
    value: float
    quadrature_error_estimate: float
    nodes_used: int
    seed: int | None = None
    floor_panels: int = 0


# Test forms evaluate over batches: ``jets_at`` / ``values_at`` /
# ``in_support`` take an (N, 4) array of points (N = 1 for one point),
# and optionally the (N,) member index of each row, and return four jets
# over the batch, an (N, 4) array and an (N,) boolean array.  A single
# form is the one-member case and ignores the index; a family
# (:class:`AffineFormFamily`, or its pull-back) evaluates row i as its
# member owner[i], and without an index as member 0.  Work is done only
# at points inside the support, and the result is exactly zero
# elsewhere.


def _zero_jets(n):
    return (Jet2.zeros(n, 4),) * 4


def _owner(owner, n):
    """The member index of each of n rows: member 0 when not given."""
    return np.zeros(n, dtype=np.intp) if owner is None else owner


def _window_jet(pts, center, half):
    """Jet of prod_b bump((x^b - center^b) / half^b) at the rows of
    ``pts``; ``center`` and ``half`` are (4,) or one row per point."""
    w = None
    for b in range(4):
        hw = half[..., b]
        u = (pts[:, b] - center[..., b]) / hw
        grad = np.zeros((4,) + np.shape(hw))
        grad[b] = 1.0 / hw
        bj = apply("bump", Jet2.affine(u, grad))
        w = bj if w is None else w * bj
    return w


def _window_values(pts, center, half):
    """The values of :func:`_window_jet`."""
    w = 1.0
    for b in range(4):
        w = w * apply("bump", (pts[:, b] - center[..., b]) / half[..., b])
    return w


class _BatchForm:
    """The batch front end shared by the test forms.

    A form gives ``in_support`` and its work on the live rows of an
    (N, 4) array of points, ``_jets_inside`` and ``_values_inside``
    (which take the points and their member indices); ``_live`` picks
    those rows (by default the support).  ``boxes`` holds the support
    box of each member (None when a form has none); ``box`` is the
    first.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Each form class holds its own entry points, so that tools that
        # wrap methods class by class (perfbench/tracing.py) see them all.
        cls.jets_at = cls.jets_at
        cls.values_at = cls.values_at

    @property
    def box(self):
        return self.boxes[0]

    def _live(self, pts, owner):
        return self.in_support(pts, owner)

    def jets_at(self, x, owner=None):
        pts = np.asarray(x, dtype=float)
        owner = _owner(owner, len(pts))
        live = self._live(pts, owner)
        if not np.any(live):
            return _zero_jets(len(pts))
        return tuple(j.scatter(live)
                     for j in self._jets_inside(pts[live], owner[live]))

    def values_at(self, x, owner=None):
        pts = np.asarray(x, dtype=float)
        owner = _owner(owner, len(pts))
        live = self._live(pts, owner)
        out = np.zeros((len(pts), 4))
        if np.any(live):
            out[live] = self._values_inside(pts[live], owner[live])
        return out


class ProductTestForm(_BatchForm):
    """phi_a(x) = poly_a(x) * prod_b bump((x^b - c^b) / w^b)."""

    def __init__(self, polys, box):
        if any(h <= 0 for h in box.half):
            raise DomainError("test form needs positive half-widths")
        self.polys = tuple(polys)
        self.boxes = (box,)
        self._window = (np.array(box.center), np.array(box.half))

    def in_support(self, x, owner=None):
        return self.box.contains(x)

    def _jets_inside(self, pts, owner):
        w = _window_jet(pts, *self._window)
        seeds = Jet2.seed_point(columns(pts))
        return tuple(
            Jet2.constant(0.0, 4) if isinstance(p, ex.Const) and p.v == 0.0
            else p.eval(seeds) * w
            for p in self.polys
        )

    def _values_inside(self, pts, owner):
        w = _window_values(pts, *self._window)
        env = columns(pts)
        return entries_array([p.eval(env) * w for p in self.polys],
                             (len(pts),))


class AffineFormFamily(_BatchForm):
    """K test forms phi_a = (k_a + sum_b c_ab (x^b - m^b)) * prod_b
    bump((x^b - m^b) / w^b), held as arrays: ``consts`` (K, 4),
    ``coefs`` (K, 4, 4), ``centers`` m and ``halves`` w (K, 4).

    A row evaluated as member k follows the operation order of the
    :class:`ProductTestForm` over the expression trees ``k_a + c_a0 (x^0
    - m^0) + ... + c_a3 (x^3 - m^3)`` (added left to right), so it equals
    that form's row bit for bit, up to the sign of zeros.
    """

    def __init__(self, consts, coefs, centers, halves):
        self.consts = np.reshape(np.asarray(consts, dtype=float), (-1, 4))
        self.coefs = np.reshape(np.asarray(coefs, dtype=float), (-1, 4, 4))
        self.centers = np.reshape(np.asarray(centers, dtype=float), (-1, 4))
        self.halves = np.reshape(np.asarray(halves, dtype=float), (-1, 4))
        if np.any(self.halves <= 0):
            raise DomainError("test form needs positive half-widths")
        self.boxes = tuple(
            Box(tuple(float(c) for c in m), tuple(float(h) for h in w))
            for m, w in zip(self.centers, self.halves))

    def member(self, k):
        """Member k as a family of one."""
        return AffineFormFamily(self.consts[k], self.coefs[k],
                                self.centers[k], self.halves[k])

    def in_support(self, x, owner=None):
        pts = np.asarray(x, dtype=float)
        owner = _owner(owner, len(pts))
        return np.all(
            np.abs(pts - self.centers[owner]) < self.halves[owner], axis=-1)

    def _polys(self, env, owner):
        """The four polynomials at ``env`` (seed jets or coordinates).
        The tree's first sum, k + term, is formed as ``term + k``: that
        is how a jet adds a constant, and for values it is the same."""
        k, c, m = self.consts[owner], self.coefs[owner], self.centers[owner]
        out = []
        for a in range(4):
            e = (env[0] - m[:, 0]) * c[:, a, 0] + k[:, a]
            for b in range(1, 4):
                e = e + (env[b] - m[:, b]) * c[:, a, b]
            out.append(e)
        return out

    def _jets_inside(self, pts, owner):
        w = _window_jet(pts, self.centers[owner], self.halves[owner])
        return tuple(p * w for p in self._polys(
            Jet2.seed_point(columns(pts)), owner))

    def _values_inside(self, pts, owner):
        w = _window_values(pts, self.centers[owner], self.halves[owner])
        return entries_array(
            [p * w for p in self._polys(columns(pts), owner)], (len(pts),))


class ExprCovector(_BatchForm):
    """Four raw expression components; support box is advisory (used
    for bracketing the quadrature, not enforced)."""

    def __init__(self, comps, box=None):
        self.comps = tuple(comps)
        self.boxes = (box,)

    def in_support(self, x, owner=None):
        if self.box is not None:
            return self.box.contains(x)
        return np.ones(len(x), dtype=bool)

    def _jets_inside(self, pts, owner):
        return ex.eval_all(self.comps, Jet2.seed_point(columns(pts)))

    def _values_inside(self, pts, owner):
        return entries_array(ex.eval_all(self.comps, columns(pts)),
                             (len(pts),))


class ScaledCovector(_BatchForm):
    """phi_a = scalar^power * base_a (integer power >= 1)."""

    def __init__(self, scalar, power, base):
        self.scalar = scalar
        self.power = int(power)
        self.base = base

    @property
    def boxes(self):
        return self.base.boxes

    def in_support(self, x, owner=None):
        return self.base.in_support(x, owner)

    def _jets_inside(self, pts, owner):
        s = self.scalar.eval(Jet2.seed_point(columns(pts))) ** self.power
        return tuple(j * s for j in self.base.jets_at(pts, owner))

    def _values_inside(self, pts, owner):
        s = self.scalar.eval(columns(pts)) ** self.power
        return self.base.values_at(pts, owner) * np.reshape(s, (-1, 1))


class PulledBackForm(_BatchForm):
    """A hatted-chart test form (or family) seen from the source chart.

    phi_a(x) = (d hatted^b / d x^a)(x) * hatted_phi_b(hatted(x)); the
    Jacobian factors are symbolic derivatives of the chart components so
    that second jet derivatives of the pullback stay exact.  They and the
    chart jets do not depend on the member, so one pull-back serves a
    whole family, with a source-side box per member.  Points outside
    the chart's domain raise :class:`DomainError` (except in
    ``in_support``, where they are outside the support).
    """

    def __init__(self, chart, hatted, boxes):
        self.chart = chart
        self.hatted = hatted
        self.boxes = tuple(boxes)
        self._jac = chart.jacobian_exprs()

    def in_support(self, x, owner=None):
        pts = np.asarray(x, dtype=float)
        owner = _owner(owner, len(pts))
        ok = self.chart.in_domain(pts)
        out = np.zeros(len(pts), dtype=bool)
        if np.any(ok):
            out[ok] = self.hatted.in_support(self.chart.value_at(pts[ok]),
                                             owner[ok])
        return out

    def _live(self, pts, owner):
        """Rows whose image lies in the hatted support; a row outside the
        chart domain raises."""
        return self.hatted.in_support(self.chart.value_at(pts), owner)

    def _jets_inside(self, pts, owner):
        Y = self.chart.jets_at(pts)
        outer = self.hatted.jets_at(stacked(Y, (len(pts),), 0), owner)
        composed = tuple(compose(outer[b], Y) for b in range(4))
        seeds = Jet2.seed_point(columns(pts))
        out = []
        for a in range(4):
            acc = Jet2.constant(0.0, 4)
            for b in range(4):
                d = self._jac[b][a]
                if isinstance(d, ex.Const):
                    if d.v != 0.0:
                        acc = acc + composed[b] * d.v
                else:
                    acc = acc + d.eval(seeds) * composed[b]
            out.append(acc)
        return tuple(out)

    def _values_inside(self, pts, owner):
        hv = self.hatted.values_at(self.chart.value_at(pts), owner)
        env = columns(pts)
        out = np.zeros((len(pts), 4))
        for a in range(4):
            for b in range(4):
                d = self._jac[b][a]
                if isinstance(d, ex.Const):
                    if d.v != 0.0:
                        out[:, a] += d.v * hv[:, b]
                else:
                    out[:, a] += d.eval(env) * hv[:, b]
        return out


def make_test_form(polys, center, half_widths):
    """Compactly supported covector field from 4 polynomial expressions
    and a support box."""
    box = Box(tuple(float(c) for c in center),
              tuple(float(h) for h in half_widths))
    comps = tuple(ex._coerce(p) for p in polys)
    return ProductTestForm(comps, box)


def pull_back_test_form(hatted, pair, pad=0.1, samples_per_axis=3):
    """Transport a hatted-chart test form (or family) to the source chart
    of ``pair``.

    The support is carried conservatively, member by member: boundary
    samples of the hatted box are mapped through the inverse chart and
    their bounding box, padded, becomes the source-side box.  Raises
    :class:`DomainError` when the support escapes the chart domain.
    """
    boxes = []
    for hatted_box in hatted.boxes:
        try:
            mapped = pair.inverse.value_at(hatted_box.grid(samples_per_axis))
        except DomainError as err:
            raise DomainError(
                f"test-form support escapes the chart domain: {err}"
            )
        lo = mapped.min(axis=0)
        hi = mapped.max(axis=0)
        center = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo) * (1.0 + pad) + 1e-12
        boxes.append(Box(tuple(center), tuple(half)))
    return PulledBackForm(pair.forward, hatted, boxes)


# -- quadrature over the worldline parameter -------------------------------


# Most samples the fine support scan may take before it gives up.
_MAX_SCAN = 100_000


def _support_window(worldline, form, k=0):
    """The parameter window where the worldline meets the support of
    member ``k`` of the form, padded by two scan steps; None when it
    misses the support.

    When none of the ``scan`` samples is inside, the scan is repeated
    with spacing at most the smallest box half-width over the largest
    sampled speed, so that no coordinate moves further than that
    half-width between samples.  Raises :class:`QuadratureError` when
    that would take more than ``_MAX_SCAN`` samples.
    """

    def inside(taus):
        owner = np.full(len(taus), k)
        return taus[form.in_support(worldline.point_at(taus), owner)]

    t0, t1 = worldline.interval
    scan = 129
    taus = np.linspace(t0, t1, scan)
    hits = inside(taus)
    if not len(hits):
        speed = float(np.max(np.abs(worldline.velocity_at(taus))))
        fine = int(np.ceil((t1 - t0) * speed / min(form.boxes[k].half))) + 1
        if fine <= scan:
            return None
        if fine > _MAX_SCAN:
            raise QuadratureError(
                f"support scan would need {fine} samples (more than "
                f"{_MAX_SCAN}) to find the test form along the worldline",
                worst_interval=(t0, t1),
            )
        scan = fine
        hits = inside(np.linspace(t0, t1, scan))
        if not len(hits):
            return None
    step = (t1 - t0) / (scan - 1)
    return (max(t0, float(hits[0]) - 2 * step),
            min(t1, float(hits[-1]) + 2 * step))


def _pairings(worldline, form, integrands, tol_abs, tol_rel, min_panels):
    """The pairings of every member of ``form`` (a family, or a single
    form as a family of one) with the sum of ``integrands``: one report
    per member.

    An integrand is a function of an array of taus and their member
    indices, or None for one that pairs to zero.  The support windows
    are scanned once, and each integral is one :func:`integrate_many`
    over them: every member keeps its own window and panel tree, and
    each refinement level of all members is one integrand call.
    """
    reports = [PairingReport(0.0, 0.0, 0) for _ in form.boxes]
    windows = None
    for integrand in integrands:
        if integrand is None:
            continue
        if windows is None:
            windows = [_support_window(worldline, form, k)
                       for k in range(len(reports))]
        for report, res in zip(reports, integrate_many(
                integrand, windows, tol_abs, tol_rel, min_panels)):
            report.value += float(res.value)
            report.quadrature_error_estimate += float(res.error)
            report.nodes_used += int(res.nodes)
            report.floor_panels += int(res.floor_panels)
    return reports


def _form_jets(worldline, form, taus, owner):
    """The form's four jets at the worldline's points over ``taus``."""
    points, _ = worldline.eval(taus)
    return form.jets_at(points, owner)


def _charge_integrand(m, worldline, form):
    """q v^a phi_a over the form's values; None when there is no
    charge."""
    q = 0.0 if m is None else m.q
    if q == 0.0:
        return None

    def integrand(taus, owner):
        points, vel = worldline.eval(taus)
        vals = form.values_at(points, owner)
        return q * (
            vel[:, 0] * vals[:, 0] + vel[:, 1] * vals[:, 1]
            + vel[:, 2] * vals[:, 2] + vel[:, 3] * vals[:, 3]
        )

    return integrand


def _gamma_integrand(gamma2, gamma3, worldline, form):
    """-gamma[ab] d_b phi_a + (1/2) gamma[abc] d_b d_c phi_a over one
    read of the form's jets, either term absent when its components are
    None or zero; None when both are."""
    dipole = gamma2 is not None and gamma2.mask.any()
    quadrupole = gamma3 is not None and gamma3.mask.any()
    if not (dipole or quadrupole):
        return None

    def integrand(taus, owner):
        jets = _form_jets(worldline, form, taus, owner)
        terms = []
        if dipole:
            terms.append(-np.einsum("nab,nab->n", gamma2.values_at(taus),
                                    stacked(jets, taus.shape, 1)))
        if quadrupole:
            terms.append(0.5 * np.einsum("nabc,nabc->n",
                                         gamma3.values_at(taus),
                                         stacked(jets, taus.shape, 2)))
        return sum(terms[1:], terms[0])

    return integrand


@dataclass
class SourceBundle:
    """A monopole/dipole/quadrupole stack carried by one worldline."""

    worldline: object
    monopole: Monopole | None = None
    dipole: DipoleComponents | None = None
    quadrupole: QuadrupoleComponents | None = None

    def scale(self, n=17):
        taus = np.linspace(*self.worldline.interval, n)
        s = 0.0
        if self.monopole is not None:
            s = max(s, abs(self.monopole.q))
        if self.dipole is not None:
            s = max(s, self.dipole.scale(taus))
        if self.quadrupole is not None:
            s = max(s, self.quadrupole.scale(taus))
        return s


def pair_bundle_family(bundle, family, tol_abs=1e-10, tol_rel=1e-10,
                       min_panels=5):
    """The pairing of ``bundle`` with every member of a form family
    (:class:`AffineFormFamily` or its pull-back; a single form is a
    family of one) in lockstep: a list of reports, one per member.
    A bundle is at most two integrals: the charge, and the dipole plus
    quadrupole."""
    worldline = bundle.worldline
    return _pairings(
        worldline, family,
        [_charge_integrand(bundle.monopole, worldline, family),
         _gamma_integrand(bundle.dipole, bundle.quadrupole, worldline,
                          family)],
        tol_abs, tol_rel, min_panels)


def pair_bundle(bundle, form, tol_abs=1e-10, tol_rel=1e-10, min_panels=5):
    """The pairing of ``bundle`` with one form."""
    return pair_bundle_family(bundle, form, tol_abs, tol_rel, min_panels)[0]


def pair_monopole(m, worldline, form, tol_abs=1e-10, tol_rel=1e-10,
                  min_panels=5):
    """q * integral of v^a phi_a along the worldline."""
    return pair_bundle(SourceBundle(worldline, monopole=m), form, tol_abs,
                       tol_rel, min_panels)


def pair_dipole(gamma2, worldline, form, tol_abs=1e-10, tol_rel=1e-10,
                min_panels=5):
    """-integral of gamma[ab] d_b phi_a along the worldline."""
    return pair_bundle(SourceBundle(worldline, dipole=gamma2), form, tol_abs,
                       tol_rel, min_panels)


def pair_quadrupole(gamma3, worldline, form, tol_abs=1e-10, tol_rel=1e-10,
                    min_panels=5):
    """(1/2) integral of gamma[abc] d_b d_c phi_a along the worldline."""
    return pair_bundle(SourceBundle(worldline, quadrupole=gamma3), form,
                       tol_abs, tol_rel, min_panels)


def pair_adapted_coefficients(z, worldline, form, tol_abs=1e-10,
                              tol_rel=1e-10, min_panels=5):
    """Pairing of a distribution given directly by adapted-basis
    coefficients; the independent cross-check for the coefficient
    dictionary."""
    if not worldline.is_adapted():
        raise DomainError("adapted-basis pairing needs an adapted worldline")

    def integrand(taus, owner):
        jets = _form_jets(worldline, form, taus, owner)
        return z.density(taus, *(stacked(jets, taus.shape, k)
                                 for k in range(3)))

    return _pairings(worldline, form, [integrand], tol_abs, tol_rel,
                     min_panels)[0]
