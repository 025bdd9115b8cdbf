"""Pairings of worldline sources with compactly supported covector
fields, plus the numerical classification tests built on them.

The pairing numbers are the chart-invariant content of a source:

    monopole:   q * integral  v^a phi_a
    dipole:    -integral  gamma[ab] d_b phi_a
    quadrupole: (1/2) integral  gamma[abc] d_b d_c phi_a

all evaluated along the worldline.  Everything else in this module
(charge extraction, order and closedness probes) is built by feeding
specially shaped covector fields into these three integrals.

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
from .quadrature import integrate


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
# ``in_support`` take an (N, 4) array of points (N = 1 for one point)
# and return four jets over the batch, an (N, 4) array and an (N,)
# boolean array.  Work is done only at points inside the support, and
# the result is exactly zero elsewhere.


def _zero_jets(n):
    return (Jet2.zeros(n, 4),) * 4


def _jets_on(pts, inside, jets_inside):
    """Jets at the rows of ``pts``: ``jets_inside`` of the rows where
    ``inside`` holds, the zero jet elsewhere."""
    if not np.any(inside):
        return _zero_jets(len(pts))
    return tuple(j.scatter(inside) for j in jets_inside(pts[inside]))


def _values_on(pts, inside, values_inside):
    """(N, 4) values: ``values_inside`` of the rows where ``inside``
    holds, zero elsewhere."""
    out = np.zeros((len(pts), 4))
    if np.any(inside):
        out[inside] = values_inside(pts[inside])
    return out


class _BatchForm:
    """The batch front end shared by the test forms.

    A form gives ``in_support`` and its work on the live rows of an
    (N, 4) array of points, ``_jets_inside`` and ``_values_inside``;
    ``_live`` picks those rows (by default the support).
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Each form class holds its own entry points, so that tools that
        # wrap methods class by class (perfbench/tracing.py) see them all.
        cls.jets_at = cls.jets_at
        cls.values_at = cls.values_at

    def _live(self, pts):
        return self.in_support(pts)

    def jets_at(self, x):
        pts = np.asarray(x, dtype=float)
        return _jets_on(pts, self._live(pts), self._jets_inside)

    def values_at(self, x):
        pts = np.asarray(x, dtype=float)
        return _values_on(pts, self._live(pts), self._values_inside)


class ProductTestForm(_BatchForm):
    """phi_a(x) = poly_a(x) * prod_b bump((x^b - c^b) / w^b)."""

    def __init__(self, polys, box):
        if any(h <= 0 for h in box.half):
            raise DomainError("test form needs positive half-widths")
        self.polys = tuple(polys)
        self.box = box

    def in_support(self, x):
        return self.box.contains(x)

    def _window_jet(self, pts):
        w = None
        for b in range(4):
            hw = self.box.half[b]
            u = (pts[:, b] - self.box.center[b]) / hw
            grad = np.zeros(4)
            grad[b] = 1.0 / hw
            bj = apply("bump", Jet2.affine(u, grad))
            w = bj if w is None else w * bj
        return w

    def _jets_inside(self, pts):
        w = self._window_jet(pts)
        seeds = Jet2.seed_point(columns(pts))
        return tuple(
            Jet2.constant(0.0, 4) if isinstance(p, ex.Const) and p.v == 0.0
            else p.eval(seeds) * w
            for p in self.polys
        )

    def _values_inside(self, pts):
        w = 1.0
        for b in range(4):
            w = w * apply(
                "bump", (pts[:, b] - self.box.center[b]) / self.box.half[b])
        env = columns(pts)
        return entries_array([p.eval(env) * w for p in self.polys],
                             (len(pts),))


class ExprCovector(_BatchForm):
    """Four raw expression components; support box is advisory (used
    for bracketing the quadrature, not enforced)."""

    def __init__(self, comps, box=None):
        self.comps = tuple(comps)
        self.box = box

    def in_support(self, x):
        if self.box is not None:
            return self.box.contains(x)
        return np.ones(len(x), dtype=bool)

    def _jets_inside(self, pts):
        return ex.eval_all(self.comps, Jet2.seed_point(columns(pts)))

    def _values_inside(self, pts):
        return entries_array(ex.eval_all(self.comps, columns(pts)),
                             (len(pts),))


class ScaledCovector(_BatchForm):
    """phi_a = scalar^power * base_a (integer power >= 1)."""

    def __init__(self, scalar, power, base):
        self.scalar = scalar
        self.power = int(power)
        self.base = base

    @property
    def box(self):
        return getattr(self.base, "box", None)

    def in_support(self, x):
        return self.base.in_support(x)

    def _jets_inside(self, pts):
        s = self.scalar.eval(Jet2.seed_point(columns(pts))) ** self.power
        return tuple(j * s for j in self.base.jets_at(pts))

    def _values_inside(self, pts):
        s = self.scalar.eval(columns(pts)) ** self.power
        return self.base.values_at(pts) * np.reshape(s, (-1, 1))


class PulledBackForm(_BatchForm):
    """A hatted-chart test form seen from the source chart.

    phi_a(x) = (d hatted^b / d x^a)(x) * hatted_phi_b(hatted(x)); the
    Jacobian factors are symbolic derivatives of the chart components so
    that second jet derivatives of the pullback stay exact.  Points
    outside the chart's domain raise :class:`DomainError` (except in
    ``in_support``, where they are outside the support).
    """

    def __init__(self, chart, hatted, box):
        self.chart = chart
        self.hatted = hatted
        self.box = box
        self._jac = chart.jacobian_exprs()

    def in_support(self, x):
        pts = np.asarray(x, dtype=float)
        ok = self.chart.in_domain(pts)
        out = np.zeros(len(pts), dtype=bool)
        if np.any(ok):
            out[ok] = self.hatted.in_support(self.chart.value_at(pts[ok]))
        return out

    def _live(self, pts):
        """Rows whose image lies in the hatted support; a row outside the
        chart domain raises."""
        return self.hatted.in_support(self.chart.value_at(pts))

    def _jets_inside(self, pts):
        Y = self.chart.jets_at(pts)
        outer = self.hatted.jets_at(
            stacked(Y, (len(pts),), 0))
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

    def _values_inside(self, pts):
        hv = self.hatted.values_at(self.chart.value_at(pts))
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
    """Transport a hatted-chart test form to the source chart of
    ``pair``.

    The support is carried conservatively: boundary samples of the
    hatted box are mapped through the inverse chart and their bounding
    box, padded, becomes the source-side box.  Raises
    :class:`DomainError` when the support escapes the chart domain.
    """
    try:
        mapped = pair.inverse.value_at(hatted.box.grid(samples_per_axis))
    except DomainError as err:
        raise DomainError(
            f"test-form support escapes the chart domain: {err}"
        )
    lo = mapped.min(axis=0)
    hi = mapped.max(axis=0)
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * (1.0 + pad) + 1e-12
    box = Box(tuple(center), tuple(half))
    return PulledBackForm(pair.forward, hatted, box)


# -- quadrature over the worldline parameter -------------------------------


# Most samples the fine support scan may take before it gives up.
_MAX_SCAN = 100_000


def _support_window(worldline, form, scan=129):
    """The parameter window where the worldline meets the form's
    support, padded by two scan steps; None when it misses the support.

    When none of the ``scan`` samples is inside, the scan is repeated
    with spacing at most the smallest box half-width over the largest
    sampled speed, so that no coordinate moves further than that
    half-width between samples.  Raises :class:`QuadratureError` when
    that would take more than ``_MAX_SCAN`` samples.
    """
    t0, t1 = worldline.interval
    taus = np.linspace(t0, t1, scan)
    inside = taus[form.in_support(worldline.point_at(taus))]
    if not len(inside):
        speed = float(np.max(np.abs(worldline.velocity_at(taus))))
        fine = int(np.ceil((t1 - t0) * speed / min(form.box.half))) + 1
        if fine <= scan:
            return None
        if fine > _MAX_SCAN:
            raise QuadratureError(
                f"support scan would need {fine} samples (more than "
                f"{_MAX_SCAN}) to find the test form along the worldline",
                worst_interval=(t0, t1),
            )
        scan = fine
        taus = np.linspace(t0, t1, scan)
        inside = taus[form.in_support(worldline.point_at(taus))]
        if not len(inside):
            return None
    step = (t1 - t0) / (scan - 1)
    return (max(t0, float(inside[0]) - 2 * step),
            min(t1, float(inside[-1]) + 2 * step))


def _run_pairing(worldline, form, integrand, tol_abs, tol_rel, min_panels):
    """Integrate ``integrand`` (a function of an array of taus) over the
    part of the worldline that meets the form's support."""
    window = _support_window(worldline, form)
    if window is None:
        return PairingReport(0.0, 0.0, 0)
    res = integrate(integrand, window[0], window[1], tol_abs=tol_abs,
                    tol_rel=tol_rel, min_panels=min_panels)
    return PairingReport(float(res.value), float(res.error), int(res.nodes),
                         floor_panels=int(res.floor_panels))


def _form_jets(worldline, form, taus):
    """The form's four jets at the worldline's points over ``taus``."""
    points, _ = worldline.eval(taus)
    return form.jets_at(points)


def pair_monopole(m, worldline, form, tol_abs=1e-10, tol_rel=1e-10,
                  min_panels=5):
    """q * integral of v^a phi_a along the worldline."""
    q = m.q
    if q == 0.0:
        return PairingReport(0.0, 0.0, 0)

    def integrand(taus):
        points, vel = worldline.eval(taus)
        vals = form.values_at(points)
        return q * (
            vel[:, 0] * vals[:, 0] + vel[:, 1] * vals[:, 1]
            + vel[:, 2] * vals[:, 2] + vel[:, 3] * vals[:, 3]
        )

    return _run_pairing(worldline, form, integrand, tol_abs, tol_rel,
                        min_panels)


def pair_dipole(gamma2, worldline, form, tol_abs=1e-10, tol_rel=1e-10,
                min_panels=5):
    """-integral of gamma[ab] d_b phi_a along the worldline."""
    if not gamma2.mask.any():
        return PairingReport(0.0, 0.0, 0)

    def integrand(taus):
        grads = stacked(_form_jets(worldline, form, taus), taus.shape, 1)
        return -np.einsum("nab,nab->n", gamma2.values_at(taus), grads)

    return _run_pairing(worldline, form, integrand, tol_abs, tol_rel,
                        min_panels)


def pair_quadrupole(gamma3, worldline, form, tol_abs=1e-10, tol_rel=1e-10,
                    min_panels=5):
    """(1/2) integral of gamma[abc] d_b d_c phi_a along the worldline."""
    if not gamma3.mask.any():
        return PairingReport(0.0, 0.0, 0)

    def integrand(taus):
        hess = stacked(_form_jets(worldline, form, taus), taus.shape, 2)
        return 0.5 * np.einsum("nabc,nabc->n", gamma3.values_at(taus), hess)

    return _run_pairing(worldline, form, integrand, tol_abs, tol_rel,
                        min_panels)


@dataclass
class SourceBundle:
    """A monopole/dipole/quadrupole stack carried by one worldline."""

    worldline: object
    monopole: Monopole | None = None
    dipole: DipoleComponents | None = None
    quadrupole: QuadrupoleComponents | None = None

    def parts(self):
        out = []
        if self.monopole is not None:
            out.append(("monopole", self.monopole))
        if self.dipole is not None:
            out.append(("dipole", self.dipole))
        if self.quadrupole is not None:
            out.append(("quadrupole", self.quadrupole))
        return out

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


def pair_bundle(bundle, form, tol_abs=1e-10, tol_rel=1e-10, min_panels=5):
    pairings = {"monopole": pair_monopole, "dipole": pair_dipole,
                "quadrupole": pair_quadrupole}
    value = 0.0
    err = 0.0
    nodes = 0
    floor_panels = 0
    for kind, part in bundle.parts():
        r = pairings[kind](part, bundle.worldline, form, tol_abs, tol_rel,
                           min_panels)
        value += r.value
        err += r.quadrature_error_estimate
        nodes += r.nodes_used
        floor_panels += r.floor_panels
    return PairingReport(value, err, nodes, floor_panels=floor_panels)


def pair_adapted_coefficients(z, worldline, form, tol_abs=1e-10,
                              tol_rel=1e-10, min_panels=5):
    """Pairing of a distribution given directly by adapted-basis
    coefficients; the independent cross-check for the coefficient
    dictionary."""
    if not worldline.is_adapted():
        raise DomainError("adapted-basis pairing needs an adapted worldline")

    def integrand(taus):
        jets = _form_jets(worldline, form, taus)
        return z.density(taus, *(stacked(jets, taus.shape, k)
                                 for k in range(3)))

    return _run_pairing(worldline, form, integrand, tol_abs, tol_rel,
                        min_panels)
