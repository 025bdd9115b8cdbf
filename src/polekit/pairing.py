"""Pairings of worldline sources with compactly supported covector
fields, plus the numerical classification tests built on them.

The pairing numbers are the chart-invariant content of a source:

    monopole:   q * integral  v^a phi_a
    dipole:    -integral  gamma[ab] d_b phi_a
    quadrupole: (1/2) integral  gamma[abc] d_b d_c phi_a

all evaluated along the worldline.  A source bundle pairs as at most
two integrals: the charge over the form's values, and the dipole and
quadrupole together over one read of the form's jets.  Each integrand
decides the support once per call (:func:`_on_support`): it finds the
rows of a batch where the worldline meets the form's support (the
form's ``in_support``), reads the components and the form there alone,
and gives exact zeros at every other row.  A pairing returns the
:class:`~polekit.quadrature.QuadResult` of its integrals: the value,
the summed error estimate, the nodes used and the floor-accepted
panels.  The jet integrand reads the form to the order the
bundle needs: first-order jets (no Hessian rows, see
:mod:`polekit.jets`) when it has no quadrupole term, second-order jets
when it has one; the gradients are the same bits either way.
The charge extraction and the order and closedness probes of
:mod:`polekit.classify` feed specially shaped covector fields into
these integrals.

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
from .jets import (PRIMITIVES, Jet2, apply, columns, compose, entries_array,
                   stacked)
from .moments import DipoleComponents, Monopole, QuadrupoleComponents
from .quadrature import CALL_ENTRIES, QuadResult, integrate_many


@dataclass(frozen=True)
class Box:
    center: tuple
    half: tuple

    def grid(self, factor=1.0):
        """The 3^4 points of a regular grid over the box scaled by
        ``factor`` about its center, as an (81, 4) array."""
        axes = [np.linspace(c - factor * h, c + factor * h, 3)
                for c, h in zip(self.center, self.half)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


# Test forms evaluate over batches: ``jets_at(x, owner, order)``,
# ``values_at(x, owner)`` and ``in_support(x, owner)`` take an
# (N, 4) array of points (N = 1 for one point) and the (N,) int array
# of the member index of each row, and return four jets over the batch
# truncated at ``order`` (1 or 2), an (N, 4) array and an (N,) boolean
# array.  Every form is a family that evaluates row i as its member
# owner[i]; a single form is the one-member case, for which None will
# do as the index.  ``jets_at`` and
# ``values_at`` evaluate the rows they are given, which the caller has
# in the support: they test no support themselves (the pairing
# integrands pick the live rows with ``in_support``, see
# :func:`_on_support`).  A form windowed by ``bump`` or ``sstep`` reads
# exact zeros outside its box anyway.  The bump window's jet and a
# family's polynomial jets are formed from their structure, with the
# bits of the general jet products up to the sign of zeros (pinned by
# the ``*_bit_for_bit`` tests of tests/test_pairing.py).


# _window_jet forms its packed Hessian by column, entry (a, b) at row
# b(b+1)/2 + a, so that the entries of the first k factors lead.
_TRIU_OF_COLUMNS = np.array([0, 1, 3, 6, 2, 4, 7, 5, 8, 9])


def _window_jet(pts, center, half, order):
    """Jet of prod_b bump((x^b - center^b) / half^b) at the rows of
    ``pts``, truncated at ``order``; ``center`` and ``half`` are (4,) or
    one row per point.  Factor b depends on x^b alone, so only the
    entries that can be nonzero are formed, each multiplied in the order
    of the general product ((b0 b1) b2) b3, whose bits it has."""
    ihw = 1.0 / np.atleast_2d(half).T
    v, grad, h = PRIMITIVES["bump"][1](((pts - center) / half).T)
    grad = grad * ihw
    value = v[0]
    if order == 2:
        h = (h * ihw) * ihw
        hess = np.empty((10,) + value.shape)
        hess[0] = h[0]
    for k in range(1, 4):
        if order == 2:
            t = k * (k + 1) // 2
            hess[t:t + k] = grad[:k] * grad[k]
            hess[t + k] = value * h[k]
            hess[:t] *= v[k]
        grad[:k] *= v[k]
        grad[k] *= value
        value = value * v[k]
    return Jet2(value, grad.T,
                hess[_TRIU_OF_COLUMNS].T if order == 2 else None)


def _window_values(pts, center, half):
    """The values of :func:`_window_jet`."""
    return apply("bump", ((pts - center) / half).T).prod(axis=0)


class _BatchForm:
    """What the test forms share.

    A form gives ``in_support``, and ``jets_at`` and ``values_at`` over
    rows the caller has in the support.  ``boxes`` holds the support box
    of each member, also as the (K, 4) arrays ``centers`` and
    ``halves``; ``box`` is the first, and a form's support is its
    members' boxes unless the form says otherwise.

    The expression forms (:class:`ProductTestForm`, :class:`ExprCovector`
    and, through its base, :class:`ScaledCovector`) are families in
    place: one set of trees serves every member, reading the
    coordinates as variables 0..3 and the member's constants
    ``params[k]`` as variables 4, 5, ... (see :meth:`_env`); their
    :meth:`_jets` and :meth:`_values` read the trees at a given
    environment.  A row evaluated as member k gets the bits of a tree
    built with those constants in it, up to the sign of zeros: every
    operation on a constant is the same elementwise operation on its
    column.
    """

    def __init__(self, boxes, params=None):
        self.boxes = tuple(boxes)
        self.centers = np.array([b.center for b in self.boxes], dtype=float)
        self.halves = np.array([b.half for b in self.boxes], dtype=float)
        if np.any(self.halves <= 0):
            raise DomainError("test form needs positive half-widths")
        self.params = (np.zeros((len(self.boxes), 0)) if params is None
                       else np.asarray(params, dtype=float))
        # One row per constant, one column per member.
        self._param_rows = np.ascontiguousarray(self.params.T)

    @property
    def box(self):
        return self.boxes[0]

    def in_support(self, x, owner):
        k = _members(owner)
        return np.all(np.abs(np.asarray(x, dtype=float) - self.centers[k])
                      < self.halves[k], axis=-1)

    def _env(self, x, owner, order=None):
        """What the trees are evaluated at over the rows of ``x``: the
        coordinates, then the constants of each row's member; as seed
        jets truncated at ``order`` and constant jets when ``order`` is
        given."""
        consts = tuple(np.take(self._param_rows, _members(owner), axis=1))
        if order is None:
            return columns(x) + consts
        return (Jet2.seed_point(columns(x), order)
                + tuple(Jet2.constant(c, 4) for c in consts))

    def _jets(self, env, x, owner, order):
        """``jets_at`` over the environment ``env`` of :meth:`_env`,
        which a form without trees does not read."""
        return self.jets_at(x, owner, order)

    def _values(self, env, x, owner):
        """``values_at`` over the environment ``env`` of :meth:`_env`."""
        return self.values_at(x, owner)


def _members(owner):
    """The member index of each row, member 0 for ``owner`` None."""
    return 0 if owner is None else owner


class ProductTestForm(_BatchForm):
    """phi_a(x) = poly_a(x) * prod_b bump((x^b - c^b) / w^b), with the
    box (c, w) and the constants of each member; ``polys`` is the
    :class:`~polekit.expr.Program` of the four polynomials."""

    def __init__(self, polys, boxes, params=None):
        super().__init__(boxes, params)
        self.polys = polys

    def jets_at(self, x, owner, order):
        return self._jets(self._env(x, owner, order), x, owner, order)

    def values_at(self, x, owner):
        return self._values(self._env(x, owner), x, owner)

    def _jets(self, env, x, owner, order):
        k = _members(owner)
        w = _window_jet(x, self.centers[k], self.halves[k], order)
        return tuple(
            Jet2.constant(0.0, 4) if ex.is_zero(tree) else p * w
            for tree, p in zip(self.polys.trees, self.polys(env))
        )

    def _values(self, env, x, owner):
        k = _members(owner)
        w = _window_values(x, self.centers[k], self.halves[k])
        return entries_array([p * w for p in self.polys(env)], (len(x),))


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
        super().__init__(
            Box(tuple(float(c) for c in m), tuple(float(h) for h in w))
            for m, w in zip(np.reshape(centers, (-1, 4)),
                            np.reshape(halves, (-1, 4))))
        self.consts = np.reshape(np.asarray(consts, dtype=float), (-1, 4))
        self.coefs = np.reshape(np.asarray(coefs, dtype=float), (-1, 4, 4))

    def _polys(self, env, owner):
        """The values of the four polynomials at the coordinates
        ``env``."""
        k, c, m = self.consts[owner], self.coefs[owner], self.centers[owner]
        out = []
        for a in range(4):
            e = (env[0] - m[:, 0]) * c[:, a, 0] + k[:, a]
            for b in range(1, 4):
                e = e + (env[b] - m[:, b]) * c[:, a, b]
            out.append(e)
        return out

    def jets_at(self, x, owner, order):
        w = _window_jet(x, self.centers[owner], self.halves[owner], order)
        c = self.coefs[owner].T
        return tuple(Jet2.affine(p, c[:, a], order) * w for a, p in
                     enumerate(self._polys(columns(x), owner)))

    def values_at(self, x, owner):
        w = _window_values(x, self.centers[owner], self.halves[owner])
        return entries_array(
            [p * w for p in self._polys(columns(x), owner)], (len(x),))


def _random_affine(rng, half_widths):
    """The constants (4,) and coefficients (4, 4) of four random affine
    component polynomials."""
    consts = np.empty(4)
    coefs = np.empty((4, 4))
    for a in range(4):
        consts[a] = rng.uniform(0.4, 1.6) * rng.choice([-1, 1])
        for b in range(4):
            coefs[a, b] = rng.uniform(-1, 1) / max(half_widths[b], 1e-9)
    return consts, coefs


def random_test_form_along(rng, worldline, count=1):
    """``count`` test forms, drawn one after the other from the numpy
    Generator ``rng``, as one :class:`AffineFormFamily`; each box sits
    on the worldline image, its center parameter at least 0.2 of the
    interval from either end (pairing identities integrate by parts in
    tau, so probes must vanish at the interval boundary).

    The time half-width is 0.08 to 0.2 of the parameter interval; the
    spatial half-widths are 0.08 to 0.2, so boxes stay small compared to
    chart features (axis distance, branch cuts)."""
    t0, t1 = worldline.interval
    length = t1 - t0
    draws = []
    for _ in range(count):
        tc = rng.uniform(t0 + 0.2 * length, t1 - 0.2 * length)
        tw = float(rng.uniform(0.08, 0.2) * length)
        sw = rng.uniform(0.08, 0.2, 3)
        widths = (tw, float(sw[0]), float(sw[1]), float(sw[2]))
        draws.append((*_random_affine(rng, widths), tc, widths))
    consts, coefs, tcs, halves = (np.array([d[i] for d in draws])
                                  for i in range(4))
    return AffineFormFamily(consts, coefs, worldline.point_at(tcs), halves)


class ExprCovector(_BatchForm):
    """Four expression components (``comps``, their
    :class:`~polekit.expr.Program`), with the box and the constants of
    each member; read as zero outside the box (its ``in_support``)."""

    def __init__(self, comps, boxes, params=None):
        super().__init__(boxes, params)
        self.comps = comps

    def jets_at(self, x, owner, order):
        return self._jets(self._env(x, owner, order), x, owner, order)

    def values_at(self, x, owner):
        return self._values(self._env(x, owner), x, owner)

    def _jets(self, env, x, owner, order):
        return self.comps(env)

    def _values(self, env, x, owner):
        return entries_array(self.comps(env), (len(x),))


class ScaledCovector(_BatchForm):
    """phi_a = scalar^power * base_a (integer power >= 1); ``scalar`` is
    the :class:`~polekit.expr.Program` of one tree, which reads the
    constants of the base's members.  A call builds the base's
    environment once, for the scalar and the base's components."""

    def __init__(self, scalar, power, base):
        self.scalar = scalar
        self.power = int(power)
        self.base = base

    @property
    def boxes(self):
        return self.base.boxes

    def in_support(self, x, owner):
        return self.base.in_support(x, owner)

    def jets_at(self, x, owner, order):
        env = self.base._env(x, owner, order)
        s = self.scalar(env)[0] ** self.power
        return tuple(j * s for j in self.base._jets(env, x, owner, order))

    def values_at(self, x, owner):
        env = self.base._env(x, owner)
        s = self.scalar(env)[0] ** self.power
        return self.base._values(env, x, owner) * np.reshape(s, (-1, 1))


class PulledBackForm(_BatchForm):
    """A hatted-chart test form (or family) seen from the source chart.

    phi_a(x) = (d hatted^b / d x^a)(x) * hatted_phi_b(hatted(x)); the
    Jacobian factors are symbolic derivatives of the chart components so
    that second jet derivatives of the pullback stay exact.  They and the
    chart jets do not depend on the member, so one pull-back serves a
    whole family, with a source-side box per member.  The support is
    the preimage of the hatted support, which lies inside the chart's
    domain: ``in_support`` reads a point outside the domain as outside
    the support, and the other evaluators raise :class:`DomainError`
    there.
    """

    def __init__(self, chart, hatted, boxes):
        self.chart = chart
        self.hatted = hatted
        self.boxes = tuple(boxes)
        # The (a, b) pairs where d hatted^b / d x^a is not the constant
        # zero, with those Jacobian entries, evaluated in one pass.
        jac = chart.jacobian_exprs()
        self._terms = [(a, b) for a in range(4) for b in range(4)
                       if not ex.is_zero(jac[b][a])]
        self._jac = ex.Program(jac[b][a] for a, b in self._terms)

    def in_support(self, x, owner):
        pts = np.asarray(x, dtype=float)
        ok = self.chart.in_domain(pts)
        out = np.zeros(len(pts), dtype=bool)
        if np.any(ok):
            out[ok] = self.hatted.in_support(self.chart.value_at(pts[ok]),
                                             owner[ok])
        return out

    def jets_at(self, x, owner, order):
        Y = self.chart.jets_at(x, order)
        outer = self.hatted.jets_at(stacked(Y, (len(x),), 0), owner, order)
        composed = compose(outer, Y)
        jac = self._jac(Jet2.seed_point(columns(x), order))
        out = [Jet2.constant(0.0, 4)] * 4
        for (a, b), d in zip(self._terms, jac):
            out[a] = out[a] + d * composed[b]
        return tuple(out)

    def values_at(self, x, owner):
        hv = self.hatted.values_at(self.chart.value_at(x), owner)
        out = np.zeros((len(x), 4))
        for (a, b), d in zip(self._terms, self._jac(columns(x))):
            out[:, a] += d * hv[:, b]
        return out


def make_test_form(polys, center, half_widths):
    """Compactly supported covector field from 4 polynomial expressions
    and a support box."""
    box = Box(tuple(float(c) for c in center),
              tuple(float(h) for h in half_widths))
    return ProductTestForm(ex.Program(ex._coerce(p) for p in polys), [box])


def pull_back_test_form(hatted, pair):
    """Transport a hatted-chart test form (or family) to the source chart
    of ``pair``.

    The support is carried conservatively, member by member: boundary
    samples of the hatted box are mapped through the inverse chart (all
    members' samples in one call) and their bounding box, padded by
    10%, becomes the source-side box.  Raises :class:`DomainError` when
    the support escapes the chart domain, naming a point of the first
    member whose support escapes.
    """
    grids = [box.grid() for box in hatted.boxes]
    try:
        try:
            mapped = pair.inverse.value_at(np.concatenate(grids))
        except Exception:
            # Member by member, so that the first member that fails
            # raises the error it raises alone.
            for grid in grids:
                pair.inverse.value_at(grid)
            raise
    except DomainError as err:
        raise DomainError(
            f"test-form support escapes the chart domain: {err}"
        )
    mapped = mapped.reshape(len(grids), -1, 4)
    lo = mapped.min(axis=1)
    hi = mapped.max(axis=1)
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * 1.1 + 1e-12
    boxes = [Box(tuple(c), tuple(h)) for c, h in zip(center, half)]
    return PulledBackForm(pair.forward, hatted, boxes)


# -- quadrature over the worldline parameter -------------------------------


# Most samples the fine support scan may take before it gives up.
_MAX_SCAN = 100_000


def _support_window(worldline, form, k):
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


def _pairings(worldline, form, integrands):
    """The pairings of every member of ``form`` (a family, or a single
    form as a family of one) with the sum of ``integrands``: one report
    per member.

    An integrand is one of :func:`_on_support`, or None for one that
    pairs to zero.  The support windows are scanned once, and each
    integral is one :func:`integrate_many` over them to 1e-10 absolute
    and relative, starting from 5 panels: every member keeps its own
    window and panel tree, and each refinement level of all members
    goes to the integrand in calls of at most its ``rows`` taus.
    """
    reports = [QuadResult(0.0, 0.0, 0, 0) for _ in form.boxes]
    windows = None
    for integrand in integrands:
        if integrand is None:
            continue
        if windows is None:
            windows = [_support_window(worldline, form, k)
                       for k in range(len(reports))]
        for report, res in zip(reports, integrate_many(
                integrand, windows, integrand.rows)):
            report.value += res.value
            report.quadrature_error_estimate += res.quadrature_error_estimate
            report.nodes_used += res.nodes_used
            report.floor_panels += res.floor_panels
    return reports


# The entries per component of the form's jets to order 0 (its
# values), 1 and 2: the value, 4 gradient and 10 packed Hessian entries.
_JET_ENTRIES = (1, 5, 15)


def _on_support(worldline, form, order, f):
    """The integrand, a function of taus and their member indices, that
    evaluates the worldline once, picks the rows where it meets the
    form's support (``form.in_support``), gives ``f(taus, points, vel,
    owner)`` over those rows alone and exact zeros at every other row.

    ``f`` reads the form's jets to ``order`` (0 for its values); the
    integrand's ``rows``, the most taus one call takes, holds
    ``CALL_ENTRIES`` of those entries per component."""

    def integrand(taus, owner):
        points, vel = worldline.eval(taus)
        live = form.in_support(points, owner)
        out = np.zeros(len(taus))
        if np.any(live):
            out[live] = f(taus[live], points[live], vel[live], owner[live])
        return out

    integrand.rows = CALL_ENTRIES // _JET_ENTRIES[order]
    return integrand


def _charge_integrand(m, worldline, form):
    """q v^a phi_a over the form's values; None when there is no
    charge."""
    q = 0.0 if m is None else m.q
    if q == 0.0:
        return None

    def charge(taus, points, vel, owner):
        vals = form.values_at(points, owner)
        return q * (
            vel[:, 0] * vals[:, 0] + vel[:, 1] * vals[:, 1]
            + vel[:, 2] * vals[:, 2] + vel[:, 3] * vals[:, 3]
        )

    return _on_support(worldline, form, 0, charge)


def _gamma_integrand(gamma2, gamma3, worldline, form):
    """-gamma[ab] d_b phi_a + (1/2) gamma[abc] d_b d_c phi_a over one
    read of the form's jets (of order 2 only when there is a quadrupole
    term), either term absent when its components are None or zero;
    None when both are."""
    dipole = gamma2 is not None and not gamma2.zero
    quadrupole = gamma3 is not None and not gamma3.zero
    if not (dipole or quadrupole):
        return None
    order = 2 if quadrupole else 1

    def gamma(taus, points, vel, owner):
        jets = form.jets_at(points, owner, order)
        terms = []
        if dipole:
            terms.append(-np.einsum("nab,nab->n", gamma2.values_at(taus),
                                    stacked(jets, taus.shape, 1)))
        if quadrupole:
            terms.append(0.5 * np.einsum("nabc,nabc->n",
                                         gamma3.values_at(taus),
                                         stacked(jets, taus.shape, 2)))
        return sum(terms[1:], terms[0])

    return _on_support(worldline, form, order, gamma)


@dataclass
class SourceBundle:
    """A monopole/dipole/quadrupole stack carried by one worldline."""

    worldline: object
    monopole: Monopole | None = None
    dipole: DipoleComponents | None = None
    quadrupole: QuadrupoleComponents | None = None

    def scale(self):
        taus = np.linspace(*self.worldline.interval, 17)
        s = 0.0
        if self.monopole is not None:
            s = max(s, abs(self.monopole.q))
        for part in (self.dipole, self.quadrupole):
            if part is not None:
                s = max(s, part.residuals(taus)[1])
        return s


def pair_bundle_family(bundle, family):
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
                          family)])


def pair_bundle(bundle, form):
    """The pairing of ``bundle`` with one form."""
    return pair_bundle_family(bundle, form)[0]


def pair_monopole(m, worldline, form):
    """q * integral of v^a phi_a along the worldline."""
    return pair_bundle(SourceBundle(worldline, monopole=m), form)


def pair_dipole(gamma2, worldline, form):
    """-integral of gamma[ab] d_b phi_a along the worldline."""
    return pair_bundle(SourceBundle(worldline, dipole=gamma2), form)


def pair_quadrupole(gamma3, worldline, form):
    """(1/2) integral of gamma[abc] d_b d_c phi_a along the worldline."""
    return pair_bundle(SourceBundle(worldline, quadrupole=gamma3), form)


def pair_adapted_coefficients(z, worldline, form):
    """Pairing of a distribution given directly by adapted-basis
    coefficients; the independent cross-check for the coefficient
    dictionary."""
    if not worldline.is_adapted():
        raise DomainError("adapted-basis pairing needs an adapted worldline")

    def density(taus, points, vel, owner):
        jets = form.jets_at(points, owner, 2)
        return z.density(taus, *(stacked(jets, taus.shape, k)
                                 for k in range(3)))

    return _pairings(worldline, form,
                     [_on_support(worldline, form, 2, density)])[0]
