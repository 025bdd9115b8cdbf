"""Composite adaptive Gauss-Legendre quadrature (16 nodes per panel).

Integrands here are smooth (chart derivatives along a worldline, bump
windows), so a high-order rule converges fast; the embedded error
estimate per panel is the difference between the one-panel rule and the
sum over its two halves.  A panel is accepted when that difference is
below ``tol * (panel width / total width) + tol * |panel value|`` and
the two halves are then stored, so cumulative values stay exactly
consistent with the accepted quadrature.  :func:`integrate_many` (and
so :func:`integrate`) starts from 5 panels at ``tol`` 1e-10, a
:class:`CumulativeIntegral` from 4 panels at the ``tol`` it is given.

Integrands are evaluated over batches of nodes: ``f`` receives a 1-D
array of N taus and returns the array of its values, of shape (N,) (or
(N, dim) for :class:`CumulativeIntegral`); any other shape raises, and
so does a NaN or an infinity among the values (a panel difference that
is not finite cannot be judged against its budget).
Values are read as a C-ordered array, so results do not depend on the
memory layout of the array ``f`` returns.  A split passes the values of
its two halves on to the children, whose one-panel rule they are, so
every node is evaluated exactly once.  A :class:`QuadResult` counts
those evaluations as ``nodes_used``: 16 per half panel plus 16 per
initial panel.

:func:`integrate_many` runs several integrals in lockstep, and
:func:`integrate` is its one-interval case.  Each integral keeps its own
panel tree, so its nodes, values and summation order are those it has
alone; but the panels pending at one refinement level, of all
integrals, go to the integrand together, in calls ``f(taus, owner)`` of
at most ``rows`` nodes, where ``owner`` holds the integral each tau
belongs to.  The caller sizes ``rows`` by what its integrand reads per
node, to one budget of ``CALL_ENTRIES`` jet entries per call: the fixed
cost of a call is spread over many nodes, while the arrays it builds
stay small.

:class:`CumulativeIntegral` materializes an antiderivative: each stored
segment keeps the Legendre-series coefficients of the integrand, whose
termwise antiderivative evaluates the running integral anywhere inside
the segment with the same error budget as the quadrature itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError

_N = 16
_NODES, _WEIGHTS = leggauss(_N)

# _LEG_AT_NODES[k][i] = L_k(node_i) for k = 0..16 (one above the rule
# order, needed by the antiderivative recurrence).
def _legendre_rows():
    rows = [np.ones(_N), _NODES.copy()]
    for k in range(1, _N + 1):
        rows.append(((2 * k + 1) * _NODES * rows[k] - k * rows[k - 1]) / (k + 1))
    return np.array(rows[: _N + 1])


_LEG_AT_NODES = _legendre_rows()
# Discrete projection (exact for the degree-15 interpolant of the node
# values): c_k = (2k+1)/2 * sum_i w_i f_i L_k(x_i).
_PROJ = ((2 * np.arange(_N) + 1) / 2.0)[:, None] * (_WEIGHTS[None, :] * _LEG_AT_NODES[:_N])

_MAX_SPLITS = 2000
# Tolerance and starting panel count of integrate_many, and the starting
# panel count of a CumulativeIntegral.
_TOL = 1e-10
_PANELS = 5
_CUMULATIVE_PANELS = 4
# Most jet entries an integrand call reads per component: its rows
# times the entries of each row's jet, 1 for values, 5 for first-order
# jets and 15 for second-order jets, so a call takes up to 7680, 1536
# or 512 rows.  A call has a large fixed cost, which is spread over as
# many rows as the budget allows: the jets of a classify closedness
# family take 0.53 ms on 1 row and 0.95 ms on 512 at first order, 0.81
# and 2.6 ms at second order (2-vCPU Xeon VM, best of 5 x 100 calls).
# Second order stays at 512 rows because that is where the pulled-back
# verify forms hold their memory: on the worked-example benchmark, 2048
# rows per second-order call raised peak RSS by 13-14% (42.9 -> 48.6-
# 48.8 MB), past the benchmark's 10% bound.
CALL_ENTRIES = 512 * 15


@dataclass
class QuadResult:
    value: float
    quadrature_error_estimate: float
    nodes_used: int
    floor_panels: int


def _batched(f, tail=()):
    """``f`` (of taus, or of taus and their owners) returning a C-ordered
    float array of shape ``(N,) + tail``; raises ValueError when ``f``
    returns another shape."""

    def call(taus, *owner):
        vals = np.asarray(f(taus, *owner), dtype=float)
        if vals.shape != taus.shape + tail:
            raise ValueError(
                f"integrand returned shape {vals.shape} for {len(taus)} "
                f"taus; expected {taus.shape + tail}")
        return np.ascontiguousarray(vals)

    return call


def _panel_sum(vals, a, b):
    return 0.5 * (b - a) * float(_WEIGHTS @ vals)


def _refine(f, windows, tol, panels, rows, label):
    """The adaptive panel trees of the windows [a, b] (None or empty
    windows have none), refined level by level in lockstep, with at
    most ``rows`` nodes per call of ``f``.

    Each window starts as ``panels`` equal panels.  Each panel [pa, pb]
    is accepted when the 16-node rule on it and the sum of the rules on
    its halves differ by at most ``tol * (pb - pa) / (b - a) + tol *
    |halves|`` (or when it is narrower than 1e-14 of its window), else
    it is split; each window may split ``_MAX_SPLITS`` times.  The first
    level whose values hold a NaN or an infinity raises, naming ``label``
    and the tau of the first such value.

    Returns per window the accepted panels as (pa, pm, pb, left values,
    right values, difference) in the order of a right-to-left
    depth-first walk, the number of nodes evaluated, and the number of
    accepted panels narrower than the width floor.
    """
    pending = []
    for k, window in enumerate(windows):
        if window is not None and not window[1] <= window[0]:
            a, b = window
            step = (b - a) / panels
            pending += [(k, a + i * step, min(b, a + (i + 1) * step), None)
                        for i in range(panels)]
    accepted = [[] for _ in windows]
    nodes = [0] * len(windows)
    splits = [0] * len(windows)
    floor_panels = [0] * len(windows)
    while pending:
        # The 16 nodes of each panel still without its one-panel values
        # and of every half panel, in panel order, as one array.
        ends = []
        counts = []
        for k, pa, pb, coarse in pending:
            pm = 0.5 * (pa + pb)
            if coarse is None:
                ends.append((pa, pb))
            ends += [(pa, pm), (pm, pb)]
            counts.append(_N * (2 if coarse is not None else 3))
            nodes[k] += counts[-1]
        lo, hi = np.array(ends).T[:, :, None]
        taus = (0.5 * (lo + hi) + 0.5 * (hi - lo) * _NODES).ravel()
        owner = np.repeat([panel[0] for panel in pending], counts)
        vals = np.concatenate([
            f(taus[i:i + rows], owner[i:i + rows])
            for i in range(0, len(taus), rows)])
        finite = np.isfinite(vals)
        if not finite.all():
            row = np.argmin(finite.reshape(len(vals), -1).all(axis=1))
            raise QuadratureError(
                f"{label}: non-finite integrand value at tau={taus[row]}")
        # The error of one integral is a scalar's abs; a vector
        # integrand's is the largest over its components.
        if vals.ndim == 1:
            size = abs
        else:
            def size(x):
                return np.max(np.abs(x))
        i = 0
        children = []
        for k, pa, pb, coarse in pending:
            if coarse is None:
                coarse = vals[i:i + _N]
                i += _N
            vl, vr = vals[i:i + _N], vals[i + _N:i + 2 * _N]
            i += 2 * _N
            pm = 0.5 * (pa + pb)
            width = windows[k][1] - windows[k][0]
            c = 0.5 * (pb - pa) * (_WEIGHTS @ coarse)
            fine = 0.5 * (pm - pa) * (_WEIGHTS @ vl) + 0.5 * (pb - pm) * (
                _WEIGHTS @ vr
            )
            diff = float(size(fine - c))
            budget = tol * (pb - pa) / width + tol * float(size(fine))
            at_floor = (pb - pa) < 1e-14 * width
            if diff <= budget or at_floor:
                accepted[k].append((pa, pm, pb, vl, vr, diff))
                floor_panels[k] += at_floor
                continue
            splits[k] += 1
            if splits[k] > _MAX_SPLITS:
                raise QuadratureError(
                    f"{label}: no convergence after {splits[k]} splits "
                    f"(worst panel [{pa}, {pb}], estimate {diff:.3e})",
                    worst_interval=(pa, pb),
                )
            children.append((k, pa, pm, vl))
            children.append((k, pm, pb, vr))
        pending = children
    # Sum in the order a depth-first walk taking the right half first
    # meets the panels, independent of how the levels were batched.
    for panels in accepted:
        panels.sort(key=lambda panel: -panel[0])
    return list(zip(accepted, nodes, floor_panels))


def integrate_many(f, windows, rows):
    """Adaptively integrate the scalar function ``f`` over each window
    [a, b] of ``windows``: one :class:`QuadResult` per window, each the
    result :func:`integrate` gives for that window alone, bit for bit.

    ``f(taus, owner)`` maps a 1-D array of at most ``rows`` taus and the
    int array of their window indices to the array of values; when it
    maps each tau alone, how a level's nodes are cut into calls changes
    no result.  A window that is None or has b <= a integrates to zero
    with no nodes.  A result's ``nodes_used`` counts its integrand
    evaluations, ``floor_panels`` its accepted panels narrower than the
    width floor (1e-14 of the window), where the refinement stopped
    whether or not the panel met its error budget.

    Raises :class:`QuadratureError` carrying the worst subinterval if a
    window exhausts its split budget before the tolerance is met, and
    one naming the tau if ``f`` returns a value that is not finite.
    """
    trees = _refine(_batched(f), windows, _TOL, _PANELS, rows, "integral")
    results = []
    for accepted, nodes, floor_panels in trees:
        total = 0.0
        err = 0.0
        for pa, pm, pb, vl, vr, diff in accepted:
            total += _panel_sum(vl, pa, pm) + _panel_sum(vr, pm, pb)
            err += diff
        results.append(
            QuadResult(float(total), float(err), nodes, int(floor_panels)))
    return results


def integrate(f, a, b):
    """Adaptively integrate the scalar function ``f``, which maps a 1-D
    array of taus to the array of its values, over [a, b]: the
    one-window case of :func:`integrate_many`, one value per row."""
    return integrate_many(lambda taus, owner: f(taus), [(a, b)],
                          CALL_ENTRIES)[0]


class CumulativeIntegral:
    """F(t) = F(a) + integral_a^t f, for vector-valued smooth f.

    ``f`` maps a 1-D array of N taus to an (N, ``dim``) array.
    Segments are refined as in :func:`integrate`, to ``tol`` from 4
    panels (``nodes`` and ``floor_panels`` count as ``nodes_used`` and
    ``floor_panels`` do there); evaluation anywhere uses the per-segment
    Legendre antiderivative.  A call of ``f`` takes at most 512 taus,
    the rows of second-order jets (``CALL_ENTRIES // 15``): the
    integrand of transport's ``P`` reads second-order chart frames.
    """

    def __init__(self, f, a, b, dim, tol, label="cumulative integral"):
        if b <= a:
            raise QuadratureError(f"{label}: empty interval [{a}, {b}]")
        self.f = _batched(f, (dim,))
        self.a = a
        self.b = b
        self.error = 0.0
        [(accepted, self.nodes, self.floor_panels)] = _refine(
            lambda taus, owner: self.f(taus), [(a, b)], tol,
            _CUMULATIVE_PANELS, CALL_ENTRIES // 15, label)
        halves = []
        for pa, pm, pb, vl, vr, diff in accepted:
            self.error += diff
            halves.append((pa, pm, vl))
            halves.append((pm, pb, vr))
        halves.sort(key=lambda seg: seg[0])
        # Per segment: start, end, Legendre coefficients (_N x dim) of
        # the integrand and the running integral at the start.
        self._t0 = np.array([seg[0] for seg in halves])
        self._t1 = np.array([seg[1] for seg in halves])
        self._coeffs = np.array([_PROJ @ seg[2] for seg in halves])
        f0 = []
        running = np.zeros(dim)
        for (t0, t1, _), coeffs in zip(halves, self._coeffs):
            f0.append(running)
            running = running + (t1 - t0) * coeffs[0]
        self._f0 = np.array(f0)
        self.total = running

    def value(self, ts):
        """F(t) - F(a) at a 1-D array of N taus, shape (N, dim)."""
        i = np.searchsorted(self._t0, ts, side="right") - 1
        i = np.clip(i, 0, len(self._t0) - 1)
        t0, t1 = self._t0[i], self._t1[i]
        coeffs = self._coeffs[i]
        x = 2.0 * (ts - t0) / (t1 - t0) - 1.0
        # Legendre values L_0..L_16 at x, then termwise antiderivatives.
        legs = [1.0, x]
        for k in range(1, _N):
            legs.append(((2 * k + 1) * x * legs[k] - k * legs[k - 1]) / (k + 1))
        acc = (x + 1.0)[:, None] * coeffs[:, 0]
        for k in range(1, _N):
            lam = (legs[k + 1] - legs[k - 1]) / (2 * k + 1)
            acc = acc + lam[:, None] * coeffs[:, k]
        out = self._f0[i] + (0.5 * (t1 - t0))[:, None] * acc
        out[ts <= self.a] = 0.0
        out[ts >= self.b] = self.total
        return out

    def derivative(self, ts):
        """The integrand itself at a 1-D array of taus."""
        return self.f(ts)
