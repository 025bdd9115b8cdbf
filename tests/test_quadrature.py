import math

import numpy as np
import pytest
from scipy.integrate import quad

from polekit.errors import QuadratureError
from polekit import quadrature
from polekit.quadrature import CumulativeIntegral, integrate, integrate_many


def test_polynomial_exact():
    res = integrate(lambda t: 3 * t * t - t + 1, -1.0, 2.0)
    exact = (2.0 ** 3 - 0.5 * 4 + 2.0) - ((-1.0) ** 3 - 0.5 - 1.0)
    assert res.value == pytest.approx(exact, rel=1e-14)
    assert res.quadrature_error_estimate <= 1e-12


def test_oscillatory_against_scipy():
    res = integrate(lambda t: np.sin(7 * t) * np.exp(-0.3 * t), 0.0, 5.0)
    ref, _ = quad(lambda t: math.sin(7 * t) * math.exp(-0.3 * t), 0.0, 5.0,
                  epsabs=1e-13, epsrel=1e-13)
    assert res.value == pytest.approx(ref, abs=1e-10)


def test_bump_window_against_scipy():
    def bump(u):
        w = 1 - u * u
        return math.exp(-1 / w) if w > 0 else 0.0

    def bumps(u):
        w = 1 - u * u
        return np.where(w > 0, np.exp(-1 / np.where(w > 0, w, 1.0)), 0.0)

    res = integrate(lambda t: bumps((t - 2.0) / 0.7), 0.0, 4.0)
    ref, _ = quad(lambda t: bump((t - 2.0) / 0.7), 2.0 - 0.7, 2.0 + 0.7,
                  epsabs=1e-13, epsrel=1e-13)
    assert res.value == pytest.approx(ref, abs=1e-10)


def test_empty_interval():
    res = integrate(lambda t: 1.0, 1.0, 1.0)
    assert res.value == 0.0


def test_cumulative_matches_antiderivative():
    cum = CumulativeIntegral(
        lambda t: np.stack([np.cos(t), 2 * t], axis=1), 0.0, 3.0, 2, 1e-10
    )
    for t in np.linspace(0.0, 3.0, 17):
        v = cum.value(np.array([t]))[0]
        assert v[0] == pytest.approx(math.sin(t), abs=1e-12)
        assert v[1] == pytest.approx(t * t, abs=1e-12)
    # derivative is the integrand itself, not a difference quotient
    assert cum.derivative(np.array([1.3]))[0][0] == math.cos(1.3)


def test_cumulative_interior_consistency():
    # value at arbitrary interior points must agree with independent
    # quadrature of the same integrand
    f = lambda t: math.exp(-0.5 * t) * math.sin(3 * t)
    cum = CumulativeIntegral(
        lambda t: (np.exp(-0.5 * t) * np.sin(3 * t))[:, None], 0.0, 2.0, 1,
        1e-10)
    for t in (0.137, 0.51, 1.03, 1.99):
        ref, _ = quad(f, 0.0, t, epsabs=1e-13, epsrel=1e-13)
        assert cum.value(np.array([t]))[0][0] == pytest.approx(ref, abs=1e-11)


def test_cumulative_clamps_outside():
    cum = CumulativeIntegral(lambda t: np.ones((len(t), 1)), 0.0, 1.0, 1,
                             1e-10)
    assert cum.value(np.array([-5.0]))[0][0] == 0.0
    assert cum.value(np.array([7.0]))[0][0] == pytest.approx(1.0, abs=1e-13)


def test_nonconvergent_integrand_raises():
    # a discontinuity that adaptive splitting cannot smooth out at the
    # requested tolerance within the panel budget
    def nasty(t):
        return np.where(np.sin(1 / (np.abs(t) + 1e-9)) > 0, 1.0, -1.0)

    with pytest.raises(QuadratureError) as err:
        integrate(nasty, -1.0, 1.0)
    assert err.value.worst_interval is not None
    with pytest.raises(QuadratureError) as err:
        CumulativeIntegral(lambda t: nasty(t)[:, None], -1.0, 1.0, 1, 1e-10)
    assert err.value.worst_interval is not None


def test_each_node_evaluated_once():
    """A narrow bump forces several splits; a split hands the values of
    its halves to the children, so no tau is requested twice and the
    reported node count is the number of taus requested."""
    seen = []

    def narrow_bump(t):
        seen.extend(np.atleast_1d(t).tolist())
        u = (np.asarray(t) - 0.3) / 0.01
        w = 1.0 - u * u
        return np.where(w > 0.0, np.exp(-1.0 / np.where(w > 0.0, w, 1.0)),
                        0.0)

    res = integrate(narrow_bump, 0.0, 1.0)
    assert res.nodes_used > 5 * 48  # the initial panels alone use 5 * 48
    assert len(set(seen)) == len(seen)
    assert res.nodes_used == len(seen)
    assert res.value == pytest.approx(0.01 * 0.4439938161680793, abs=1e-10)


def test_floor_panels_counted():
    """A jump cannot be resolved: the panels straddling it shrink to the
    width floor and are accepted there, which the result reports."""
    step = integrate(lambda t: (t > 1 / 3).astype(float), 0.0, 1.0)
    assert step.floor_panels >= 1
    assert step.value == pytest.approx(2 / 3, abs=1e-12)
    cum = CumulativeIntegral(lambda t: (t[:, None] > 1 / 3).astype(float),
                             0.0, 1.0, 1, 1e-10)
    assert cum.floor_panels >= 1
    assert integrate(np.sin, 0.0, 1.0).floor_panels == 0
    assert CumulativeIntegral(lambda t: np.sin(t)[:, None], 0.0, 1.0,
                              1, 1e-10).floor_panels == 0


def _three_columns(t):
    return np.stack([np.sin(t), np.cos(3 * t), np.exp(-t)], axis=1)


def test_cumulative_independent_of_integrand_memory_layout():
    """The same values returned in Fortran order give the same running
    integrals bit for bit."""
    ts = np.linspace(0.0, 4.0, 50)
    c_order = CumulativeIntegral(_three_columns, 0.0, 4.0, 3, 1e-10)
    f_order = CumulativeIntegral(
        lambda t: np.asfortranarray(_three_columns(t)), 0.0, 4.0, 3, 1e-10)
    assert np.array_equal(c_order.value(ts), f_order.value(ts))
    assert np.array_equal(c_order.derivative(ts), f_order.derivative(ts))


def test_integrand_of_wrong_shape_raises():
    # The first call takes the 48 nodes of each starting panel: 5 panels
    # for integrate, 4 for a CumulativeIntegral.
    with pytest.raises(ValueError, match=r"shape \(\) .*expected \(240,\)"):
        integrate(lambda t: 1.0, 0.0, 1.0)
    with pytest.raises(ValueError,
                       match=r"shape \(192, 2\) .*expected \(192, 3\)"):
        CumulativeIntegral(lambda t: np.ones((len(t), 2)), 0.0, 1.0, 3,
                           1e-10)


def test_error_inside_batch_integrand_propagates():
    """An integrand that fails on a batch of taus is not retried node by
    node: its error reaches the caller."""
    with pytest.raises(TypeError):
        integrate(math.sin, 0.0, 1.0)
    with pytest.raises(TypeError):
        CumulativeIntegral(lambda t: np.array([math.cos(t)]), 0.0, 1.0, 1,
                           1e-10)


def _narrow_bump(t, center=0.3, width=0.01):
    u = (t - center) / width
    w = 1.0 - u * u
    return np.where(w > 0.0, np.exp(-1.0 / np.where(w > 0.0, w, 1.0)), 0.0)


# One integrand per window; the window a tau belongs to picks it.
_LOCKSTEP_CASES = [
    ((0.0, 1.0), _narrow_bump),
    (None, np.cos),
    ((-1.0, 2.0), lambda t: 3 * t * t - t + 1),
    ((2.0, 2.0), np.sin),
    ((0.0, 5.0), lambda t: np.sin(7 * t) * np.exp(-0.3 * t)),
    ((1.0, 0.5), np.exp),
    ((0.0, 1.0), lambda t: (t > 1 / 3).astype(float)),
]
_LOCKSTEP_WINDOWS = [w for w, _ in _LOCKSTEP_CASES]


def _lockstep_integrand(taus, owner):
    """Each tau's value under the integrand of its window."""
    out = np.empty(len(taus))
    for k in set(owner.tolist()):
        out[owner == k] = _LOCKSTEP_CASES[k][1](taus[owner == k])
    return out


def test_integrate_many_equals_integrate_per_window():
    """Each window of a lockstep run gives the value, error, node count
    and floor panels of integrate on that window alone, bit for bit:
    its panel tree and summation order do not depend on the others.  A
    None or empty window integrates to zero with no nodes."""
    calls = []

    def f(taus, owner):
        calls.append(set(owner.tolist()))
        return _lockstep_integrand(taus, owner)

    results = integrate_many(f, _LOCKSTEP_WINDOWS, quadrature.CALL_ENTRIES)
    for (window, fk), res in zip(_LOCKSTEP_CASES, results):
        alone = (integrate(fk, *window) if window is not None
                 else quadrature.QuadResult(0.0, 0.0, 0, 0))
        assert res == alone
    assert results[0].nodes_used > 5 * 48  # the narrow bump splits many times
    assert results[6].floor_panels >= 1
    assert (results[1].nodes_used == results[3].nodes_used
            == results[5].nodes_used == 0)
    assert max(len(owners) for owners in calls) > 1


def test_integrate_many_one_call_per_level():
    """With room in the batch, each refinement level of all windows is
    one call: as many calls as the deepest window needs levels."""
    levels = []
    for window, fk in _LOCKSTEP_CASES:
        count = []
        if window is not None:
            integrate(lambda t: count.append(1) or fk(t), *window)
        levels.append(len(count))
    calls = []

    def f(taus, owner):
        calls.append(len(taus))
        return _lockstep_integrand(taus, owner)

    integrate_many(f, _LOCKSTEP_WINDOWS, 1 << 20)
    assert len(calls) == max(levels)


@pytest.mark.parametrize("rows", [16, 512, 1536, 7680, 1 << 20])
def test_row_limit_changes_no_result(rows):
    """However a level's nodes are cut into calls of at most ``rows``,
    every window gets the value, error estimate, nodes and floor panels
    it gets with one call per level."""
    calls = []

    def f(taus, owner):
        calls.append(len(taus))
        return _lockstep_integrand(taus, owner)

    results = integrate_many(f, _LOCKSTEP_WINDOWS, rows)
    assert results == integrate_many(_lockstep_integrand, _LOCKSTEP_WINDOWS,
                                     1 << 20)
    assert max(calls) <= rows
    assert sum(calls) == sum(r.nodes_used for r in results)


def test_integrate_many_error_reaches_caller():
    """An integrand that raises for one window stops the run with its
    error; so does a window that cannot converge, with the message
    integrate gives for it alone."""

    def f(taus, owner):
        if np.any(owner == 1):
            raise ZeroDivisionError("window 1")
        return np.sin(taus)

    with pytest.raises(ZeroDivisionError, match="window 1"):
        integrate_many(f, [(0.0, 1.0), (0.0, 2.0)], quadrature.CALL_ENTRIES)

    def nasty(t):
        return np.where(np.sin(1 / (np.abs(t) + 1e-9)) > 0, 1.0, -1.0)

    with pytest.raises(QuadratureError) as alone:
        integrate(nasty, -1.0, 1.0)
    with pytest.raises(QuadratureError) as many:
        integrate_many(
            lambda t, owner: np.where(owner == 1, nasty(t), np.cos(t)),
            [(0.0, 1.0), (-1.0, 1.0), (0.0, 3.0)], quadrature.CALL_ENTRIES)
    assert str(many.value) == str(alone.value)
    assert many.value.worst_interval == alone.value.worst_interval


def test_nan_at_one_node_raises():
    """A NaN integrand value is no panel difference that can be judged:
    the first level that reads one raises, naming the label and the
    tau, instead of splitting it down to the width floor."""
    first = []

    def f(taus, owner):
        first.append(taus[np.argmax(owner == 1)])
        return np.where(taus == first[0], np.nan, np.sin(taus))

    with pytest.raises(QuadratureError) as err:
        integrate_many(f, [(0.0, 1.0), (1.0, 3.0)], quadrature.CALL_ENTRIES)
    assert len(first) == 1
    assert str(err.value) == (
        f"integral: non-finite integrand value at tau={first[0]}")


def test_inf_at_one_node_of_cumulative_integral_raises():
    """An infinite value would make its panel's error budget infinite
    and the running integral infinite with it."""
    first = []

    def f(taus):
        first.append(taus[3])
        out = np.stack([np.cos(taus), np.sin(taus)], axis=-1)
        out[taus == first[0], 0] = np.inf
        return out

    with pytest.raises(QuadratureError) as err:
        CumulativeIntegral(f, 0.0, 1.0, 2, 1e-10, label="running")
    assert len(first) == 1
    assert str(err.value) == (
        f"running: non-finite integrand value at tau={first[0]}")
