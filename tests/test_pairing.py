import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import (
    charge_integrand_by_full_batch,
    family_jets_by_products,
    family_member,
    fd_gradient_plain,
    gamma_integrand_by_full_batch,
    preimage_boxes,
    probe_families,
    random_dipole,
    random_linear_pair,
    random_quadrupole,
    random_test_form,
    first_order_part,
    same_bits,
    same_signed_bits,
    window_by_products,
)
from polekit import expr as ex
from polekit import pairing
from polekit.charts import get
from polekit.errors import DomainError, QuadratureError
from polekit.moments import Monopole, make_static_dipole
from polekit.jets import stacked
from polekit.pairing import (
    AffineFormFamily,
    Box,
    ExprCovector,
    ProductTestForm,
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
from polekit.worldlines import Worldline

BUMP_INTEGRAL = 0.4439938161680793  # scipy quad of exp(-1/(1-u^2)) on [-1,1]


def bump(u):
    w = 1 - u * u
    return math.exp(-1 / w) if w > 0 else 0.0


# -- test forms ---------------------------------------------------------------


# The member index of one row read from a family of one.
_ONE_ROW_OF_MEMBER_0 = np.zeros(1, dtype=np.intp)


def test_peak_value_is_fourth_power_of_bump():
    form = make_test_form(
        (ex.const(1.0), ex.const(0.0), ex.const(0.0), ex.const(0.0)),
        center=(1.0, 2.0, 3.0, 4.0), half_widths=(0.5, 0.5, 0.5, 0.5),
    )
    vals = form.values_at(np.array([[1.0, 2.0, 3.0, 4.0]]),
                          _ONE_ROW_OF_MEMBER_0)[0]
    assert vals[0] == pytest.approx(math.exp(-4.0), rel=1e-14)
    assert vals[1] == vals[2] == vals[3] == 0.0


def test_exactly_zero_outside_box():
    form = make_test_form(
        (ex.parse("x1 + 1"), ex.const(2.0), ex.const(0.0), ex.const(0.0)),
        center=(0.0, 0.0, 0.0, 0.0), half_widths=(1.0, 1.0, 1.0, 1.0),
    )
    x = np.array([[0.0, 1.5, 0.0, 0.0]])
    assert tuple(form.values_at(x, _ONE_ROW_OF_MEMBER_0)[0]) == (
        0.0, 0.0, 0.0, 0.0)
    jets = form.jets_at(x, _ONE_ROW_OF_MEMBER_0, 2)
    for order in range(3):
        assert np.all(stacked(jets, (1,), order) == 0.0)


def test_zero_width_rejected():
    with pytest.raises(DomainError):
        make_test_form((ex.const(1.0),) * 4, (0.0,) * 4, (1.0, 0.0, 1.0, 1.0))


def test_form_jets_match_finite_differences(rng):
    form = random_test_form(rng, (0.5, -0.3, 0.2, 0.0),
                            (0.8, 0.7, 0.9, 0.6))
    checked = 0
    while checked < 100:
        x = tuple(
            form.box.center[i] + 0.85 * form.box.half[i] * rng.uniform(-1, 1)
            for i in range(4)
        )
        jets = form.jets_at(np.array([x]), _ONE_ROW_OF_MEMBER_0, 2)
        for a in range(4):
            def f(p, _a=a):
                return form.values_at(np.array([p]),
                                      _ONE_ROW_OF_MEMBER_0)[0][_a]

            g = fd_gradient_plain(f, x, h=1e-5)
            for i in range(4):
                assert abs(jets[a].grad[0][i] - g[i]) <= 1e-6 * max(
                    1.0, abs(jets[a].grad[0][i])
                )
        checked += 4


def _points_near(rng, center, half, n):
    """n points around a box, some outside it, the first on the edge of
    the support in x^1, where the bump underflows to 0."""
    pts = center + half * rng.uniform(-1.05, 1.05, size=(n, 4))
    pts[0, 1] = center[1] + 0.99999 * half[1]
    return pts


@pytest.mark.parametrize("n", [1, 7, 512])
def test_window_jet_matches_general_product_bit_for_bit(rng, n):
    """The separable window jet, and its values, have the bits of the
    general product of one-coordinate bump jets, for a shared box and a
    box per row; at order 1, the value and gradient of order 2."""
    for _ in range(10):
        center = rng.normal(size=4)
        half = rng.uniform(0.3, 2.0, 4)
        pts = _points_near(rng, center, half, n)
        centers = center + 0.1 * rng.normal(size=(n, 4))
        halves = half * rng.uniform(0.5, 1.5, size=(n, 4))
        assert pairing._window_jet(pts, center, half, 2).value[0] == 0.0
        for c, h in ((center, half), (centers, halves)):
            ref = window_by_products(pts, c, h)
            full = pairing._window_jet(pts, c, h, 2)
            assert same_bits(full, ref)
            assert first_order_part(pairing._window_jet(pts, c, h, 1), full)
            assert np.array_equal(pairing._window_values(pts, c, h),
                                  ref.value)


@pytest.mark.parametrize("n", [1, 7, 512])
def test_family_jets_match_general_arithmetic_bit_for_bit(rng, n):
    """A family's closed-form jets (affine polynomial times window) have
    the bits of its polynomials over seed jets times the general window
    product; at order 1, the values and gradients of order 2."""
    for _ in range(10):
        center = rng.normal(size=4)
        half = rng.uniform(0.3, 2.0, 4)
        family = AffineFormFamily(
            rng.normal(size=(3, 4)), rng.normal(size=(3, 4, 4)),
            center + 0.05 * rng.normal(size=(3, 4)),
            half * rng.uniform(0.9, 1.1, size=(3, 4)))
        pts = _points_near(rng, center, half, n)
        owner = rng.integers(0, 3, size=n)
        full = family.jets_at(pts, owner, 2)
        for j, ref in zip(full, family_jets_by_products(family, pts, owner)):
            assert same_bits(j, ref)
        for j, ref in zip(family.jets_at(pts, owner, 1), full):
            assert first_order_part(j, ref)


# -- monopole pairing ---------------------------------------------------------


def test_monopole_zero_charge_and_disjoint_support(adapted_worldline):
    form = make_test_form(
        (ex.const(1.0),) * 4,
        center=(2.0, 5.0, 5.0, 5.0), half_widths=(0.5, 0.5, 0.5, 0.5),
    )
    # support misses the worldline image entirely
    r = pair_monopole(Monopole(2.0), adapted_worldline, form)
    assert r.value == 0.0
    r2 = pair_monopole(Monopole(0.0), adapted_worldline, form)
    assert r2.value == 0.0


def test_monopole_time_bump_oracle(adapted_worldline):
    """q = 2 against a pure time-window component: the pairing reduces
    to 2 * w0 * integral of the bump, computed independently by scipy."""
    w0 = 0.8
    comp0 = ex.Fun(
        "bump", ex.div(ex.sub(ex.Var(0), ex.const(2.0)), ex.const(w0))
    )
    probe = ExprCovector(
        ex.Program((comp0, ex.const(0.0), ex.const(0.0), ex.const(0.0))),
        boxes=[Box((2.0, 0.0, 0.0, 0.0), (w0, 9.0, 9.0, 9.0))],
    )
    r = pair_monopole(Monopole(2.0), adapted_worldline, probe)
    oracle, _ = quad(lambda t: 2.0 * bump((t - 2.0) / w0), 1.0, 3.0,
                     epsabs=1e-13, epsrel=1e-13)
    assert r.value == pytest.approx(oracle, abs=1e-10)
    assert r.value == pytest.approx(2.0 * w0 * BUMP_INTEGRAL, abs=1e-10)
    assert r.quadrature_error_estimate <= 1e-8


# -- dipole pairing -----------------------------------------------------------


def test_dipole_zero_components(adapted_worldline, rng):
    from polekit.moments import DipoleComponents

    r = pair_dipole(DipoleComponents.from_dict({}), adapted_worldline,
                    random_test_form_along(rng, adapted_worldline))
    assert r.value == 0.0


def test_nan_component_value_raises(adapted_worldline, rng):
    """One NaN component value makes the pairing integrand NaN at one
    node: the pairing raises, naming the tau, and returns no NaN."""
    from polekit.moments import DipoleComponents

    d = make_static_dipole((0.3, 0.0, 0.0), (0.0, 0.0, 1.0))
    first = []

    def values(taus):
        first.append(taus[0])
        out = d.values_at(taus)
        out[0, 1, 2] = np.nan
        return out

    with pytest.raises(QuadratureError) as err:
        pair_dipole(DipoleComponents(values), adapted_worldline,
                    random_test_form_along(rng, adapted_worldline))
    assert str(err.value) == (
        f"integral: non-finite integrand value at tau={first[0]}")


def test_nan_form_value_in_the_charge_integrand_raises(
        adapted_worldline, rng, monkeypatch):
    """One NaN value of the form read by the charge integrand stops the
    pairing, naming the tau."""
    family_values = AffineFormFamily.values_at
    first = []

    def poisoned(self, x, owner):
        first.append(x[0, 0])
        out = family_values(self, x, owner)
        out[0, 0] = np.nan
        return out

    monkeypatch.setattr(AffineFormFamily, "values_at", poisoned)
    with pytest.raises(QuadratureError) as err:
        pair_monopole(Monopole(1.5), adapted_worldline,
                      random_test_form_along(rng, adapted_worldline))
    assert str(err.value) == (
        f"integral: non-finite integrand value at tau={first[0]}")


def test_dipole_constant_component_region(adapted_worldline):
    # constant-in-space components have vanishing spatial derivatives:
    # a gamma[1,2] dipole pairs to zero against a time-only probe
    d = make_static_dipole((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    comp = ex.Fun("bump", ex.sub(ex.Var(0), ex.const(2.0)))
    probe = ExprCovector(
        ex.Program((ex.const(0.0), comp, comp, ex.const(0.0))),
        boxes=[Box((2.0, 0.0, 0.0, 0.0), (1.0, 9.0, 9.0, 9.0))],
    )
    r = pair_dipole(d, adapted_worldline, probe)
    assert abs(r.value) <= 1e-12


def test_dipole_bump_reduction_oracle(adapted_worldline):
    """gamma[01] = 1 against phi_0 = x1 * window: reduces by hand to
    -e^{-3} * w0 * integral(bump)."""
    w0 = 0.8
    form = make_test_form(
        (ex.Var(1), ex.const(0.0), ex.const(0.0), ex.const(0.0)),
        center=(2.0, 0.0, 0.0, 0.0), half_widths=(w0, 1.0, 1.0, 1.0),
    )
    d = make_static_dipole((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    r = pair_dipole(d, adapted_worldline, form)
    expected = -math.exp(-3.0) * w0 * BUMP_INTEGRAL
    assert r.value == pytest.approx(expected, abs=1e-10)


# -- quadrupole pairing ---------------------------------------------------------


def test_quadrupole_zero(adapted_worldline, rng):
    from polekit.moments import QuadrupoleComponents

    r = pair_quadrupole(QuadrupoleComponents.from_dict({}), adapted_worldline,
                        random_test_form_along(rng, adapted_worldline))
    assert r.value == 0.0


def test_pairing_linearity(rng, adapted_worldline):
    q1 = random_quadrupole(rng)
    q2 = random_quadrupole(rng)
    alpha, beta = 0.6, -1.7
    from polekit.moments import QuadrupoleComponents

    combo = QuadrupoleComponents(
        lambda t: alpha * q1.values_at(t) + beta * q2.values_at(t))
    for _ in range(3):
        form = random_test_form_along(rng, adapted_worldline)
        v1 = pair_quadrupole(q1, adapted_worldline, form).value
        v2 = pair_quadrupole(q2, adapted_worldline, form).value
        vc = pair_quadrupole(combo, adapted_worldline, form).value
        assert vc == pytest.approx(alpha * v1 + beta * v2,
                                   rel=1e-10, abs=1e-12)


# -- pullback ----------------------------------------------------------------


def test_pullback_identity(rng, adapted_worldline):
    pair = get("identity")
    form = random_test_form_along(rng, adapted_worldline)
    pulled = pull_back_test_form(form, pair.forward)
    for _ in range(10):
        x = np.array([[
            form.box.center[i] + form.box.half[i] * rng.uniform(-0.9, 0.9)
            for i in range(4)
        ]])
        assert np.allclose(pulled.values_at(x, _ONE_ROW_OF_MEMBER_0),
                           form.values_at(x, _ONE_ROW_OF_MEMBER_0), atol=1e-14)


def test_pullback_linear_mixes_with_transpose(rng):
    pair = random_linear_pair(rng)
    M = pair.forward.jacobian_at(np.zeros((1, 4)))[0]
    center_hat = pair.forward.value_at(np.zeros((1, 4)))[0]
    form = random_test_form(rng, center_hat, (1.0, 1.0, 1.0, 1.0))
    pulled = pull_back_test_form(form, pair.forward)
    for _ in range(10):
        x = rng.uniform(-0.2, 0.2, (1, 4))
        y = pair.forward.value_at(x)
        hatted = np.array(form.values_at(y, _ONE_ROW_OF_MEMBER_0)[0])
        expected = M.T @ hatted
        assert np.allclose(pulled.values_at(x, _ONE_ROW_OF_MEMBER_0)[0],
                           expected, atol=1e-12)


def test_pullback_reads_no_point_outside_the_chart_domain():
    """Through the cylindrical chart, r = -0.5 maps into a Cartesian box
    about the spatial origin, but lies outside the chart's domain: the
    pulled-back form reads it as outside its support, and its jets and
    values raise DomainError there."""
    form = make_test_form(
        (ex.const(1.0),) * 4, center=(0.0, 0.0, 0.0, 0.0),
        half_widths=(1.0, 1.0, 1.0, 1.0),
    )
    pulled = pull_back_test_form(form, get("cylindrical_to_cartesian").forward)
    x = np.array([[0.0, 0.5, 0.0, 0.0], [0.0, -0.5, 0.0, 0.0]])
    owner = np.zeros(2, dtype=np.intp)
    assert form.in_support(x, owner).tolist() == [True, True]
    assert pulled.in_support(x, owner).tolist() == [True, False]
    with pytest.raises(DomainError):
        pulled.jets_at(x[1:], owner[1:], 2)
    with pytest.raises(DomainError):
        pulled.values_at(x[1:], owner[1:])


def test_pullback_pairing_invariance_all_kinds(rng, wobble_worldline):
    """Pairings against a hatted form equal pairings of the pulled-back
    form for monopole / dipole / quadrupole (transport done on the
    components where needed)."""
    from polekit.transport import transform_dipole, transform_quadrupole

    pair = get("cylindrical_to_cartesian")
    C = wobble_worldline
    hatC = C.push_through_chart(pair.forward)
    m = Monopole(1.3)
    d = random_dipole(rng)
    q = random_quadrupole(rng)
    dhat = transform_dipole(d, pair.forward, C)
    qhat = transform_quadrupole(q, pair.forward, C)
    for _ in range(3):
        form = random_test_form_along(rng, hatC)
        pulled = pull_back_test_form(form, pair.forward)
        pairs = [
            (pair_monopole(m, C, pulled).value,
             pair_monopole(m, hatC, form).value),
            (pair_dipole(d, C, pulled).value,
             pair_dipole(dhat, hatC, form).value),
            (pair_quadrupole(q, C, pulled).value,
             pair_quadrupole(qhat.gamma3_hat, hatC, form).value),
        ]
        for src, hat in pairs:
            assert abs(src - hat) <= 1e-6 * max(1.0, abs(src))


def test_bundle_pairing_sums_parts(rng, adapted_worldline):
    m = Monopole(0.7)
    d = random_dipole(rng)
    form = random_test_form_along(rng, adapted_worldline)
    bundle = SourceBundle(adapted_worldline, monopole=m, dipole=d)
    total = pair_bundle(bundle, form)
    parts = (
        pair_monopole(m, adapted_worldline, form).value
        + pair_dipole(d, adapted_worldline, form).value
    )
    assert total.value == pytest.approx(parts, rel=1e-12)


def test_dipole_quadrupole_bundle_is_one_integral(rng, wobble_worldline):
    """A dipole + quadrupole bundle pairs as one integral over one read
    of the form's jets: on a curved worldline, through the cylindrical
    chart, it gives the sum of the two pairings with fewer nodes, and a
    form whose support the curve misses pairs to zero with no nodes."""
    pair = get("cylindrical_to_cartesian")
    C = wobble_worldline
    hatC = C.push_through_chart(pair.forward)
    d = random_dipole(rng)
    q = random_quadrupole(rng)
    bundle = SourceBundle(C, dipole=d, quadrupole=q)
    for _ in range(3):
        form = pull_back_test_form(
            random_test_form_along(rng, hatC), pair.forward)
        both = pair_bundle(bundle, form)
        dipole = pair_dipole(d, C, form)
        quadrupole = pair_quadrupole(q, C, form)
        assert abs(both.value - (dipole.value + quadrupole.value)) <= 2e-10
        assert 0 < both.nodes_used < dipole.nodes_used + quadrupole.nodes_used
    far = pull_back_test_form(make_test_form(
        (ex.const(1.0),) * 4, center=(3.0, 5.0, 5.0, 5.0),
        half_widths=(0.5,) * 4), pair.forward)
    missed = pair_bundle(bundle, far)
    assert missed.value == 0.0
    assert missed.nodes_used == 0


def test_floor_panels_reported_and_summed(rng, adapted_worldline,
                                          monkeypatch):
    """A pairing reports the floor panels of its quadrature, and a
    bundle pairing sums them over its integrals."""
    real = pairing.integrate_many

    def floored(*args, **kwargs):
        return [dataclasses.replace(r, floor_panels=3)
                for r in real(*args, **kwargs)]

    m = Monopole(0.7)
    d = random_dipole(rng)
    form = random_test_form_along(rng, adapted_worldline)
    bundle = SourceBundle(adapted_worldline, monopole=m, dipole=d)
    assert pair_bundle(bundle, form).floor_panels == 0
    monkeypatch.setattr(pairing, "integrate_many", floored)
    assert pair_monopole(m, adapted_worldline, form).floor_panels == 3
    assert pair_bundle(bundle, form).floor_panels == 6


# -- form families (verify probes in lockstep) --------------------------------


def _tree_member(family, k):
    """Member k of a family as the expression-tree form it stands for:
    k_a + c_a0 (x^0 - m^0) + ... + c_a3 (x^3 - m^3), built left to right
    with the folding constructors, times the product bump window."""
    box = family.boxes[k]
    polys = []
    for a in range(4):
        e = ex.const(family.consts[k, a])
        for b in range(4):
            e = ex.add(e, ex.mul(ex.const(family.coefs[k, a, b]),
                                 ex.sub(ex.Var(b), ex.const(box.center[b]))))
        polys.append(e)
    return pairing.ProductTestForm(ex.Program(polys), [box])


def _points_by_member(rng, boxes, per_member, spread):
    """Points about each member's box (some outside it), shuffled, and
    the member index of each."""
    pts = np.concatenate([
        np.array(box.center) + spread * np.array(box.half)
        * rng.uniform(-1.0, 1.0, (per_member, 4))
        for box in boxes])
    owner = np.repeat(np.arange(len(boxes)), per_member)
    order = rng.permutation(len(pts))
    return pts[order], owner[order]


def _assert_rows_equal_members(family, members, pts, owner):
    """Row i of the family's jets, values and support is member
    owner[i]'s, bit for bit (array_equal reads -0.0 as +0.0)."""
    jets = [stacked(family.jets_at(pts, owner, 2), (len(pts),), order)
            for order in range(3)]
    values = family.values_at(pts, owner)
    support = family.in_support(pts, owner)
    for k, member in enumerate(members):
        rows = owner == k
        assert np.any(support[rows])
        alone = np.zeros(int(rows.sum()), dtype=np.intp)
        want = member.jets_at(pts[rows], alone, 2)
        for order in range(3):
            assert np.array_equal(
                jets[order][rows],
                stacked(want, (int(rows.sum()),), order))
        assert np.array_equal(values[rows], member.values_at(pts[rows], alone))
        assert np.array_equal(support[rows],
                              member.in_support(pts[rows], alone))


def test_form_family_rows_equal_member_forms(rng, wobble_worldline):
    family = random_test_form_along(rng, wobble_worldline, count=5)
    assert isinstance(family, AffineFormFamily)
    members = [_tree_member(family, k) for k in range(5)]
    pts, owner = _points_by_member(rng, family.boxes, 40, 1.3)
    _assert_rows_equal_members(family, members, pts, owner)
    # Member k on its own.
    _assert_rows_equal_members(family_member(family, 3), [members[3]], pts,
                               np.zeros(len(pts), dtype=int))


@pytest.mark.parametrize("chart", [None, "cylindrical_to_cartesian"])
def test_family_of_forms_equals_forms_drawn_one_at_a_time(wobble_worldline,
                                                          chart):
    """A family evaluates its box centres in one worldline call; its
    arrays equal those of drawing each form alone from the same
    generator, whose centre is the worldline at one tau."""
    C = wobble_worldline
    if chart is not None:
        C = C.push_through_chart(get(chart).forward)
    family = random_test_form_along(np.random.default_rng(11), C, count=20)
    rng = np.random.default_rng(11)
    singles = [random_test_form_along(rng, C) for _ in range(20)]
    for name in ("consts", "coefs", "centers", "halves"):
        assert np.array_equal(getattr(family, name), np.concatenate(
            [getattr(f, name) for f in singles]))


@pytest.mark.parametrize("name, params", [
    ("cylindrical_to_cartesian", None), ("lorentz_boost", [0.6])])
def test_pulled_back_family_rows_equal_pulled_back_members(
        rng, wobble_worldline, name, params):
    pair = get(name, params)
    hatC = wobble_worldline.push_through_chart(pair.forward)
    family = random_test_form_along(rng, hatC, count=4)
    pulled = pull_back_test_form(family, pair.forward)
    members = [pull_back_test_form(_tree_member(family, k), pair.forward)
               for k in range(4)]
    pts, owner = _points_by_member(
        rng, preimage_boxes(family, pair.inverse), 60, 1.0)
    keep = pair.forward.in_domain(pts)
    _assert_rows_equal_members(pulled, members, pts[keep], owner[keep])


@pytest.mark.parametrize("name, params", [
    ("cylindrical_to_cartesian", None), ("lorentz_boost", [0.6])])
def test_pulled_back_windows_equal_hatted_windows(rng, wobble_worldline,
                                                  name, params):
    """The source side scans a pulled-back family in the hatted chart,
    along the worldline's image: its support windows equal the hatted
    side's member by member, and the scanned points' support is the
    pulled-back form's own along the source worldline.  The last member
    is a small box between two of the 129 coarse samples, so its window
    comes from the fine scan."""
    chart = get(name, params).forward
    C = wobble_worldline
    hatC = C.push_through_chart(chart)
    drawn = random_test_form_along(rng, hatC, count=3)
    t0, t1 = C.interval
    t_small = t0 + 64.5 * (t1 - t0) / 128
    family = AffineFormFamily(
        np.concatenate([drawn.consts, drawn.consts[:1]]),
        np.concatenate([drawn.coefs, drawn.coefs[:1]]),
        np.concatenate([drawn.centers, hatC.point_at(np.array([t_small]))]),
        np.concatenate([drawn.halves, np.full((1, 4), 0.004)]))
    pulled = pull_back_test_form(family, chart)
    curve, boxed = pulled.along(C)
    assert boxed is family
    hatted = [pairing._support_window(hatC, family, k) for k in range(4)]
    assert [pairing._support_window(curve, boxed, k)
            for k in range(4)] == hatted
    coarse = np.linspace(t0, t1, 129)
    fine = np.linspace(t0, t1, 20001)
    for k, taus in enumerate([coarse] * 3 + [fine]):
        owner = np.full(len(taus), k)
        inside = family.in_support(hatC.point_at(taus), owner)
        assert np.array_equal(pulled.in_support(C.point_at(taus), owner),
                              inside)
        assert np.any(inside)
        assert np.any(family.in_support(hatC.point_at(coarse),
                                        np.full(129, k))) == (k < 3)
    assert hatted[3][0] < t_small < hatted[3][1]
    assert hatted[3][1] - hatted[3][0] < (t1 - t0) / 128


def test_family_pairing_equals_serial_bundle_pairing(rng, wobble_worldline):
    """Pairing a charge + dipole + quadrupole bundle with every member
    of a family in lockstep gives each member's serial pair_bundle
    report exactly, on both sides of a chart change."""
    from polekit.transport import transform_dipole, transform_quadrupole

    pair = get("lorentz_boost", [0.6])
    C = wobble_worldline
    hatC = C.push_through_chart(pair.forward)
    bundle = SourceBundle(C, Monopole(1.3), random_dipole(rng),
                          random_quadrupole(rng))
    hat = SourceBundle(
        hatC, bundle.monopole,
        transform_dipole(bundle.dipole, pair.forward, C),
        transform_quadrupole(bundle.quadrupole, pair.forward, C).gamma3_hat)
    family = random_test_form_along(rng, hatC, count=4)
    source = pairing.pair_bundle_family(
        bundle, pull_back_test_form(family, pair.forward))
    hatted = pairing.pair_bundle_family(hat, family)
    for k in range(4):
        member = family_member(family, k)
        assert source[k] == pair_bundle(
            bundle, pull_back_test_form(member, pair.forward))
        assert hatted[k] == pair_bundle(hat, member)
        assert source[k].nodes_used > 0


def _crafted_batches(rng, worldline, form):
    """Batches of (taus, member indices) over the members of ``form``
    along ``worldline``: every row outside the support, exactly one row
    inside, every row inside, and all rows of every member shuffled."""
    taus = np.linspace(*worldline.interval, 201)
    points = worldline.point_at(taus)
    live, dead = [], []
    members = len(form.along(worldline)[1].boxes)
    for k in range(members):
        inside = form.in_support(points, np.full(len(taus), k))
        assert np.any(inside) and not np.all(inside)
        live += [(t, k) for t in taus[inside]]
        dead += [(t, k) for t in taus[~inside]]
    one = [live[len(live) // 2]] + dead[::25]
    every = [(t, k) for t in taus for k in range(members)]
    batches = {"dead": dead[::7], "one live": one, "live": live,
               "mixed": [every[i] for i in rng.permutation(len(every))]}
    out = {name: (np.array([t for t, _ in rows]),
                  np.array([k for _, k in rows], dtype=np.intp))
           for name, rows in batches.items()}
    n_live = {name: np.count_nonzero(
        form.in_support(worldline.point_at(taus), owner))
        for name, (taus, owner) in out.items()}
    assert n_live["dead"] == 0 and n_live["one live"] == 1
    assert n_live["live"] == len(out["live"][0])
    assert 0 < n_live["mixed"] < len(out["mixed"][0])
    return out


def _equal_on_support(got, want, live):
    """The bits of the whole-batch formula on the live rows, down to the
    sign of each zero, and +0.0 at every other row, where the formula
    gives a zero of either sign."""
    return (same_signed_bits(got[live], want[live])
            and same_signed_bits(got[~live], np.zeros(np.sum(~live)))
            and np.all(want[~live] == 0.0))


def test_integrands_on_live_rows_equal_full_batch_formulas(
        rng, wobble_worldline):
    """The pairing integrands contract over the rows inside the support
    alone; on crafted batches (no row inside, exactly one, every row,
    and mixed) they equal the whole-batch formulas bit for bit on those
    rows and are +0.0 at every other row, for a family with transported
    components and for its pull-back with the source components."""
    from polekit.transport import transform_dipole, transform_quadrupole

    pair = get("cylindrical_to_cartesian")
    C = wobble_worldline
    hatC = C.push_through_chart(pair.forward)
    d, q = random_dipole(rng), random_quadrupole(rng)
    family = random_test_form_along(rng, hatC, count=3)
    sides = [
        (hatC, family, transform_dipole(d, pair.forward, C),
         transform_quadrupole(q, pair.forward, C).gamma3_hat),
        (C, pull_back_test_form(family, pair.forward), d, q),
    ]
    for worldline, form, gamma2, gamma3 in sides:
        for name, (taus, owner) in _crafted_batches(
                rng, worldline, form).items():
            live = form.in_support(worldline.eval(taus)[0], owner)
            for g2, g3 in ((gamma2, None), (None, gamma3), (gamma2, gamma3)):
                got = pairing._gamma_integrand(g2, g3, worldline, form)(
                    taus, owner)
                want = gamma_integrand_by_full_batch(g2, g3, worldline,
                                                     form, taus, owner)
                assert _equal_on_support(got, want, live), name
            for charge in (1.3, -0.7):
                got = pairing._charge_integrand(
                    Monopole(charge), worldline, form)(taus, owner)
                want = charge_integrand_by_full_batch(
                    charge, worldline, form, taus, owner)
                assert _equal_on_support(got, want, live), name


def _boxes_along(worldline, taus, half):
    """One box of half-widths ``half`` centred on the worldline at each
    tau."""
    return [Box(tuple(float(c) for c in center), half)
            for center in worldline.point_at(np.array(taus))]


@pytest.mark.parametrize("kind", ["ProductTestForm", "ExprCovector",
                                  "ScaledCovector"])
def test_expression_family_rows_equal_member_forms(rng, wobble_worldline,
                                                   kind):
    """Row i of an expression family, whose trees read each member's
    constants, is member owner[i]'s alone, bit for bit."""
    boxes = _boxes_along(wobble_worldline, [1.5, 2.5, 3.0, 4.5],
                         (0.6, 0.2, 0.3, 0.25))
    family = probe_families(rng, boxes)[kind]
    members = [family_member(family, k) for k in range(len(boxes))]
    pts, owner = _points_by_member(rng, family.boxes, 40, 1.3)
    _assert_rows_equal_members(family, members, pts, owner)


def test_scaled_covector_builds_one_environment_per_call(
        rng, wobble_worldline, monkeypatch):
    """A ScaledCovector call builds its base's environment once, for the
    scalar and for the base's components."""
    boxes = _boxes_along(wobble_worldline, [1.5, 2.5, 3.0],
                         (0.6, 0.2, 0.3, 0.25))
    family = probe_families(rng, boxes)["ScaledCovector"]
    pts, owner = _points_by_member(rng, family.boxes, 20, 1.3)
    envs = []
    real = pairing._BatchForm._env
    monkeypatch.setattr(pairing._BatchForm, "_env",
                        lambda self, *args: envs.append(args)
                        or real(self, *args))
    family.jets_at(pts, owner, 2)
    assert len(envs) == 1
    family.values_at(pts, owner)
    assert len(envs) == 2


def test_form_jets_at_order_one_are_the_first_order_part(
        rng, wobble_worldline):
    """Every form kind gives at order 1 the values and gradients of its
    order-2 jets bit for bit, and no Hessian rows, on batches with no
    row, one row, every row and some rows inside the support."""
    pair = get("cylindrical_to_cartesian")
    C = wobble_worldline
    hatC = C.push_through_chart(pair.forward)
    family = random_test_form_along(rng, hatC, count=3)
    probes = probe_families(
        rng, _boxes_along(C, [2.0, 3.0, 4.0], (0.8, 0.15, 0.15, 0.15)))
    forms = {
        "AffineFormFamily": (hatC, family),
        "PulledBackForm": (C, pull_back_test_form(family, pair.forward)),
        **{kind: (C, form) for kind, form in probes.items()},
    }
    for kind, (worldline, form) in forms.items():
        for name, (taus, owner) in _crafted_batches(
                rng, worldline, form).items():
            x = worldline.point_at(taus)
            for j, ref in zip(form.jets_at(x, owner, 1),
                              form.jets_at(x, owner, 2)):
                assert first_order_part(j, ref), (kind, name)


def test_concurrent_pairing_is_deterministic(rng, wobble_worldline):
    """Containers and charts are immutable; the same pairing computed
    from several threads gives bit-identical results."""
    from concurrent.futures import ThreadPoolExecutor

    q = random_quadrupole(rng)
    form = random_test_form_along(rng, wobble_worldline)

    def work(_):
        return pair_quadrupole(q, wobble_worldline, form).value

    with ThreadPoolExecutor(max_workers=4) as pool:
        values = list(pool.map(work, range(8)))
    assert len(set(values)) == 1


def _fast_worldline(speed):
    return Worldline(
        (ex.Var(0), ex.mul(ex.const(speed), ex.Var(0)), ex.const(0.0),
         ex.const(0.0)), (0.0, 10.0)
    )


def test_support_between_scan_samples_is_found():
    """A unit box that the worldline crosses between two of the coarse
    scan samples is still integrated, against mpmath at 30 digits."""
    import mpmath

    C = _fast_worldline(100.0)
    form = make_test_form([1, 1, 1, 1], (5.02, 502.0, 0.0, 0.0), (0.5,) * 4)
    r = pair_monopole(Monopole(1.0), C, form)

    def mbump(u):
        return mpmath.exp(-1 / (1 - u * u)) if abs(u) < 1 else mpmath.mpf(0)

    def integrand(t):
        # v = (1, 100, 0, 0) and every component of phi is the window.
        return (101 * mbump((t - mpmath.mpf(5.02)) * 2)
                * mbump((100 * t - mpmath.mpf(502.0)) * 2) * mbump(0) ** 2)

    # The support is tau in [5.015, 5.025], where x1 = 100 tau crosses it.
    with mpmath.workdps(30):
        ref = float(mpmath.quad(integrand, [5.015, 5.02, 5.025]))
    assert ref == pytest.approx(0.011162924485830596, rel=1e-14)
    assert r.nodes_used > 0
    assert abs(r.value - ref) <= 1e-10


def test_support_scan_too_fine_raises():
    """A box too narrow for the bounded rescan raises instead of
    returning 0."""
    C = _fast_worldline(1e6)
    form = make_test_form([1, 1, 1, 1], (5.02, 5.02e6, 0.0, 0.0), (0.5,) * 4)
    with pytest.raises(QuadratureError):
        pair_monopole(Monopole(1.0), C, form)
