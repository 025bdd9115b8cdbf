import pytest

from oracles import random_dipole, random_quadrupole
from polekit import expr as ex
from polekit.classify import (
    charge_probe_variations,
    extract_charge,
    make_charge_probe,
)
from polekit.classify import test_closed as probe_closed
from polekit.classify import test_electric_order as probe_electric_order
from polekit.classify import test_order as probe_order
from polekit.errors import DomainError
from polekit.moments import (
    Monopole,
    QuadrupoleComponents,
    make_electric_quadrupole,
    make_electric_dipole,
    make_toroidal_quadrupole,
)
from polekit.pairing import SourceBundle
from polekit.worldlines import Worldline

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture
def C():
    return Worldline.static_at((0.0, 0.0, 0.0), (0.0, 4.0))


@pytest.fixture
def monopole_bundle(C):
    return SourceBundle(C, monopole=Monopole(3.0))


@pytest.fixture
def dipole_bundle(C, rng):
    return SourceBundle(C, dipole=random_dipole(rng))


@pytest.fixture
def quad_bundle(C, rng):
    return SourceBundle(C, quadrupole=random_quadrupole(rng))


# -- charge extraction --------------------------------------------------------


def test_monopole_charge_recovered(monopole_bundle):
    q = extract_charge(monopole_bundle)
    assert q == pytest.approx(3.0, abs=1e-8)


def test_charge_stable_across_probe_choices(monopole_bundle):
    values = [
        extract_charge(monopole_bundle, p)
        for p in charge_probe_variations(monopole_bundle.worldline, n=5,
                                         seed=3)
    ]
    assert max(values) - min(values) <= 1e-8
    assert all(abs(v - 3.0) <= 1e-8 for v in values)


def test_pure_dipole_charge_vanishes(dipole_bundle):
    for p in charge_probe_variations(dipole_bundle.worldline, n=3, seed=1):
        assert abs(extract_charge(dipole_bundle, p)) <= 1e-8


def test_pure_quadrupole_charge_vanishes(quad_bundle):
    for p in charge_probe_variations(quad_bundle.worldline, n=3, seed=1):
        assert abs(extract_charge(quad_bundle, p)) <= 1e-8


def test_charge_probe_window_validation(C):
    with pytest.raises(DomainError):
        make_charge_probe(C, window=(-1.0, 10.0))
    with pytest.raises(DomainError):
        make_charge_probe(C, lam0=1.0, lam1=1.0)


def test_default_probe_description_has_plain_numbers(C):
    text = make_charge_probe(C).description
    assert "half-widths (0.5, 0.5, 0.5)" in text
    assert "np." not in text


def test_charge_probe_on_moving_worldline(rng):
    # tube widening follows the worldline's spatial spread
    C = Worldline(
        (ex.Var(0), ex.parse("0.5*tau", ex.TAU_VARS),
         ex.parse("sin(tau)", ex.TAU_VARS), ex.const(0.0)),
        (0.0, 4.0),
    )
    bundle = SourceBundle(C, monopole=Monopole(-2.0))
    assert extract_charge(bundle) == pytest.approx(-2.0, abs=1e-8)


# -- order tests --------------------------------------------------------------


def test_requires_adapted_worldline(rng):
    C = Worldline.static_at((1.0, 0.0, 0.0), (0.0, 2.0))
    bundle = SourceBundle(C, dipole=random_dipole(rng))
    with pytest.raises(DomainError):
        probe_order(bundle, 1)


def test_monopole_order_zero(monopole_bundle):
    rep = probe_order(monopole_bundle, 0, samples=6, seed=2)
    assert rep.passed


def test_dipole_orders(dipole_bundle):
    assert probe_order(dipole_bundle, 1, samples=6, seed=2).passed
    rep0 = probe_order(dipole_bundle, 0, samples=6, seed=2)
    assert not rep0.passed
    assert rep0.max_residual >= rep0.fail_threshold


def test_quadrupole_orders(quad_bundle):
    assert probe_order(quad_bundle, 2, samples=6, seed=2).passed
    rep1 = probe_order(quad_bundle, 1, samples=6, seed=2)
    assert not rep1.passed
    assert rep1.max_residual >= rep1.fail_threshold


def test_report_wording(quad_bundle):
    rep = probe_order(quad_bundle, 2, samples=4, seed=2)
    assert "consistent" in rep.summary()
    assert "seed" in rep.summary()


# -- electric order -----------------------------------------------------------


def test_electric_quadrupole_passes_l2(C):
    qgrid = [[ex.const(0.0)] * 4 for _ in range(4)]
    qgrid[1][1] = ex.parse("1 + 0.3*tau", ex.TAU_VARS)
    qgrid[1][2] = ex.const(0.8)
    qgrid[3][3] = ex.parse("0.5*tau", ex.TAU_VARS)
    eq = make_electric_quadrupole(qgrid, C)
    bundle = SourceBundle(C, quadrupole=eq)
    rep = probe_electric_order(bundle, 2, samples=6, seed=2)
    assert rep.passed


def test_spatial_only_quadrupole_fails_l2(C):
    tor = make_toroidal_quadrupole((0.4, -1.0, 0.7))
    bundle = SourceBundle(C, quadrupole=tor)
    rep = probe_electric_order(bundle, 2, samples=6, seed=2)
    assert not rep.passed
    assert rep.max_residual >= rep.fail_threshold


def test_any_dipole_passes_l2(dipole_bundle):
    rep = probe_electric_order(dipole_bundle, 2, samples=6, seed=2)
    assert rep.passed


def test_electric_dipole_passes_l1(C):
    w = [ex.const(0.3), ex.parse("1 + 0.1*tau", ex.TAU_VARS),
         ex.const(-0.7), ex.const(0.2)]
    ed = make_electric_dipole(w, C)
    bundle = SourceBundle(C, dipole=ed)
    assert probe_electric_order(bundle, 1, samples=6, seed=2).passed


def test_generic_dipole_fails_l1(dipole_bundle):
    rep = probe_electric_order(dipole_bundle, 1, samples=6, seed=2)
    assert not rep.passed


def test_order_hierarchy(C, dipole_bundle):
    """Anything consistent with electric order ell is consistent with
    order k = ell."""
    qgrid = [[ex.const(0.0)] * 4 for _ in range(4)]
    qgrid[1][1] = ex.const(1.0)
    qgrid[2][3] = ex.parse("0.4*tau", ex.TAU_VARS)
    eq = make_electric_quadrupole(qgrid, C)
    eq_bundle = SourceBundle(C, quadrupole=eq)
    for bundle, ell in ((eq_bundle, 2), (dipole_bundle, 2)):
        if probe_electric_order(bundle, ell, samples=5, seed=4).passed:
            assert probe_order(bundle, ell, samples=5, seed=4).passed


# -- closedness ---------------------------------------------------------------


def test_valid_quadrupole_is_closed(quad_bundle):
    assert probe_closed(quad_bundle, samples=10, seed=2).passed


def test_constant_monopole_is_closed(monopole_bundle):
    assert probe_closed(monopole_bundle, samples=10, seed=2).passed


def test_broken_symmetry_fails_closedness(C):
    broken = QuadrupoleComponents.from_dict({
        (1, 2, 1): ex.const(1.0),
        (1, 1, 2): ex.const(0.9),  # should equal gamma[1,2,1]
        (2, 1, 1): ex.const(-2.0),
    })
    bundle = SourceBundle(C, quadrupole=broken)
    rep = probe_closed(bundle, samples=10, seed=2)
    assert not rep.passed
    assert rep.max_residual >= rep.fail_threshold


def test_closedness_on_offset_worldline(rng):
    # closedness probing follows the curve; no adapted frame needed
    C = Worldline.static_at((2.0, -1.5, 0.8), (0.0, 4.0))
    bundle = SourceBundle(C, quadrupole=random_quadrupole(rng))
    assert probe_closed(bundle, samples=8, seed=3).passed
    broken = QuadrupoleComponents.from_dict({
        (1, 2, 1): ex.const(1.0),
        (1, 1, 2): ex.const(0.9),
        (2, 1, 1): ex.const(-2.0),
    })
    rep = probe_closed(SourceBundle(C, quadrupole=broken), samples=8, seed=3)
    assert not rep.passed
