import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from oracles import family_member, random_dipole, random_quadrupole
from polekit import classify
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
from polekit.pairing import SourceBundle, pair_bundle_family
from polekit.scene import parse_scene
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


# -- probes in lockstep ---------------------------------------------------------


LOCKSTEP_SEEDS = (3, 41, 2601)


def _lockstep_bundles():
    """A dipole, a quadrupole and a charged dipole on the adapted worldline
    (tau, 0, 0, 0), each with the order its test uses."""
    rng = np.random.default_rng(26)
    C = Worldline.static_at((0.0, 0.0, 0.0), (0.0, 4.0))
    return {
        "dipole": (SourceBundle(C, dipole=random_dipole(rng)), 1),
        "quadrupole": (SourceBundle(C, quadrupole=random_quadrupole(rng)), 2),
        "charged dipole": (SourceBundle(C, Monopole(1.3),
                                        random_dipole(rng)), 1),
    }


def _lockstep_reports(seed):
    """The closedness, order and electric-order (ell = 2) reports of each
    lockstep bundle at ``seed``."""
    out = {}
    for name, (bundle, k) in _lockstep_bundles().items():
        out[name] = (probe_closed(bundle, samples=4, seed=seed),
                     probe_order(bundle, k, samples=3, seed=seed),
                     probe_electric_order(bundle, 2, samples=3, seed=seed))
    return out


@pytest.mark.parametrize("seed", LOCKSTEP_SEEDS)
def test_lockstep_probe_pairings_equal_each_probe_paired_alone(
        monkeypatch, seed):
    """Each test pairs its probes as one family; every member's report
    equals the report of that member paired alone, as a family of one:
    value, error estimate, nodes and floor panels."""
    calls = []

    def recording(bundle, family):
        reports = pair_bundle_family(bundle, family)
        calls.append((bundle, family, reports))
        return reports

    monkeypatch.setattr(classify, "pair_bundle_family", recording)
    _lockstep_reports(seed)
    assert [len(reports) for _, _, reports in calls] == [4, 3, 3] * 3
    for bundle, family, reports in calls:
        for k, report in enumerate(reports):
            assert report.nodes_used > 0
            assert report == pair_bundle_family(
                bundle, family_member(family, k))[0]


def test_charge_integral_of_a_family_is_one_call_per_level(monkeypatch):
    """The charge integral reads the form's values, one entry per row
    and component, so a call takes up to CALL_ENTRIES rows: a charged
    dipole's closedness family makes one call per refinement level of
    its charge integral, levels of more than 512 nodes included."""
    from polekit import pairing
    from polekit.quadrature import CALL_ENTRIES

    integrals = []
    real = pairing.integrate_many

    def spy(f, windows, rows):
        calls = []
        integrals.append((f, windows, rows, calls))
        return real(lambda taus, owner: calls.append(len(taus))
                    or f(taus, owner), windows, rows)

    monkeypatch.setattr(pairing, "integrate_many", spy)
    bundle, _ = _lockstep_bundles()["charged dipole"]
    probe_closed(bundle, samples=6, seed=3)
    (f, windows, rows, calls), (_, _, gamma_rows, _) = integrals
    assert (rows, gamma_rows) == (CALL_ENTRIES, CALL_ENTRIES // 5)
    levels = []
    real(lambda taus, owner: levels.append(len(taus)) or f(taus, owner),
         windows, 1 << 20)
    assert calls == levels
    assert max(levels) > 512


# Every report field of _lockstep_reports as the per-probe pairings gave
# it before the probes were paired in lockstep (floats as float.hex).
PINNED_REPORTS = {
    3: {
        "dipole": [
            ("closed", None, True, "0x1.34b8911e0ed02p-51",
             "0x1.8ead30fc5acc9p-19", "0x1.e6aa6a4c0cd6cp-6",
             "0x1.29098360ead61p+8", 3),
            ("order", 1, True, "0x0.0p+0",
             "0x1.ab66de2d597edp-32", "0x1.04dd891b2ddfap-18",
             "0x1.3e706dddad7f8p-5", 3),
            ("electric order", 2, True, "0x0.0p+0",
             "0x1.6a05ad9d0bb88p-26", "0x1.b9ebee6e34cecp-13",
             "0x1.0dba4046c3bb3p+1", 3),
        ],
        "quadrupole": [
            ("closed", None, True, "0x1.343c18cfa6f34p-44",
             "0x1.b757fb7fdab5fp-21", "0x1.0c277340c93d9p-7",
             "0x1.4756283095a7ap+6", 3),
            ("order", 2, True, "0x0.0p+0",
             "0x1.319c314fb0772p-35", "0x1.750f2a31c6e97p-22",
             "0x1.c7650301c34ffp-9", 3),
            ("electric order", 2, False, "0x1.02b85e4773817p-4",
             "0x1.8ef34ce584ae4p-28", "0x1.e6ffff5e2c76bp-15",
             "0x1.293dbf9d3aa37p-1", 3),
        ],
        "charged dipole": [
            ("closed", None, True, "0x1.0e9f7453a1c39p-40",
             "0x1.b4f306cea3a70p-19", "0x1.0ab154e79f62bp-5",
             "0x1.458d7824be0ffp+8", 3),
            ("order", 1, True, "0x0.0p+0",
             "0x1.d46ea73b2f1e7p-32", "0x1.1de88991df825p-18",
             "0x1.5d025bee91569p-5", 3),
            ("electric order", 2, True, "0x0.0p+0",
             "0x1.8cc6b322d92c6p-26", "0x1.e4588dac0a1aap-13",
             "0x1.279f0c78412acp+1", 3),
        ],
    },
    41: {
        "dipole": [
            ("closed", None, True, "0x1.81d0274a4fcd0p-52",
             "0x1.43db79ae52248p-18", "0x1.8b556a094b45ap-5",
             "0x1.e295c3f058627p+8", 41),
            ("order", 1, True, "0x0.0p+0",
             "0x1.278d2589581f8p-31", "0x1.68c7cc5228127p-18",
             "0x1.b867e4ea49ea8p-5", 41),
            ("electric order", 2, True, "0x0.0p+0",
             "0x1.ecde09a64c15fp-25", "0x1.2cd28563bff06p-11",
             "0x1.6f36fbd443ccfp+2", 41),
        ],
        "quadrupole": [
            ("closed", None, True, "0x1.bfffe53d2327cp-45",
             "0x1.64e47bf5941dap-20", "0x1.b3a8e951474e2p-7",
             "0x1.09e7d867dbc57p+7", 41),
            ("order", 2, True, "0x0.0p+0",
             "0x1.d30de2431dae3p-35", "0x1.1d11395976dd9p-21",
             "0x1.5bfb8681b5997p-8", 41),
            ("electric order", 2, False, "0x1.17c917fe8526bp+1",
             "0x1.0f923c05c4c4fp-26", "0x1.4b8202450ab26p-13",
             "0x1.94ac33c5478ecp+0", 41),
        ],
        "charged dipole": [
            ("closed", None, True, "0x1.4f1bee468dfcep-44",
             "0x1.62f28fa8328d9p-18", "0x1.b149185cd1b5dp-5",
             "0x1.0874dd1ea6ff3p+9", 41),
            ("order", 1, True, "0x0.0p+0",
             "0x1.43ec96732ef78p-31", "0x1.8b6a4da79ad53p-18",
             "0x1.e2af43cb18813p-5", 41),
            ("electric order", 2, True, "0x0.0p+0",
             "0x1.0e17593542b42p-24", "0x1.49b3806583ecfp-11",
             "0x1.92779e3beb8abp+2", 41),
        ],
    },
    2601: {
        "dipole": [
            ("closed", None, True, "0x1.d7bbcc3141249p-51",
             "0x1.147c19396daeap-18", "0x1.51817cca9a63ap-5",
             "0x1.9bfe90d55176ap+8", 2601),
            ("order", 1, True, "0x0.0p+0",
             "0x1.84f2e09759f48p-33", "0x1.daca7b28c14f0p-20",
             "0x1.21ca15ab9ffc7p-6", 2601),
            ("electric order", 2, True, "0x0.0p+0",
             "0x1.bec0640c9fe9cp-30", "0x1.10aced10b49a7p-16",
             "0x1.4cdb1762e4768p-3", 2601),
        ],
        "quadrupole": [
            ("closed", None, True, "0x1.0f37e4424a43cp-40",
             "0x1.30b00cb927635p-20", "0x1.73eee7880494cp-7",
             "0x1.c60521a189979p+6", 2601),
            ("order", 2, True, "0x0.0p+0",
             "0x1.8fd3319913927p-37", "0x1.e8114e0b5c644p-24",
             "0x1.29e48fe26f243p-10", 2601),
            ("electric order", 2, False, "0x1.99eea3952ee7bp-6",
             "0x1.ec52951ec4de2p-32", "0x1.2c7d678407a89p-18",
             "0x1.6ecf14dcab594p-5", 2601),
        ],
        "charged dipole": [
            ("closed", None, True, "0x1.5c5d0dbe00a14p-46",
             "0x1.2f06f5fa96f96p-18", "0x1.71e7ff44654b7p-5",
             "0x1.c38bb31afda69p+8", 2601),
            ("order", 1, True, "0x0.0p+0",
             "0x1.aa49a4b2fdde5p-33", "0x1.042f72c63f72fp-19",
             "0x1.3d9beb9b0073dp-6", 2601),
            ("electric order", 2, True, "0x0.0p+0",
             "0x1.e9a3b6659b464p-30", "0x1.2ada2c138405ap-16",
             "0x1.6ccf52cdd2a8ep-3", 2601),
        ],
    },
}


@pytest.mark.parametrize("seed", LOCKSTEP_SEEDS)
def test_lockstep_reports_keep_their_bits(seed):
    got = {name: [dataclasses.astuple(r) for r in reports]
           for name, reports in _lockstep_reports(seed).items()}
    want = {name: [tuple(float.fromhex(v) if isinstance(v, str)
                         and v.startswith(("0x", "-0x")) else v
                         for v in fields) for fields in reports]
            for name, reports in PINNED_REPORTS[seed].items()}
    assert got == want


@pytest.mark.parametrize("test", [probe_closed, probe_order,
                                  probe_electric_order])
def test_a_test_over_no_probe_is_an_error(dipole_bundle, test):
    """A test refutes nothing without probes, so it reports none."""
    args = () if test is probe_closed else (2,)
    with pytest.raises(DomainError, match="needs at least one probe"):
        test(dipole_bundle, *args, samples=0)


def test_probe_trees_print_their_constants_as_variables():
    """A probe family's trees read each member's constants as variables
    4, 5, ..., and print them as x4, x5, ..."""
    c = classify._Constants(0)
    tree = classify.random_poly_expr(c)
    assert tree.to_str() == "1.0 + x4*x0 + x5*x1 + x6*x2 + x7*x3"
    assert tree.variables() == set(range(8))


# -- probe families built once per process ------------------------------------


_TREE_BUILDERS = ("compact_window_expr", "random_poly_expr",
                  "vanishing_scalar_expr", "ramp_expr", "plateau_expr")


def _classify_calls(bundle, k):
    return (probe_closed(bundle, samples=3, seed=5),
            probe_order(bundle, k, samples=2, seed=5),
            probe_electric_order(bundle, 2, samples=2, seed=5),
            [extract_charge(bundle, p) for p in
             charge_probe_variations(bundle.worldline, n=2, seed=5)])


def test_a_second_call_builds_no_tree_and_compiles_no_program(monkeypatch):
    """Each test and the charge probes take their trees and programs
    from a builder cached per process: a second call builds no tree,
    compiles no program, and reports what the first did."""
    bundles = _lockstep_bundles()
    first = {name: _classify_calls(b, k) for name, (b, k) in bundles.items()}
    counts = []
    for name in _TREE_BUILDERS:
        fn = getattr(classify, name)
        monkeypatch.setattr(
            classify, name,
            lambda *a, _fn=fn, _name=name, **kw: counts.append(_name)
            or _fn(*a, **kw))
    compile_ = ex.Program._compile
    monkeypatch.setattr(ex, "gradient_exprs",
                        lambda e: counts.append("gradient") or ())
    monkeypatch.setattr(ex.Program, "_compile",
                        lambda self: counts.append("compile")
                        or compile_(self))
    again = {name: _classify_calls(b, k) for name, (b, k) in bundles.items()}
    assert counts == []
    assert again == first


def _bench_bundles():
    """The three bundles of the benchmark's classify_probes input at seed
    2611, with their job seeds."""
    root = Path(__file__).parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("inputs", root / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    doc, _ = inputs.GENERATORS["classify_probes"](2611)
    scene = parse_scene(json.dumps(doc))
    return {job["multipole"]: (scene.bundle(job["multipole"],
                                            job["worldline"]),
                               int(job["seed"])) for job in scene.jobs}


# extract_charge over charge_probe_variations (5 probes) on each bundle of
# _bench_bundles, as float.hex, as each probe built its own trees.
PINNED_CHARGES = {
    "dipole": ["0x0.0p+0"] * 5,
    "quadrupole": ["0x0.0p+0"] * 5,
    "charged_dipole": ["0x1.4ccccccccc0e1p+0", "0x1.4cccccccccccdp+0",
                       "0x1.4ccccccccccc9p+0", "0x1.4ccccccccb490p+0",
                       "0x1.4ccccccccc686p+0"],
}


def test_charges_over_the_shared_tree_set_keep_their_bits():
    got = {name: [extract_charge(bundle, p).hex() for p in
                  charge_probe_variations(bundle.worldline, n=5, seed=seed)]
           for name, (bundle, seed) in _bench_bundles().items()}
    assert got == PINNED_CHARGES


def _charge_pairings(monkeypatch):
    """The (bundle, family) of each pair_bundle_family call classify
    makes from now on."""
    calls = []

    def recording(bundle, family):
        calls.append((bundle, family))
        return pair_bundle_family(bundle, family)

    monkeypatch.setattr(classify, "pair_bundle_family", recording)
    return calls


def test_charge_variations_pair_once_per_bundle(monkeypatch):
    """The probes of a variation set are one family: the first one asked
    about a bundle pairs all of them with it in one call, and each
    charge is the one of its probe's member paired alone."""
    bundles = _lockstep_bundles()
    probes = charge_probe_variations(bundles["dipole"][0].worldline, n=4,
                                     seed=5)
    calls = _charge_pairings(monkeypatch)
    charges = {name: [extract_charge(b, p) for p in probes]
               for name, (b, _) in bundles.items()}
    assert [(b, len(f.boxes)) for b, f in calls] == [
        (b, 4) for b, _ in bundles.values()]
    assert all(b is want for (b, _), (want, _) in zip(calls,
                                                       bundles.values()))
    for name, (b, _) in bundles.items():
        for p, q in zip(probes, charges[name]):
            alone, = pair_bundle_family(
                b, family_member(p.family.covector, p.member))
            assert q == alone.value / (p.lam1 - p.lam0)


def test_a_second_bundle_pairs_the_charge_family_again(monkeypatch):
    """The family keeps the reports of the last bundle alone, compared by
    identity: switching bundles pairs the family again, and an equal
    but distinct bundle is paired anew."""
    bundles = _lockstep_bundles()
    charged, _ = bundles["charged dipole"]
    dipole, _ = bundles["dipole"]
    probes = charge_probe_variations(charged.worldline, n=3, seed=2)
    calls = _charge_pairings(monkeypatch)
    first = [extract_charge(charged, p) for p in probes]
    assert [extract_charge(dipole, p) for p in probes] == pytest.approx(
        [0.0] * 3, abs=1e-8)
    copy = dataclasses.replace(charged)
    assert [extract_charge(copy, p) for p in probes] == first
    assert [extract_charge(charged, probes[1])] == first[1:2]
    assert [b is want for (b, _), want in zip(
        calls, (charged, dipole, copy, charged))] == [True] * 4
    assert first[0] == pytest.approx(1.3, abs=1e-8)
