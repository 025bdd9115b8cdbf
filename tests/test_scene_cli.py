import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polekit.cli import main, run
from polekit.errors import SceneError
from polekit.scene import parse_scene

SCENES = Path(__file__).parent.parent / "scenes"

MINIMAL = """
{
  "charts": {"id": {"registry": "identity"}},
  "worldlines": {"rest": {"components": ["tau", "0", "0", "0"],
                           "interval": [0.0, 2.0]}},
  "multipoles": {"charge": {"charge": 1.0}},
  "jobs": [
    {"command": "charge", "multipole": "charge", "worldline": "rest",
     "choices": 2, "seed": 1}
  ]
}
"""


def test_minimal_scene_parses_and_runs(tmp_path):
    scene = parse_scene(MINIMAL)
    results, code = run(scene, out_dir=tmp_path)
    assert code == 0
    assert (tmp_path / "report.txt").exists()
    assert (tmp_path / "report.json").exists()
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["jobs"][0]["passed"]


def test_json_error_carries_position():
    with pytest.raises(SceneError) as err:
        parse_scene("{ not json }")
    assert "line" in err.value.problems[0]


def test_unknown_chart_reported():
    bad = json.loads(MINIMAL)
    bad["charts"]["oops"] = {"registry": "wormhole"}
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(bad))
    assert any("wormhole" in p for p in err.value.problems)


def test_malformed_expression_reported():
    bad = json.loads(MINIMAL)
    bad["worldlines"]["rest"]["components"][1] = "tau +"
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(bad))
    assert any("column" in p for p in err.value.problems)


def test_symmetry_violation_reported_with_index():
    bad = json.loads(MINIMAL)
    bad["multipoles"]["lop"] = {
        "quadrupole": {"121": "1", "112": "0.5", "211": "-2"}
    }
    bad["jobs"].append({
        "command": "classify", "multipole": "lop", "worldline": "rest",
    })
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(bad))
    joined = " ".join(err.value.problems)
    assert "gamma" in joined and "tau" in joined


def test_unresolved_job_reference():
    bad = json.loads(MINIMAL)
    bad["jobs"][0]["multipole"] = "ghost"
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(bad))
    assert any("ghost" in p for p in err.value.problems)


@pytest.mark.parametrize("key, value", [
    ("worldline", {"a": 1}),
    ("multipole", [1]),
    ("chart", [1]),
])
def test_unhashable_job_reference_is_a_scene_error(tmp_path, capsys, key,
                                                   value):
    """A job reference that is not a string is an unknown name (exit 2),
    not a TypeError from a dictionary lookup."""
    doc = json.loads((SCENES / "worked_example.scene").read_text())
    doc["jobs"][1][key] = value
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(doc))
    want = f"jobs[1]: unknown {key} {value!r}"
    assert err.value.problems == [want]
    path = tmp_path / "bad.scene"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"scene error: {want}\n"


def test_non_finite_number_literal_is_a_scene_error(tmp_path, capsys):
    """A number literal beyond the float range (it would read as inf) is
    a scene problem naming it (exit 2), not a constant inf whose NaN
    symmetry residual passes; no warning comes first (the suite turns
    warnings into errors)."""
    doc = json.loads((SCENES / "worked_example.scene").read_text())
    doc["multipoles"]["resting_quadrupole"]["quadrupole"]["211"] = "1e400"
    want = ("multipoles.resting_quadrupole.quadrupole.211: column 1: "
            "number '1e400' is not finite")
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(doc))
    assert err.value.problems == [want]
    path = tmp_path / "bad.scene"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"scene error: {want}\n"


def _null_boost_speed():
    doc = json.loads((SCENES / "invariance_example.scene").read_text())
    doc["charts"]["boost"]["params"] = [None]
    return doc, ["charts.boost: lorentz_boost chart needs params of 1 "
                 "number, got [None]", "jobs[0]: unknown chart 'boost'"]


def _nearly_singular_chart():
    doc = json.loads((SCENES / "invariance_example.scene").read_text())
    doc["charts"]["near"] = {"components": ["x0", "1e-13*x1", "x2", "x3"],
                             "inverse": ["x0", "1e13*x1", "x2", "x3"]}
    doc["jobs"][0]["chart"] = "near"
    return doc, ["charts.near: inverse fails along worldline 'curve': chart "
                 "'near' has |det A| = 1.000e-13 at (0.0, 1.0, 0.3, 0.0)"]


def _overflowing_moments():
    doc = json.loads((SCENES / "potentials_example.scene").read_text())
    i, job = next((i, j) for i, j in enumerate(doc["jobs"])
                  if j["source"]["kind"] == "magnetic_quadrupole")
    m = job["source"]["moments"]
    m[0][1][1] = m[1][0][1] = m[1][1][0] = 1e308
    return doc, [f"jobs[{i}].source: magnetic quadrupole moments must "
                 f"satisfy the spatial component symmetries (last-two-slot "
                 f"symmetry and vanishing cyclic sum)"]


@pytest.mark.parametrize("make", [_null_boost_speed, _nearly_singular_chart,
                                  _overflowing_moments])
def test_nan_or_singular_input_is_a_scene_error(tmp_path, capsys, make):
    """A null chart parameter, a declared chart whose Jacobian is nearly
    singular and source moments whose symmetry residual overflows are
    scene problems (exit 2) with no warning first (the suite turns
    warnings into errors), not a scene that validates and then fails."""
    doc, want = make()
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(doc))
    assert err.value.problems == want
    path = tmp_path / "bad.scene"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "".join(f"scene error: {p}\n"
                                              for p in want)


@pytest.mark.parametrize("key, value, want", [
    ("charts", [1], "an object"),
    ("worldlines", [1], "an object"),
    ("multipoles", "x", "an object"),
    ("jobs", 3, "an array"),
])
def test_section_of_the_wrong_type_is_a_scene_error(tmp_path, capsys, key,
                                                    value, want):
    """A top-level section of the wrong JSON type is a scene problem
    naming the section (exit 2), not an AttributeError or TypeError."""
    doc = json.loads(MINIMAL)
    doc[key] = value
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(doc))
    assert f"{key}: section must be {want}" in err.value.problems
    path = tmp_path / "bad.scene"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert f"scene error: {key}: section must be {want}\n" in \
        capsys.readouterr().err


@pytest.mark.parametrize("registry, params, want", [
    ("linear", [1, 2], "linear chart needs params of 16 numbers, got [1, 2]"),
    ("linear", "abc", "linear chart needs params of 16 numbers, got 'abc'"),
    ("lorentz_boost", "x",
     "lorentz_boost chart needs params of 1 number, got 'x'"),
    ("lorentz_boost", [None],
     "lorentz_boost chart needs params of 1 number, got [None]"),
    ("lorentz_boost", [float("inf")],
     "lorentz_boost chart needs params of 1 number, got [inf]"),
    ("linear", [10 ** 400] * 16,
     f"linear chart needs params of 16 numbers, got {[10 ** 400] * 16!r}"),
])
def test_registry_params_of_the_wrong_type_or_count(tmp_path, capsys,
                                                    registry, params, want):
    doc = json.loads(MINIMAL)
    doc["charts"]["bad"] = {"registry": registry, "params": params}
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(doc))
    assert err.value.problems == [f"charts.bad: {want}"]
    path = tmp_path / "bad.scene"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"scene error: charts.bad: {want}\n"


def _sheared_scene(inverse, command="verify"):
    """MINIMAL with a custom shear chart declaring ``inverse`` and one
    job through it."""
    doc = json.loads(MINIMAL)
    doc["charts"]["shear"] = {"components": ["x0", "x1 + 0.5*x2", "x2", "x3"],
                              "inverse": inverse}
    doc["jobs"] = [{"command": command, "multipole": "charge",
                    "chart": "shear", "worldline": "rest"}]
    return doc


@pytest.mark.parametrize("inverse, command, error", [
    (["x0", "x1 + 3*x2", "x2 + 2", "x3"], "verify", "round trip error"),
    (["x0", "x1 + 3*x2", "x2 + 2", "x3"], "transform", "round trip error"),
    (["x0", "x1", "sqrt(x2 - 1)", "x3"], "verify",
     "sqrt: argument -1.0 is not positive"),
])
def test_wrong_declared_inverse_is_a_scene_error(inverse, command, error):
    """A declared inverse that fails its check along a job's worldline,
    or cannot be evaluated there, is a scene problem naming the chart."""
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(_sheared_scene(inverse, command)))
    [problem] = err.value.problems
    assert problem.startswith(
        f"charts.shear: inverse fails along worldline 'rest': {error}")


def test_declared_inverse_that_holds_parses_and_verifies(tmp_path):
    doc = _sheared_scene(["x0", "x1 - 0.5*x2", "x2", "x3"])
    doc["jobs"][0]["forms"] = 3
    results, code = run(parse_scene(json.dumps(doc)), out_dir=tmp_path)
    assert code == 0 and results[0].passed


@pytest.mark.parametrize("chart", [
    {"registry": "spherical_to_cartesian"},
    {"components": ["x0", "x1", "x2", "x3"]},
])
def test_verify_job_needs_a_chart_inverse(tmp_path, capsys, chart):
    doc = json.loads(MINIMAL)
    doc["charts"]["sph"] = chart
    doc["jobs"].append({"command": "verify", "multipole": "charge",
                        "chart": "sph", "worldline": "rest"})
    want = "jobs[1]: chart 'sph' has no verified inverse, which verify needs"
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(doc))
    assert err.value.problems == [want]
    path = tmp_path / "bad.scene"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"scene error: {want}\n"
    assert not (tmp_path / "o" / "report.json").exists()


def test_scene_round_trip_structural():
    text = (SCENES / "worked_example.scene").read_text()
    scene = parse_scene(text)
    again = parse_scene(json.dumps(json.loads(text), indent=2,
                                   sort_keys=True))
    # expression trees compare structurally
    for name in scene.worldlines:
        assert scene.worldlines[name].components == \
            again.worldlines[name].components
    for name in scene.multipoles:
        a = scene.multipoles[name]
        b = again.multipoles[name]
        assert a.keys() == b.keys()


def test_worked_example_scene_values(tmp_path):
    text = (SCENES / "worked_example.scene").read_text()
    scene = parse_scene(text)
    results, code = run(scene, command="transform", out_dir=tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    data = payload["jobs"][0]["data"]
    fit = data["P_fits"]["12"]
    assert fit["slope"] == pytest.approx(1.0, abs=1e-9)
    assert fit["intercept"] == pytest.approx(0.0, abs=1e-9)
    assert data["dipole_part_mid"]["12"] == pytest.approx(1.0, abs=1e-9)
    # the growing component samples follow kappa * tau + kappa0
    taus = data["sample_taus"]
    comp = data["component_samples"]["120"]
    assert np.allclose(comp, taus, atol=1e-9)
    assert np.allclose(data["component_samples"]["012"], 0.0, atol=1e-12)


def test_verify_reports_floor_panels(tmp_path):
    """Verify records, per probe and side, the quadrature panels
    accepted at the width floor next to the nodes used."""
    scene = parse_scene((SCENES / "worked_example.scene").read_text())
    for job in scene.jobs:
        job["forms"] = 3
    results, code = run(scene, command="verify", out_dir=tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    data = payload["jobs"][0]["data"]
    assert len(data["residuals"]) == 3
    for side in ("source", "hatted"):
        assert len(data["nodes_used"][side]) == 3
        assert data["floor_panels"][side] == [0, 0, 0]


def test_verify_lists_zero_node_probes(tmp_path):
    """A probe where either side used no quadrature nodes (here: a zero
    charge, which pairs to 0 without integrating) is listed in
    report.json; report.txt does not mention it."""
    doc = json.loads(MINIMAL)
    doc["multipoles"]["neutral"] = {"charge": 0.0}
    doc["jobs"] = [
        {"command": "verify", "name": name, "multipole": name,
         "chart": "id", "worldline": "rest", "forms": 3, "seed": 4}
        for name in ("neutral", "charge")
    ]
    results, code = run(parse_scene(json.dumps(doc)), out_dir=tmp_path)
    assert code == 0
    jobs = json.loads((tmp_path / "report.json").read_text())["jobs"]
    neutral, charged = (job["data"] for job in jobs)
    assert neutral["nodes_used"] == {"source": [0, 0, 0],
                                     "hatted": [0, 0, 0]}
    assert neutral["zero_node_probes"] == [0, 1, 2]
    assert all(n > 0 for n in charged["nodes_used"]["source"])
    assert charged["zero_node_probes"] == []
    assert "zero_node" not in (tmp_path / "report.txt").read_text()


def _kappa0_scene(tmp_path, kappa0):
    """The worked example with its transform job's ``kappa0`` set, as a
    scene file in ``tmp_path``."""
    doc = json.loads((SCENES / "worked_example.scene").read_text())
    transform = next(j for j in doc["jobs"] if j["command"] == "transform")
    transform["kappa0"] = kappa0
    path = tmp_path / "kappa0.scene"
    path.write_text(json.dumps(doc))
    return str(path), doc["jobs"].index(transform)


def test_kappa0_flag_offsets_intercept(tmp_path):
    """A scene's transform ``kappa0`` is the intercept of its P fit."""
    path, _ = _kappa0_scene(tmp_path, {"12": 0.5})
    code = main(["run", path, "--command", "transform",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    fit = payload["jobs"][0]["data"]["P_fits"]["12"]
    assert fit["intercept"] == pytest.approx(0.5, abs=1e-9)
    assert fit["slope"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("kappa0, problem", [
    pytest.param({"1": 2}, "key '1' must be two digits",
                 id="1=2-key '1' must be two digits"),
    pytest.param({"ab": 1}, "key 'ab' must be two digits",
                 id="ab=1-key 'ab' must be two digits"),
    pytest.param({"12": "x"}, "value 'x' at '12' must be a finite number",
                 id="12=x-value 'x' at '12' must be a finite number"),
    pytest.param({"11": 1}, "diagonal '11' must be zero",
                 id="11=1-diagonal '11' must be zero"),
    pytest.param({"12": ""}, "value '' at '12' must be a finite number",
                 id="12-value '' at '12' must be a finite number"),
    ({"12": "0.5"}, "value '0.5' at '12' must be a finite number"),
    ({"12": True}, "value True at '12' must be a finite number"),
    ({"12": float("nan")}, "value nan at '12' must be a finite number"),
])
def test_kappa0_flag_malformed_is_usage_error(tmp_path, capsys, kappa0,
                                              problem):
    """A malformed scene ``kappa0`` is a scene problem (exit 2) naming
    its job; its values must be JSON numbers."""
    path, i = _kappa0_scene(tmp_path, kappa0)
    code = main(["run", path, "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"scene error: jobs[{i}]: kappa0 {problem}" in err
    assert not (tmp_path / "report.json").exists()


def test_job_settings_come_from_the_scene_alone(capsys):
    """``polekit run`` has no options that rewrite job settings."""
    with pytest.raises(SystemExit):
        main(["run", "-h"])
    assert set(re.findall(r"--[\w-]+", capsys.readouterr().out)) == {
        "--help", "--command", "--out-dir"}


def test_scene_kappa0_non_numeric_reported():
    doc = json.loads((SCENES / "worked_example.scene").read_text())
    transform = next(j for j in doc["jobs"] if j["command"] == "transform")
    transform["kappa0"] = {"12": "x"}
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(doc))
    assert any("kappa0 value 'x' at '12' must be a finite number" in p
               for p in err.value.problems)


def _worked_example_job(command):
    doc = json.loads((SCENES / "worked_example.scene").read_text())
    return doc, next(j for j in doc["jobs"] if j["command"] == command)


@pytest.mark.parametrize("command, key, value, want", [
    ("verify", "forms", 0, "a positive integer"),
    ("verify", "forms", -3, "a positive integer"),
    ("verify", "forms", 2.5, "a positive integer"),
    ("verify", "forms", "x", "a positive integer"),
    ("verify", "forms", True, "a positive integer"),
    ("transform", "samples", 0, "a positive integer"),
    ("transform", "samples", False, "a positive integer"),
    ("verify", "tolerance", 0, "a positive finite number"),
    ("verify", "tolerance", -1e-6, "a positive finite number"),
    ("verify", "tolerance", float("inf"), "a positive finite number"),
    ("verify", "tolerance", float("nan"), "a positive finite number"),
    ("transform", "tolerance", float("inf"), "a positive finite number"),
    ("transform", "tolerance", float("nan"), "a positive finite number"),
    ("verify", "tolerance", "1e-6", "a positive finite number"),
    ("verify", "tolerance", True, "a positive finite number"),
    ("verify", "tolerance", 10 ** 400, "a positive finite number"),
    ("verify", "seed", -1, "a non-negative integer"),
    ("transform", "seed", 7.0, "a non-negative integer"),
    ("verify", "seed", True, "a non-negative integer"),
])
def test_job_counts_tolerances_and_seeds_checked(tmp_path, capsys, command,
                                                  key, value, want):
    """A count, tolerance or seed a job cannot use is a scene problem
    (exit 2), not a pass over no probes or a traceback."""
    doc, job = _worked_example_job(command)
    job[key] = value
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(doc))
    i = doc["jobs"].index(job)
    assert f"jobs[{i}]: {key} {value!r} must be {want}" in err.value.problems
    path = tmp_path / "bad.scene"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "scene error: " in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_charge_and_potentials_counts_checked():
    charge = json.loads(MINIMAL)
    charge["jobs"][0]["choices"] = 0
    potentials = json.loads(MINIMAL)
    potentials["jobs"] = [{"command": "potentials", "samples": -5,
                           "source": {"kind": "monopole", "moments": 2.0}}]
    for doc, problem in ((charge, "jobs[0]: choices 0 must be a positive "
                          "integer"),
                         (potentials, "jobs[0]: samples -5 must be a "
                          "positive integer")):
        with pytest.raises(SceneError) as err:
            parse_scene(json.dumps(doc))
        assert err.value.problems == [problem]


def test_valid_job_numbers_accepted():
    doc, job = _worked_example_job("verify")
    job.update(forms=1, tolerance=1, seed=0)
    parse_scene(json.dumps(doc))


@pytest.mark.parametrize("inverse", [["x0", "x1", "x2"], "x0"])
def test_chart_inverse_must_be_four_expressions(inverse):
    bad = json.loads(MINIMAL)
    bad["charts"]["c"] = {"components": ["x0", "x1", "x2", "x3"],
                          "inverse": inverse}
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(bad))
    assert err.value.problems == ["charts.c: inverse must be 4 expressions"]


def test_expression_lists_report_each_entry():
    """Chart components and inverses and worldline components are
    checked alike: each entry must be a parsable string."""
    bad = json.loads(MINIMAL)
    bad["charts"]["c"] = {"components": ["x0", "x1 +", "x2", "x3"]}
    bad["charts"]["d"] = {"components": ["x0", "x1", "x2", "x3"],
                          "inverse": ["x0", "x1", 2, "x3"]}
    bad["worldlines"]["rest"]["components"][3] = "tau )"
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(bad))
    problems = err.value.problems
    assert problems[0].startswith("charts.c.components[1]: column")
    assert problems[1] == "charts.d.inverse[2]: expression must be a string"
    assert problems[2].startswith("worldlines.rest.components[3]: column")
    assert problems[3:] == ["jobs[0]: unknown worldline 'rest'"]


def test_reports_byte_identical(tmp_path):
    text = (SCENES / "worked_example.scene").read_text()
    scene1 = parse_scene(text)
    scene2 = parse_scene(text)
    run(scene1, command="all", out_dir=tmp_path / "a")
    run(scene2, command="all", out_dir=tmp_path / "b")
    for name in ("report.txt", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_exit_codes(tmp_path):
    # parse error -> 2
    bad = tmp_path / "bad.scene"
    bad.write_text("{ nope }")
    assert main(["run", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    assert main(["validate", str(bad)]) == 2
    # missing file -> 2
    assert main(["run", str(tmp_path / "missing.scene")]) == 2
    # failing check -> 1: declared charge disagrees with extraction
    failing = json.loads(MINIMAL)
    failing["jobs"][0]["expect"] = 99.0
    f = tmp_path / "fail.scene"
    f.write_text(json.dumps(failing))
    assert main(["run", str(f), "--out-dir", str(tmp_path / "o2")]) == 1
    # all-pass -> 0
    g = tmp_path / "ok.scene"
    g.write_text(MINIMAL)
    assert main(["run", str(g), "--out-dir", str(tmp_path / "o3")]) == 0


def test_validate_verb_ok():
    assert main(["validate", str(SCENES / "worked_example.scene")]) == 0


def test_potentials_job_writes_csv(tmp_path):
    doc = json.loads(MINIMAL)
    doc["jobs"] = [{
        "command": "potentials", "name": "mono",
        "source": {"kind": "monopole", "moments": 2.0},
        "directions": [[0.0, 0.0, 1.0], [1.0, 1.0, 1.0]],
        "samples": 20,
    }]
    scene = parse_scene(json.dumps(doc))
    results, code = run(scene, out_dir=tmp_path)
    assert code == 0
    csv = (tmp_path / "mono_ray0.csv").read_text().splitlines()
    assert csv[0] == "r,value"
    assert len(csv) == 21
    r0, v0 = map(float, csv[1].split(","))
    assert v0 == pytest.approx(2.0 / (4 * np.pi * r0), rel=1e-12)
    exps = json.loads((tmp_path / "report.json").read_text())[
        "jobs"][0]["data"]["exponents"]
    assert all(abs(e + 1.0) < 0.01 for e in exps)


def test_potentials_job_evaluates_each_ray_once(tmp_path, monkeypatch):
    from polekit.fields import StaticSource

    calls = []
    original = StaticSource.potential_at

    def counted(self, x3):
        calls.append(len(x3))
        return original(self, x3)

    monkeypatch.setattr(StaticSource, "potential_at", counted)
    doc = json.loads(MINIMAL)
    doc["jobs"] = [{
        "command": "potentials", "name": "dip",
        "source": {"kind": "electric_dipole", "moments": [0.1, 0.2, 1.0]},
        "directions": [[0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.3, -0.5, 1.0]],
        "samples": 12,
    }]
    results, code = run(parse_scene(json.dumps(doc)), out_dir=tmp_path)
    assert code == 0
    assert calls == [12, 12, 12]


def test_classify_job_with_tau_dependent_components(tmp_path):
    """Classification of tau-dependent components writes a JSON report
    (its numbers and verdicts are plain Python values)."""
    doc = {
        "charts": {},
        "worldlines": {"rest": {"components": ["tau", "0", "0", "0"],
                                "interval": [0.0, 4.0]}},
        "multipoles": {"Q": {"quadrupole": {"211": "2*tau", "121": "-tau",
                                            "112": "-tau"}}},
        "jobs": [{"command": "classify", "multipole": "Q",
                  "worldline": "rest", "seed": 3}],
    }
    results, code = run(parse_scene(json.dumps(doc)), out_dir=tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["jobs"][0]["passed"]


def test_module_entry_point_matches_run(tmp_path):
    """``python -m polekit run`` on the worked example writes the same
    report.json as ``cli.run`` does in this process."""
    import os
    import subprocess
    import sys

    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    scene_file = SCENES / "worked_example.scene"
    proc = subprocess.run(
        [sys.executable, "-m", "polekit", "run", str(scene_file),
         "--out-dir", str(tmp_path / "module")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    run(parse_scene(scene_file.read_text()), out_dir=tmp_path / "direct")
    assert ((tmp_path / "module" / "report.json").read_bytes()
            == (tmp_path / "direct" / "report.json").read_bytes())


@pytest.mark.parametrize("interval", [
    ["a", 2.0], [0, float("inf")], [0.0, float("nan")], [True, 2.0],
    [0, 10**400], [2.0, 1.0], [0.0], "0, 2",
], ids=["text", "infinite", "nan", "bool", "huge", "reversed", "short",
        "string"])
def test_malformed_worldline_interval_reported(tmp_path, interval):
    """A non-numeric, infinite or reversed interval is a scene problem
    (exit 2), not a TypeError or an OverflowError from sampling."""
    bad = json.loads(MINIMAL)
    bad["worldlines"]["rest"]["interval"] = interval
    text = json.dumps(bad)
    with pytest.raises(SceneError) as err:
        parse_scene(text)
    assert err.value.problems[0] == (
        "worldlines.rest: interval must be [t0, t1] with finite t0 < t1")
    f = tmp_path / "bad.scene"
    f.write_text(text)
    assert main(["run", str(f), "--out-dir", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("kind", ["dipole", "quadrupole"])
def test_component_block_must_be_an_object(tmp_path, kind):
    """A list given as a dipole or quadrupole block is a scene problem
    (exit 2), not an AttributeError."""
    bad = json.loads(MINIMAL)
    bad["multipoles"]["charge"][kind] = ["01"]
    text = json.dumps(bad)
    with pytest.raises(SceneError) as err:
        parse_scene(text)
    assert err.value.problems == [
        f"multipoles.charge.{kind}: must be an object of index: expression"]
    f = tmp_path / "bad.scene"
    f.write_text(text)
    assert main(["run", str(f), "--out-dir", str(tmp_path / "o")]) == 2


def test_classify_example_scene_passes_every_job(tmp_path):
    """The committed classification scene: a tau-dependent electric
    quadrupole and a charged electric dipole on (tau, 0, 0, 0), their
    orders and electric orders, and the dipole's charge."""
    scene = parse_scene((SCENES / "classify_example.scene").read_text())
    results, code = run(scene, out_dir=tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    jobs = payload["jobs"]
    assert [j["name"] for j in jobs] == [
        "classify-quadrupole", "classify-charged-dipole",
        "charge-charged-dipole"]
    assert all(j["passed"] for j in jobs)
    assert jobs[1]["data"]["electric_order_1"]
    assert jobs[2]["data"]["drift"] <= 1e-8


@pytest.mark.parametrize("charge", [float("inf"), float("-inf"),
                                    float("nan"), 10**400, "x", True, "1.3"],
                         ids=["inf", "-inf", "nan", "huge", "text", "bool",
                              "numeric-text"])
def test_non_finite_charge_reported(tmp_path, charge):
    """A charge that is not a finite JSON number is a scene problem (exit
    2), not a quadrature that gives up after its split budget, nor a
    boolean read as 1.0 or a string read as the number it spells."""
    bad = json.loads(MINIMAL)
    bad["multipoles"]["charge"]["charge"] = charge
    text = json.dumps(bad)
    with pytest.raises(SceneError) as err:
        parse_scene(text)
    assert err.value.problems == [
        "multipoles.charge.charge: must be a finite number"]
    f = tmp_path / "bad.scene"
    f.write_text(text)
    assert main(["run", str(f), "--out-dir", str(tmp_path / "o")]) == 2


_NAME_RULE = ("must be a string of letters, digits, '_', '.' and '-' that "
              "starts with a letter or digit")


def _run_named(tmp_path, capsys, *names):
    """Exit code and stderr of ``polekit run`` on potentials jobs with
    these names, writing into tmp_path/out."""
    doc = json.loads(MINIMAL)
    doc["jobs"] = [{"command": "potentials", "name": name,
                    "source": {"kind": "monopole", "moments": 1.0}}
                   for name in names]
    path = tmp_path / "named.scene"
    path.write_text(json.dumps(doc))
    code = main(["run", str(path), "--out-dir", str(tmp_path / "out")])
    return code, capsys.readouterr().err


def test_job_name_that_leaves_the_out_dir_is_rejected(tmp_path, capsys):
    """A job name names its CSV files, so a path in it would write
    outside --out-dir."""
    code, err = _run_named(tmp_path, capsys, "../escaped")
    assert code == 2
    assert f"scene error: jobs[0]: name '../escaped' {_NAME_RULE}" in err
    assert not (tmp_path / "escaped_ray0.csv").exists()
    assert not (tmp_path / "out").exists()


def test_duplicate_job_names_are_rejected(tmp_path, capsys):
    """Two jobs of one name would write the same CSV files, the second
    overwriting the first while the report lists the file for both."""
    code, err = _run_named(tmp_path, capsys, "dup", "dup")
    assert code == 2
    assert ("scene error: jobs[1]: name 'dup' is already used by jobs[0]"
            in err)
    assert not (tmp_path / "out").exists()


def test_job_name_that_is_not_a_string_is_rejected(tmp_path, capsys):
    doc = json.loads(MINIMAL)
    doc["jobs"][0]["name"] = 7
    path = tmp_path / "named.scene"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert (f"scene error: jobs[0]: name 7 {_NAME_RULE}"
            in capsys.readouterr().err)


def _serial_verify(scene, job):
    """A verify job's pairings as a serial loop: each form is drawn, then
    paired on both sides by pair_bundle before the next is drawn."""
    from polekit import transport as tp
    from polekit.pairing import (SourceBundle, pair_bundle,
                                 pull_back_test_form, random_test_form_along)

    pair = scene.charts[job["chart"]]
    bundle = scene.bundle(job["multipole"], job["worldline"])
    C = bundle.worldline
    hatC = C.push_through_chart(pair.forward)
    hat = SourceBundle(
        hatC, bundle.monopole,
        tp.transform_dipole(bundle.dipole, pair.forward, C),
        tp.transform_quadrupole(bundle.quadrupole, pair.forward,
                                C).gamma3_hat)
    rng = np.random.default_rng(job["seed"])
    rows = []
    for _ in range(job["forms"]):
        form = random_test_form_along(rng, hatC)
        rows.append((pair_bundle(bundle, pull_back_test_form(form, pair)),
                     pair_bundle(hat, form)))
    return rows


def test_invariance_example_scene_passes_every_job(tmp_path):
    """The committed invariance scene: a charge + dipole + quadrupole
    bundle on a curved worldline, verified through a boost and the
    cylindrical chart.  Each job's probes, paired in lockstep, report
    what a serial pair_bundle loop over the same forms gives."""
    scene = parse_scene((SCENES / "invariance_example.scene").read_text())
    results, code = run(scene, out_dir=tmp_path)
    assert code == 0
    jobs = json.loads((tmp_path / "report.json").read_text())["jobs"]
    assert [j["name"] for j in jobs] == ["verify-boost", "verify-cylindrical"]
    for job, spec in zip(jobs, scene.jobs):
        assert job["passed"]
        data = job["data"]
        rows = _serial_verify(scene, spec)
        assert len(rows) == 4
        assert data["residuals"] == [
            abs(s.value - h.value) / max(1.0, abs(s.value)) for s, h in rows]
        for i, side in enumerate(("source", "hatted")):
            assert data["nodes_used"][side] == [r[i].nodes_used for r in rows]
            assert data["floor_panels"][side] == [
                r[i].floor_panels for r in rows]
            assert data["quadrature_error_estimates"][side] == [
                r[i].quadrature_error_estimate for r in rows]


def test_verify_job_with_one_nonconvergent_probe_fails_as_serial(
        tmp_path, monkeypatch):
    """When one probe of a verify job cannot converge (its form
    oscillates far faster than the split budget can resolve), the job
    fails with the error its serial pairing raises."""
    from oracles import family_member
    from polekit.errors import QuadratureError
    from polekit.pairing import (AffineFormFamily, pair_bundle,
                                 pull_back_test_form, random_test_form_along)

    doc = json.loads(MINIMAL)
    doc["jobs"] = [{"command": "verify", "name": "poisoned",
                    "multipole": "charge", "chart": "id",
                    "worldline": "rest", "forms": 3, "seed": 4}]
    scene = parse_scene(json.dumps(doc))
    pair = scene.charts["id"]
    hatC = scene.worldlines["rest"].push_through_chart(pair.forward)
    forms = random_test_form_along(np.random.default_rng(4), hatC, count=3)
    family_values = AffineFormFamily.values_at

    def poisoned(self, x, owner):
        out = family_values(self, x, owner)
        rows = self.consts[owner, 0] == forms.consts[1, 0]
        out[rows] = np.cos(1e6 * x[rows, :1])
        return out

    monkeypatch.setattr(AffineFormFamily, "values_at", poisoned)
    results, code = run(scene, out_dir=tmp_path)
    assert code == 1
    error = results[0].data["error"]
    assert "no convergence after 2001 splits" in error
    with pytest.raises(QuadratureError) as serial:
        pair_bundle(scene.bundle("charge", "rest"),
                    pull_back_test_form(family_member(forms, 1), pair))
    assert error == str(serial.value)


def _exponent_scene(tmp_path):
    doc = json.loads((SCENES / "worked_example.scene").read_text())
    doc["multipoles"]["resting_quadrupole"]["quadrupole"]["211"] = \
        "2*tau^(1/0)"
    path = tmp_path / "exponent.scene"
    path.write_text(json.dumps(doc))
    return path


def test_exponent_that_fails_to_evaluate_exits_2(tmp_path, capsys):
    """A constant exponent is computed when parsed; one that fails is a
    scene problem naming the entry and column, not a traceback."""
    path = _exponent_scene(tmp_path)
    want = ("multipoles.resting_quadrupole.quadrupole.211: column 6: "
            "exponent 1.0/0.0 cannot be evaluated")
    assert main(["validate", str(path)]) == 2
    assert want in capsys.readouterr().err
    assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert want in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("key, value, want", [
    ("orders", ["x"], "a list of non-negative integers"),
    ("orders", 2, "a list of non-negative integers"),
    ("orders", [-1], "a list of non-negative integers"),
    ("orders", [2.0], "a list of non-negative integers"),
    ("orders", [True], "a list of non-negative integers"),
    ("electric_orders", [0], "a list of positive integers"),
    ("electric_orders", [1, "2"], "a list of positive integers"),
    ("electric_orders", [False], "a list of positive integers"),
])
def test_classify_orders_checked(tmp_path, capsys, key, value, want):
    """Classify orders that the probes cannot use are scene problems
    (exit 2), not a traceback or a job that FAILs at run time."""
    doc = json.loads((SCENES / "classify_example.scene").read_text())
    doc["jobs"][0][key] = value
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(doc))
    assert err.value.problems == [f"jobs[0]: {key} {value!r} must be {want}"]
    path = tmp_path / "bad.scene"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "scene error: " in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_valid_classify_orders_accepted():
    doc = json.loads((SCENES / "classify_example.scene").read_text())
    doc["jobs"][0].update(orders=[0, 1, 2], electric_orders=[])
    parse_scene(json.dumps(doc))


def test_exponent_failure_is_the_only_problem_of_its_block():
    """A block with an entry that fails to parse is not checked for
    symmetry without that entry, which would report a second problem."""
    doc = json.loads((SCENES / "worked_example.scene").read_text())
    doc["multipoles"]["resting_quadrupole"]["quadrupole"]["211"] = \
        "2*tau^(1/0)"
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(doc))
    assert err.value.problems == [
        "multipoles.resting_quadrupole.quadrupole.211: column 6: exponent "
        "1.0/0.0 cannot be evaluated: div: division by a zero value"]


def test_symmetry_problems_print_plain_indices():
    doc = json.loads(MINIMAL)
    doc["multipoles"]["lop"] = {"quadrupole": {"211": "1"}}
    doc["multipoles"]["dip"] = {"dipole": {"01": "1"}}
    doc["jobs"] += [{"command": "classify", "multipole": m,
                     "worldline": "rest"} for m in ("lop", "dip")]
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(doc))
    lop, dip = err.value.problems
    assert lop.startswith("multipoles.lop: cyclic sum over gamma(1, 1, 2) ")
    assert dip.startswith("multipoles.dip: dipole components not "
                          "antisymmetric at tau=")
    assert dip.endswith(": |gamma(0, 1) + gamma(1, 0)| = 1.000e+00")


def _potentials_doc(**fields):
    doc = json.loads(MINIMAL)
    doc["jobs"] = [{"command": "potentials",
                    "source": {"kind": "electric_dipole",
                               "moments": [0.1, 0.2, 1.0]}}]
    doc["jobs"][0].update(fields)
    return doc


_DIRECTIONS = "must be a non-empty list of nonzero 3-vectors of numbers"


def _charge_doc(**fields):
    doc = json.loads(MINIMAL)
    doc["jobs"][0].update(fields)
    return doc


@pytest.mark.parametrize("doc, problem", [
    (_potentials_doc(r_lo="x"),
     "jobs[0]: r_lo 'x' must be a positive finite number"),
    (_potentials_doc(r_lo=-10),
     "jobs[0]: r_lo -10 must be a positive finite number"),
    (_potentials_doc(r_hi=float("inf")),
     "jobs[0]: r_hi inf must be a positive finite number"),
    (_potentials_doc(source={"kind": "monopole"}),
     "jobs[0].source: monopole moments must be one finite number"),
    (_potentials_doc(source=[1]),
     "jobs[0]: source must be an object with 'kind' and 'moments'"),
    (_potentials_doc(source=None),
     "jobs[0]: source must be an object with 'kind' and 'moments'"),
    (_potentials_doc(directions=[[1, 2]]),
     "jobs[0]: directions [[1, 2]] " + _DIRECTIONS),
    (_potentials_doc(directions="z"),
     "jobs[0]: directions 'z' " + _DIRECTIONS),
    (_potentials_doc(directions=[]), "jobs[0]: directions [] " + _DIRECTIONS),
    (_potentials_doc(directions=[[0, 0, 0]]),
     "jobs[0]: directions [[0, 0, 0]] " + _DIRECTIONS),
    (_potentials_doc(source={"kind": "monopole", "moments": 1, "eps0": "a"}),
     "jobs[0].source: eps0 'a' must be a positive finite number"),
    (_potentials_doc(source={"kind": "monopole", "moments": 1, "eps0": 0}),
     "jobs[0].source: eps0 0 must be a positive finite number"),
    (_potentials_doc(source={"kind": "electric_dipole", "moments": [1, 2]}),
     "jobs[0].source: electric_dipole moments must be 3 finite numbers"),
    (_potentials_doc(source={"kind": "monopole", "moments": "q"}),
     "jobs[0].source: monopole moments must be one finite number"),
    (_charge_doc(expect="x"), "jobs[0]: expect 'x' must be a finite number"),
    (_charge_doc(expect=[1]), "jobs[0]: expect [1] must be a finite number"),
])
def test_potentials_and_charge_inputs_checked(tmp_path, capsys, doc,
                                              problem):
    """Outside input of potentials and charge jobs is a scene problem
    (exit 2), not a traceback or a job that runs on nonsense."""
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(doc))
    assert err.value.problems == [problem]
    path = tmp_path / "bad.scene"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
    assert f"scene error: {problem}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("fields, error", [
    ({"samples": 1}, "a ray needs 2 distinct radii, got 1 on [10.0, 1000.0]"),
    ({"r_lo": 10, "r_hi": 10}, "a ray needs 2 distinct radii, got 50 on "
                               "[10.0, 10.0]"),
])
def test_potentials_job_needs_two_radii(tmp_path, fields, error):
    """A falloff exponent cannot be fitted to one radius: the job FAILs
    instead of passing with a meaningless slope."""
    doc = _potentials_doc(**fields)
    results, code = run(parse_scene(json.dumps(doc)), out_dir=tmp_path)
    assert code == 1
    assert results[0].data == {"error": error}


def test_potentials_example_scene_passes_every_job(tmp_path):
    results, code = run(
        parse_scene((SCENES / "potentials_example.scene").read_text()),
        out_dir=tmp_path)
    assert code == 0
    falloff = {"monopole": -1.0, "electric_dipole": -2.0,
               "magnetic_dipole": -2.0, "electric_quadrupole": -3.0,
               "magnetic_quadrupole": -3.0}
    assert sorted(r.data["kind"] for r in results) == sorted(falloff)
    for r in results:
        assert len(r.files) == 2
        assert all(abs(e - falloff[r.data["kind"]]) < 0.01
                   for e in r.data["exponents"])


@pytest.mark.parametrize("scene, multipole, kind, key, text, want", [
    ("worked_example", "resting_quadrupole", "quadrupole", "211",
     "sqrt(-1)", "sqrt: argument -1.0 is not positive"),
    ("classify_example", "charged_dipole", "dipole", "10", "1/(tau - tau)",
     "div: division by a zero value"),
    ("worked_example", "resting_quadrupole", "quadrupole", "211",
     "1e308*10", "gamma(2, 1, 1) is not finite at tau=0.02738500170148095"),
])
def test_component_that_cannot_be_evaluated_is_a_scene_error(
        tmp_path, capsys, scene, multipole, kind, key, text, want):
    """A component entry that raises when evaluated, or reads inf, is a
    scene problem naming its multipole (exit 2), with no warning first
    (the suite turns warnings into errors), not a traceback or a
    symmetry residual of NaN."""
    doc = json.loads((SCENES / f"{scene}.scene").read_text())
    doc["multipoles"][multipole][kind][key] = text
    want = f"multipoles.{multipole}: {want}"
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(doc))
    assert err.value.problems == [want]
    path = tmp_path / "bad.scene"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"scene error: {want}\n"


def test_potential_that_overflows_fails_its_job(tmp_path):
    """Moments whose potential magnitude overflows along a ray fail that
    job (exit 1), with no warning first, instead of a PASS with falloff
    exponent NaN and inf in the ray CSV."""
    doc = json.loads((SCENES / "potentials_example.scene").read_text())
    job = next(j for j in doc["jobs"] if j["name"] == "magnetic-dipole")
    job["source"]["moments"] = [1e300, 0.7, 1.0]
    results, code = run(parse_scene(json.dumps(doc)), out_dir=tmp_path)
    assert code == 1
    assert [r.name for r in results if not r.passed] == ["magnetic-dipole"]
    failed = next(r for r in results if not r.passed)
    assert failed.data == {"error": "potential magnitude is not finite "
                                    "along direction (0.3, 0.5, 1.0)"}
    assert not (tmp_path / "magnetic-dipole_ray0.csv").exists()
