import json
import os
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


def test_scene_round_trip_structural():
    text = (SCENES / "worked_example.scene").read_text()
    scene = parse_scene(text)
    again = parse_scene(scene.to_text())
    assert scene.raw == again.raw
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


def test_kappa0_flag_offsets_intercept(tmp_path):
    scene_path = SCENES / "worked_example.scene"
    code = main([
        "run", str(scene_path), "--command", "transform",
        "--out-dir", str(tmp_path), "--kappa0", "12=0.5",
    ])
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    fit = payload["jobs"][0]["data"]["P_fits"]["12"]
    assert fit["intercept"] == pytest.approx(0.5, abs=1e-9)
    assert fit["slope"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("flag, problem", [
    ("1=2", "key '1' must be two digits"),
    ("ab=1", "key 'ab' must be two digits"),
    ("12=x", "value 'x' at '12' must be a finite number"),
    ("11=1", "diagonal '11' must be zero"),
    ("12", "value '' at '12' must be a finite number"),
])
def test_kappa0_flag_malformed_is_usage_error(tmp_path, capsys, flag,
                                              problem):
    code = main([
        "run", str(SCENES / "worked_example.scene"), "--command",
        "transform", "--out-dir", str(tmp_path), "--kappa0", flag,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"usage error: --kappa0: kappa0 {problem}" in err
    assert not (tmp_path / "report.json").exists()


def test_scene_kappa0_non_numeric_reported():
    doc = json.loads((SCENES / "worked_example.scene").read_text())
    transform = next(j for j in doc["jobs"] if j["command"] == "transform")
    transform["kappa0"] = {"12": "x"}
    with pytest.raises(SceneError) as err:
        parse_scene(json.dumps(doc))
    assert any("kappa0 value 'x' at '12' must be a finite number" in p
               for p in err.value.problems)


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
