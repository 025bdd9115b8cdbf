"""Scene files: JSON documents declaring charts, worldlines, multipole
bundles and a job list.

Expressions are strings in the documented grammar (see
:mod:`polekit.expr`): worldline and component functions use ``tau``,
chart components use ``x0..x3``.  Component dictionaries are explicit:
every nonzero entry is written out (index digits as the key, e.g.
``"211"``), and the declared set must satisfy the symmetry constraints,
which is validated at parse time with the failing index and tau sample
reported otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import charts as chartmod
from . import expr as ex
from .errors import PolekitError, SceneError, SymmetryError
from .moments import (
    DipoleComponents,
    Monopole,
    QuadrupoleComponents,
    sample_taus,
)
from .pairing import SourceBundle
from .worldlines import Worldline

_COMMANDS = ("transform", "verify", "classify", "charge", "potentials")


@dataclass
class Scene:
    charts: dict
    worldlines: dict
    multipoles: dict
    jobs: list
    raw: dict = field(repr=False, default_factory=dict)

    def to_text(self):
        """Canonical serialization; reparses to an equivalent scene."""
        return json.dumps(self.raw, indent=2, sort_keys=True) + "\n"

    def chart_pair(self, name):
        entry = self.charts[name]
        if isinstance(entry, chartmod.ChartPair):
            return entry
        raise SceneError([f"chart {name!r} has no verified inverse"])

    def chart_forward(self, name):
        entry = self.charts[name]
        if isinstance(entry, chartmod.ChartPair):
            return entry.forward
        return entry

    def bundle(self, multipole_name, worldline_name):
        spec = self.multipoles[multipole_name]
        return SourceBundle(
            worldline=self.worldlines[worldline_name],
            monopole=spec.get("monopole"),
            dipole=spec.get("dipole"),
            quadrupole=spec.get("quadrupole"),
        )


def _parse_components(mapping, arity, path, problems):
    entries = {}
    if not isinstance(mapping, dict):
        problems.append(f"{path}: must be an object of index: expression")
        return entries
    for key, text in mapping.items():
        if len(key) != arity or not all(ch in "0123" for ch in key):
            problems.append(
                f"{path}: component key {key!r} must be {arity} digits in 0..3"
            )
            continue
        idx = tuple(int(ch) for ch in key)
        if not isinstance(text, str):
            problems.append(f"{path}.{key}: expression must be a string")
            continue
        try:
            entries[idx] = ex.parse(text, ex.TAU_VARS)
        except SceneError as err:
            problems.append(f"{path}.{key}: {err.problems[0]}")
    return entries


def _parse_four(spec, key, variables, path, problems):
    """The four expressions of ``spec[key]`` in ``variables``, or None
    (with the problems recorded) unless it is a list of four parsable
    strings."""
    texts = spec.get(key) if isinstance(spec, dict) else None
    if not (isinstance(texts, list) and len(texts) == 4):
        problems.append(f"{path}: {key} must be 4 expressions")
        return None
    parsed = []
    for i, text in enumerate(texts):
        if not isinstance(text, str):
            problems.append(f"{path}.{key}[{i}]: expression must be a string")
            continue
        try:
            parsed.append(ex.parse(text, variables))
        except SceneError as err:
            problems.append(f"{path}.{key}[{i}]: {err.problems[0]}")
    return tuple(parsed) if len(parsed) == 4 else None


def _parse_chart(name, spec, problems):
    path = f"charts.{name}"
    if not isinstance(spec, dict):
        problems.append(f"{path}: chart spec must be an object")
        return None
    if "registry" in spec:
        try:
            return chartmod.get(spec["registry"], spec.get("params"))
        except PolekitError as err:
            problems.append(f"{path}: {err}")
            return None
    if "components" in spec:
        parsed = _parse_four(spec, "components", ex.CHART_VARS, path,
                             problems)
        if parsed is None:
            return None
        fw = chartmod.Chart(parsed, spec.get("label", name))
        if spec.get("inverse") is None:
            return fw
        inverse = _parse_four(spec, "inverse", ex.CHART_VARS, path, problems)
        if inverse is None:
            return None
        return chartmod.ChartPair(
            fw, chartmod.Chart(inverse, f"{name} inverse"))
    problems.append(f"{path}: need either 'registry' or 'components'")
    return None


def _parse_multipole(name, spec, problems):
    path = f"multipoles.{name}"
    if not isinstance(spec, dict):
        problems.append(f"{path}: multipole spec must be an object")
        return None
    out = {}
    known = {"charge", "dipole", "quadrupole"}
    for key in spec:
        if key not in known:
            problems.append(f"{path}: unknown field {key!r}")
    if "charge" in spec:
        try:
            q = float(spec["charge"])
        except (TypeError, ValueError, OverflowError):
            q = math.nan
        if math.isfinite(q):
            out["monopole"] = Monopole(q)
        else:
            problems.append(f"{path}.charge: must be a finite number")
    if "dipole" in spec:
        entries = _parse_components(spec["dipole"], 2, f"{path}.dipole",
                                    problems)
        out["dipole"] = DipoleComponents.from_dict(entries)
    if "quadrupole" in spec:
        entries = _parse_components(spec["quadrupole"], 3,
                                    f"{path}.quadrupole", problems)
        out["quadrupole"] = QuadrupoleComponents.from_dict(entries)
    if not known & spec.keys():
        problems.append(f"{path}: declare at least one of {sorted(known)}")
        return None
    return out


def parse_kappa0(spec, path, problems):
    """The antisymmetric 4x4 matrix of ``spec``, an object of two-digit
    index: number (the upper or lower entry), or zeros for None;
    malformed entries are recorded as problems and left out."""
    M = np.zeros((4, 4))
    if spec is None:
        return M
    if not isinstance(spec, dict):
        problems.append(f"{path}: kappa0 must be an object of index: value")
        return M
    for key, val in spec.items():
        if len(key) != 2 or not all(ch in "0123" for ch in key):
            problems.append(f"{path}: kappa0 key {key!r} must be two digits")
            continue
        d, e = int(key[0]), int(key[1])
        if d == e:
            problems.append(f"{path}: kappa0 diagonal {key!r} must be zero")
            continue
        try:
            v = float(val)
        except (TypeError, ValueError):
            v = math.nan
        if not math.isfinite(v):
            problems.append(
                f"{path}: kappa0 value {val!r} at {key!r} must be a finite "
                f"number")
            continue
        M[d, e] = v
        M[e, d] = -v
    return M


def _validate_job(i, job, scene_charts, scene_worldlines, scene_multipoles,
                  problems):
    path = f"jobs[{i}]"
    if not isinstance(job, dict):
        problems.append(f"{path}: job must be an object")
        return None
    cmd = job.get("command")
    if cmd not in _COMMANDS:
        problems.append(
            f"{path}: unknown command {cmd!r} (one of {', '.join(_COMMANDS)})"
        )
        return None
    out = dict(job)
    out.setdefault("name", f"{cmd}-{i}")
    out.setdefault("seed", 0)
    if cmd in ("transform", "verify", "classify", "charge"):
        m = job.get("multipole")
        if m not in scene_multipoles:
            problems.append(f"{path}: unknown multipole {m!r}")
        w = job.get("worldline")
        if w not in scene_worldlines:
            problems.append(f"{path}: unknown worldline {w!r}")
    if cmd in ("transform", "verify"):
        c = job.get("chart")
        if c not in scene_charts:
            problems.append(f"{path}: unknown chart {c!r}")
    if cmd == "transform":
        out["kappa0"] = parse_kappa0(job.get("kappa0"), path, problems)
    if cmd == "potentials":
        if "source" not in job:
            problems.append(f"{path}: potentials job needs a 'source'")
    return out


def _parse_interval(interval):
    """The pair of floats (t0, t1) of ``interval``, or None unless it is
    a list of two finite numbers with t0 < t1."""
    if not (isinstance(interval, list) and len(interval) == 2
            and all(type(t) in (int, float) for t in interval)):
        return None
    try:
        t0, t1 = float(interval[0]), float(interval[1])
    except OverflowError:  # an integer beyond the float range
        return None
    if math.isfinite(t0) and math.isfinite(t1) and t0 < t1:
        return t0, t1
    return None


def parse_scene(text):
    """Parse and validate scene text; raises SceneError listing every
    problem found (JSON position or scene path plus expression column)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise SceneError(
            [f"line {err.lineno}, column {err.colno}: {err.msg}"]
        )
    if not isinstance(raw, dict):
        raise SceneError(["scene must be a JSON object"])
    problems = []
    charts = {}
    for name, spec in (raw.get("charts") or {}).items():
        parsed = _parse_chart(name, spec, problems)
        if parsed is not None:
            charts[name] = parsed
    worldlines = {}
    for name, spec in (raw.get("worldlines") or {}).items():
        path = f"worldlines.{name}"
        parsed = _parse_four(spec, "components", ex.TAU_VARS, path, problems)
        if parsed is None:
            continue
        interval = _parse_interval(spec.get("interval"))
        if interval is None:
            problems.append(
                f"{path}: interval must be [t0, t1] with finite t0 < t1")
            continue
        worldlines[name] = Worldline(parsed, interval)
    multipoles = {}
    for name, spec in (raw.get("multipoles") or {}).items():
        parsed = _parse_multipole(name, spec, problems)
        if parsed is not None:
            multipoles[name] = parsed
    jobs = []
    for i, job in enumerate(raw.get("jobs") or []):
        parsed = _validate_job(i, job, charts, worldlines, multipoles,
                               problems)
        if parsed is not None:
            jobs.append(parsed)

    # Symmetry validation over the intervals each multipole is used with.
    use = {}
    for job in jobs:
        m = job.get("multipole")
        w = job.get("worldline")
        if m in multipoles and w in worldlines:
            use.setdefault(m, set()).add(w)
    for name, spec in multipoles.items():
        intervals = [worldlines[w].interval for w in use.get(name, ())]
        if not intervals:
            intervals = [(0.0, 1.0)]
        for interval in intervals:
            taus = sample_taus(interval)
            try:
                if "dipole" in spec:
                    spec["dipole"].check_antisymmetry(taus, tol=1e-12)
                if "quadrupole" in spec:
                    spec["quadrupole"].check_symmetries(taus, tol=1e-12)
            except SymmetryError as err:
                problems.append(f"multipoles.{name}: {err}")
                break
    if problems:
        raise SceneError(problems)
    return Scene(charts, worldlines, multipoles, jobs, raw)
