"""Scene files: JSON documents declaring charts, worldlines, multipole
bundles and a job list.

Expressions are strings in the documented grammar (see
:mod:`polekit.expr`): worldline and component functions use ``tau``,
chart components use ``x0..x3``.  Component dictionaries are explicit:
every nonzero entry is written out (index digits as the key, e.g.
``"211"``), and the declared set must satisfy the symmetry constraints,
which is validated at parse time with the failing index and tau sample
reported otherwise.  A chart's declared ``inverse`` is checked at parse
time too, along the worldlines its transform and verify jobs use.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from . import charts as chartmod
from . import expr as ex
from .errors import DomainError, PolekitError, SceneError
from .fields import StaticSource
from .moments import (
    DipoleComponents,
    Monopole,
    QuadrupoleComponents,
    sample_taus,
)
from .pairing import SourceBundle
from .worldlines import Worldline

_COMMANDS = ("transform", "verify", "classify", "charge", "potentials")
_BUNDLE_COMMANDS = ("transform", "verify", "classify", "charge")
# A job name; it names the job's files in the output directory too.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


@dataclass
class Scene:
    charts: dict
    worldlines: dict
    multipoles: dict
    jobs: list

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
            return chartmod.ChartPair(fw, None)
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
        if _finite(spec["charge"]):
            out["monopole"] = Monopole(float(spec["charge"]))
        else:
            problems.append(f"{path}.charge: must be a finite number")
    for key, arity, cls in (("dipole", 2, DipoleComponents),
                            ("quadrupole", 3, QuadrupoleComponents)):
        if key in spec:
            before = len(problems)
            entries = _parse_components(spec[key], arity, f"{path}.{key}",
                                        problems)
            # A block with a bad entry is left out of symmetry checks.
            if len(problems) == before:
                out[key] = cls.from_dict(entries)
    if not known & spec.keys():
        problems.append(f"{path}: declare at least one of {sorted(known)}")
        return None
    return out


def _parse_kappa0(spec, path, problems):
    """The antisymmetric 4x4 matrix of ``spec``, an object of two-digit
    index: JSON number (the upper or lower entry), or zeros for None;
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
        if not _finite(val):
            problems.append(
                f"{path}: kappa0 value {val!r} at {key!r} must be a finite "
                f"number")
            continue
        M[d, e] = val
        M[e, d] = -val
    return M


def _positive_int(v):
    return type(v) is int and v >= 1


def _non_negative_int(v):
    return type(v) is int and v >= 0


def _list_of(ok):
    """A check that v is a list whose every item passes ``ok``."""
    return lambda v: isinstance(v, list) and all(ok(k) for k in v)


def _finite(v):
    """Whether v is a JSON number (not a bool), finite as a float."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _positive_finite(v):
    return _finite(v) and v > 0


def _directions(v):
    """Whether v is a non-empty list of nonzero finite 3-vectors."""
    return isinstance(v, list) and len(v) > 0 and all(
        isinstance(d, list) and len(d) == 3 and all(map(_finite, d))
        and any(d) for d in v)


# Job fields: key -> ({command: default}, check, what the check asks
# for).  A command reads only its own fields; a default of None marks
# a field as optional (a classify job's ``orders`` default depends on
# its bundle).
_JOB_FIELDS = {
    "forms": ({"verify": 20}, _positive_int, "a positive integer"),
    "samples": ({"transform": 20, "potentials": 50}, _positive_int,
                "a positive integer"),
    "choices": ({"charge": 5}, _positive_int, "a positive integer"),
    "tolerance": ({"transform": 1e-9, "verify": 1e-6, "charge": 1e-8},
                  _positive_finite, "a positive finite number"),
    "seed": (dict.fromkeys(_COMMANDS, 0), _non_negative_int,
             "a non-negative integer"),
    "orders": ({"classify": None}, _list_of(_non_negative_int),
               "a list of non-negative integers"),
    "electric_orders": ({"classify": ()}, _list_of(_positive_int),
                        "a list of positive integers"),
    "expect": ({"charge": None}, _finite, "a finite number"),
    "r_lo": ({"potentials": 10.0}, _positive_finite,
             "a positive finite number"),
    "r_hi": ({"potentials": 1000.0}, _positive_finite,
             "a positive finite number"),
    "directions": ({"potentials": ((0.0, 0.0, 1.0),)}, _directions,
                   "a non-empty list of nonzero 3-vectors of numbers"),
}


def _known(ref, names):
    """Whether ``ref`` is one of the (string) names (any JSON value may
    be given)."""
    return isinstance(ref, str) and ref in names


def _check_inverses(specs, charts, worldlines, jobs, problems):
    """Check each declared chart ``inverse`` with
    :meth:`ChartPair.verify` at 17 points along every worldline that a
    transform or verify job uses with that chart; registry pairs are
    verified by the test suite instead."""
    use = {}
    for job in jobs:
        c, w = job.get("chart"), job.get("worldline")
        if (job["command"] in ("transform", "verify") and _known(c, charts)
                and _known(w, worldlines) and "registry" not in specs[c]
                and charts[c].inverse is not None):
            use.setdefault(c, {})[w] = None
    for c, names in use.items():
        for w in names:
            line = worldlines[w]
            try:
                charts[c].verify(line.point_at(line.sample_taus(17)))
            except PolekitError as err:
                problems.append(
                    f"charts.{c}: inverse fails along worldline {w!r}: {err}")
                break


def _finite_worldline(line):
    """``line``, whose points and velocities must be finite at 17 sample
    taus: raises a PolekitError naming the first that is not, or why it
    cannot be evaluated."""
    taus = line.sample_taus(17)
    with np.errstate(all="ignore"):  # a non-finite value is reported
        values = np.concatenate(line.eval(taus), axis=1)
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        i, j = bad[0]
        raise DomainError(f"{('component', 'velocity component')[j // 4]} "
                          f"{j % 4} is not finite at tau={taus[i]}")
    return line


def _validate_job(i, job, declared, scene_charts, job_names, problems):
    """The job with its defaults filled in, or None when it has no known
    command.  A reference is checked against the ``declared`` names of
    its section (a definition rejected for its own problem included, so
    that it gives no second problem here); ``scene_charts`` holds the
    charts that parsed."""
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
    name = out["name"]
    if not (isinstance(name, str) and _NAME.fullmatch(name)):
        problems.append(f"{path}: name {name!r} must be a string of letters, "
                        f"digits, '_', '.' and '-' that starts with a letter "
                        f"or digit")
    elif name in job_names:
        problems.append(f"{path}: name {name!r} is already used by "
                        f"jobs[{job_names[name]}]")
    else:
        job_names[name] = i
    for key, commands in (("multipole", _BUNDLE_COMMANDS),
                          ("worldline", _BUNDLE_COMMANDS),
                          ("chart", ("transform", "verify"))):
        ref = job.get(key)
        if cmd in commands and not _known(ref, declared[key]):
            problems.append(f"{path}: unknown {key} {ref!r}")
    chart = job.get("chart")
    if (cmd == "verify" and _known(chart, scene_charts)
            and scene_charts[chart].inverse is None):
        problems.append(f"{path}: chart {chart!r} has no verified inverse, "
                        f"which verify needs")
    for key, (defaults, ok, want) in _JOB_FIELDS.items():
        if cmd not in defaults:
            continue
        if key not in job:
            out[key] = defaults[cmd]
        elif not ok(job[key]):
            problems.append(f"{path}: {key} {job[key]!r} must be {want}")
    if cmd == "transform":
        out["kappa0"] = _parse_kappa0(job.get("kappa0"), path, problems)
    if cmd == "potentials":
        spec = job.get("source")
        if not isinstance(spec, dict):
            problems.append(f"{path}: source must be an object with 'kind' "
                            f"and 'moments'")
            return out
        try:
            out["source"] = StaticSource(spec.get("kind"), spec.get("moments"),
                                         spec.get("eps0", 1.0))
        except DomainError as err:
            problems.append(f"{path}.source: {err}")
    return out


def _parse_interval(interval):
    """The pair of floats (t0, t1) of ``interval``, or None unless it is
    a list of two finite numbers with t0 < t1."""
    if not (isinstance(interval, list) and len(interval) == 2
            and all(map(_finite, interval))):
        return None
    t0, t1 = map(float, interval)
    return (t0, t1) if t0 < t1 else None


def _section(raw, key, kind, problems):
    """The top-level section ``raw[key]`` of JSON type ``kind`` (dict or
    list); absent or null is empty, and a section of another type is a
    problem and reads as empty."""
    value = raw.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        want = "an object" if kind is dict else "an array"
        problems.append(f"{key}: section must be {want}")
        return kind()
    return value


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
    chart_specs = _section(raw, "charts", dict, problems)
    charts = {}
    for name, spec in chart_specs.items():
        parsed = _parse_chart(name, spec, problems)
        if parsed is not None:
            charts[name] = parsed
    worldline_specs = _section(raw, "worldlines", dict, problems)
    worldlines = {}
    for name, spec in worldline_specs.items():
        path = f"worldlines.{name}"
        parsed = _parse_four(spec, "components", ex.TAU_VARS, path, problems)
        if parsed is None:
            continue
        interval = _parse_interval(spec.get("interval"))
        if interval is None:
            problems.append(
                f"{path}: interval must be [t0, t1] with finite t0 < t1")
            continue
        try:
            worldlines[name] = _finite_worldline(Worldline(parsed, interval))
        except PolekitError as err:
            problems.append(f"{path}: {err}")
    multipole_specs = _section(raw, "multipoles", dict, problems)
    multipoles = {}
    for name, spec in multipole_specs.items():
        parsed = _parse_multipole(name, spec, problems)
        if parsed is not None:
            multipoles[name] = parsed
    declared = {"chart": chart_specs, "worldline": worldline_specs,
                "multipole": multipole_specs}
    jobs = []
    job_names = {}
    for i, job in enumerate(_section(raw, "jobs", list, problems)):
        parsed = _validate_job(i, job, declared, charts, job_names, problems)
        if parsed is not None:
            jobs.append(parsed)

    # Symmetry validation over the intervals each multipole is used with.
    use = {}
    for job in jobs:
        m = job.get("multipole")
        w = job.get("worldline")
        if _known(m, multipoles) and _known(w, worldlines):
            use.setdefault(m, set()).add(w)
    _check_inverses(chart_specs, charts, worldlines, jobs, problems)
    for name, spec in multipoles.items():
        intervals = [worldlines[w].interval for w in use.get(name, ())]
        if not intervals:
            intervals = [(0.0, 1.0)]
        for interval in intervals:
            taus = sample_taus(interval)
            try:
                for part in ("dipole", "quadrupole"):
                    if part in spec:
                        spec[part].check(taus, 1e-12)
            except PolekitError as err:
                problems.append(f"multipoles.{name}: {err}")
                break
    if problems:
        raise SceneError(problems)
    return Scene(charts, worldlines, multipoles, jobs)
