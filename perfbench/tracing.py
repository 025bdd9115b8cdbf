"""Spans around polekit's public entry points, recorded from outside.

The tracer replaces each entry point by a wrapper that records a span
(name, start, end, parent) and restores the originals afterwards.  A
function is replaced in every loaded polekit module that holds it by
name (``pairing`` imports ``integrate`` directly, ``transport`` imports
``CumulativeIntegral``, the package re-exports most functions), and a
method is replaced on its class.  An entry point that no longer exists
is recorded as absent and its metrics read 0; the run goes on.

Spans are kept in flat lists while the pass runs and are turned into
per-layer metrics afterwards: a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

FORM_CLASSES = ("ProductTestForm", "ExprCovector", "ScaledCovector",
                "PulledBackForm")
PAIR_KINDS = ("monopole", "dipole", "quadrupole")
CLASSIFY_TESTS = (("closed", "test_closed"), ("order", "test_order"),
                  ("electric_order", "test_electric_order"))

# (module, attribute or Class.method, what the wrapper records besides
# the span: "nodes" / "samples" read from the returned report, "integrand"
# wraps the callable passed as first argument in its own span).
ENTRY_POINTS = (
    [("polekit.scene", "parse_scene", None),
     ("polekit.cli", "run", None),
     ("polekit.transport", "transform_quadrupole", None),
     ("polekit.transport", "transform_dipole", None),
     ("polekit.quadrature", "integrate", "integrand"),
     ("polekit.quadrature", "CumulativeIntegral.__init__", "cumulative"),
     ("polekit.pairing", "pull_back_test_form", None),
     ("polekit.jets", "compose", None),
     ("polekit.charts", "Chart.jets_at", None),
     ("polekit.worldlines", "Worldline.eval", None),
     ("polekit.classify", "extract_charge", None),
     ("polekit.fields", "falloff_exponent", None)]
    + [("polekit.pairing", f"pair_{k}", "nodes") for k in PAIR_KINDS]
    + [("polekit.pairing", f"{c}.{m}", None)
       for c in FORM_CLASSES for m in ("jets_at", "values_at")]
    + [("polekit.classify", fn, "samples") for _, fn in CLASSIFY_TESTS]
)

INTEGRAND = "quadrature.integrand"


def span_name(module, attr):
    return f"{module.split('.')[-1]}.{attr}"


class Tracer:
    """Records spans for one traced pass; ``install`` patches the entry
    points, ``restore`` puts the originals back."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = []
        self.parent = []
        self.start = []
        self.end = []
        self.value = {}
        self.absent = []
        self._stack = [-1]
        self._patches = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, record=None):
        nid = self._id(name)
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        stack, value, clock = self._stack, self.value, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            if record == "integrand" and args:
                args = (self.wrap(INTEGRAND, args[0]),) + args[1:]
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if record == "nodes":
                value[i] = getattr(result, "nodes_used", 0)
            elif record == "samples":
                value[i] = getattr(result, "samples", 1)
            elif record == "cumulative":
                value[i] = getattr(args[0], "nodes", 0)
            return result

        return traced

    def install(self):
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "polekit" or n.startswith("polekit.")]
        for module_name, attr, record in ENTRY_POINTS:
            name = span_name(module_name, attr)
            self._id(name)
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(method) if owner else None
                if not inspect.isfunction(original):
                    self.absent.append(name)
                    continue
                setattr(owner, method, self.wrap(name, original, record))
                self._patches.append((owner, method, original))
                continue
            original = getattr(module, attr, None)
            if not inspect.isfunction(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, record)
            for mod in loaded:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))
        self._id(INTEGRAND)

    def restore(self):
        """Put every original back; returns True when all are in place."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        ok = all(vars(owner)[key] is original
                 for owner, key, original in self._patches)
        self._patches = []
        return ok

    def arrays(self):
        return {
            "names": np.array(self.names),
            "name_of": np.array(self.name_of, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
        }


class SpanTable:
    """Vectorised queries over one pass's spans."""

    def __init__(self, tracer):
        a = tracer.arrays()
        self.ids = {n: i for i, n in enumerate(tracer.names)}
        self.name_of = a["name_of"]
        self.parent = a["parent"]
        self.dur = a["end"] - a["start"]
        self.n = len(self.dur)
        self.value = np.zeros(self.n)
        for i, v in tracer.value.items():
            self.value[i] = v
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent],
                            weights=self.dur[has_parent], minlength=self.n)
        self.self_time = self.dur - child[: self.n]
        self.parent_name = np.full(self.n, -1)
        self.parent_name[has_parent] = self.name_of[self.parent[has_parent]]

    def mask(self, *names):
        ids = [self.ids[n] for n in names if n in self.ids]
        return np.isin(self.name_of, ids)

    def calls(self, *names):
        return int(np.count_nonzero(self.mask(*names)))

    def total(self, *names):
        return float(self.dur[self.mask(*names)].sum())

    def self_total(self, *names):
        return float(self.self_time[self.mask(*names)].sum())

    def values(self, *names):
        return self.value[self.mask(*names)]

    def under(self, child, parents):
        """Total duration of ``child`` spans whose parent is one of
        ``parents``."""
        pids = [self.ids[n] for n in parents if n in self.ids]
        m = self.mask(child) & np.isin(self.parent_name, pids)
        return float(self.dur[m].sum())


def _ratio(num, den):
    return float(num) / den if den else 0.0


def layer_counts(t):
    """The exact counts of one traced pass; two passes over the same
    inputs must give equal counts."""
    out = {}
    for k in PAIR_KINDS:
        nodes = t.values(f"pairing.pair_{k}")
        out[f"pairing.{k}.nodes_per_call_list"] = [int(v) for v in nodes]
    out["pairing.zero_node_calls"] = int(sum(
        np.count_nonzero(t.values(f"pairing.pair_{k}") == 0)
        for k in PAIR_KINDS))
    out["quadrature.integrate_calls"] = t.calls("quadrature.integrate")
    out["quadrature.integrand_evals"] = t.calls(INTEGRAND)
    out["quadrature.cumulative_calls"] = t.calls(
        "quadrature.CumulativeIntegral.__init__")
    out["quadrature.cumulative_nodes"] = int(
        t.values("quadrature.CumulativeIntegral.__init__").sum())
    out["jets.compose_calls"] = t.calls("jets.compose")
    out["worldlines.eval_calls"] = t.calls("worldlines.Worldline.eval")
    out["charts.jets_at_calls"] = t.calls("charts.Chart.jets_at")
    out["pairing.form_jets_calls"] = t.calls(
        *[f"pairing.{c}.jets_at" for c in FORM_CLASSES])
    return out


def layer_metrics(t):
    """Per-layer metrics of one traced pass (seconds are per pass)."""
    us = 1e6
    m = {}
    pair_names = [f"pairing.pair_{k}" for k in PAIR_KINDS]
    pair_calls = 0
    zero = 0
    for k, name in zip(PAIR_KINDS, pair_names):
        nodes = t.values(name)
        pair_calls += len(nodes)
        zero += int(np.count_nonzero(nodes == 0))
        m[f"pairing.{k}.us_per_node"] = _ratio(t.total(name) * us,
                                               nodes.sum())
        m[f"pairing.{k}.nodes_per_call"] = _ratio(nodes.sum(), len(nodes))
    m["pairing.window_s"] = (t.total(*pair_names)
                             - t.under("quadrature.integrate", pair_names))
    m["pairing.pull_back_s"] = t.total("pairing.pull_back_test_form")
    jets_names = [f"pairing.{c}.jets_at" for c in FORM_CLASSES]
    m["pairing.form_jets_us_per_call"] = _ratio(
        t.self_total(*jets_names) * us, t.calls(*jets_names))
    m["pairing.zero_node_frac"] = _ratio(zero, pair_calls)
    evals = t.calls(INTEGRAND)
    m["moments.component_us_per_eval"] = _ratio(
        t.self_total(INTEGRAND) * us, evals)
    m["jets.compose_calls"] = t.calls("jets.compose")
    m["jets.compose_us_per_call"] = _ratio(t.total("jets.compose") * us,
                                           t.calls("jets.compose"))
    integrate_calls = t.calls("quadrature.integrate")
    m["quadrature.integrate_calls"] = integrate_calls
    m["quadrature.evals_per_integrate"] = _ratio(evals, integrate_calls)
    m["quadrature.self_us_per_eval"] = _ratio(
        t.self_total("quadrature.integrate") * us, evals)
    cum = "quadrature.CumulativeIntegral.__init__"
    m["quadrature.cumulative_s"] = t.total(cum)
    m["quadrature.cumulative_nodes"] = float(t.values(cum).sum())
    transforms = ("transport.transform_quadrupole",
                  "transport.transform_dipole")
    m["transport.quadrupole_s"] = t.total(transforms[0])
    m["transport.dipole_s"] = t.total(transforms[1])
    m["transport.read_s"] = max(0.0, t.total("cli.run") - sum(
        t.under(n, ["cli.run"])
        for n in transforms + tuple(pair_names)
        + ("pairing.pull_back_test_form",)))
    m["charts.jets_at_calls"] = t.calls("charts.Chart.jets_at")
    m["charts.jets_at_us_per_call"] = _ratio(
        t.total("charts.Chart.jets_at") * us, t.calls("charts.Chart.jets_at"))
    m["worldlines.eval_calls"] = t.calls("worldlines.Worldline.eval")
    m["worldlines.eval_us_per_call"] = _ratio(
        t.total("worldlines.Worldline.eval") * us,
        t.calls("worldlines.Worldline.eval"))
    for label, fn in CLASSIFY_TESTS:
        name = f"classify.{fn}"
        m[f"classify.{label}_s_per_probe"] = _ratio(t.total(name),
                                                    t.values(name).sum())
    m["classify.charge_s_per_probe"] = _ratio(
        t.total("classify.extract_charge"), t.calls("classify.extract_charge"))
    m["fields.falloff_s"] = t.total("fields.falloff_exponent")
    m["scene.parse_s"] = t.total("scene.parse_scene")
    m["trace.spans"] = t.n
    return m
