"""Scene-driven command line front end.

``polekit run scene.json`` executes the scene's job list (optionally
filtered to one command) and writes ``report.txt`` and ``report.json``
(plus CSV files for potential rays) into the output directory.  Given
the same scene and seed the reports are byte-identical, whether the
hatted side of the verify jobs runs in a forked worker (when a second
CPU is usable) or in this process.  Exit codes:
0 all checks passed, 1 at least one failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pickle
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import classify as cls
from . import transport as tp
from .errors import DomainError, PolekitError, SceneError
from .fields import loglog_slope, ray_magnitudes
from .moments import breaks, sample_taus
from .pairing import (SourceBundle, pair_bundle_family, pull_back_test_form,
                      random_test_form_along)
from .scene import parse_scene


@dataclass
class JobResult:
    name: str
    command: str
    passed: bool
    lines: list = field(default_factory=list)
    data: dict = field(default_factory=dict)
    files: list = field(default_factory=list)


def _fmt(x):
    return f"{x:.12e}"


def _run_transform(scene, job, out_dir):
    chart = scene.charts[job["chart"]].forward
    C = scene.worldlines[job["worldline"]]
    spec = scene.multipoles[job["multipole"]]
    n = job["samples"]
    tol = float(job["tolerance"])
    lines = []
    data = {"chart": job["chart"], "worldline": job["worldline"],
            "multipole": job["multipole"]}
    passed = True
    if spec.get("quadrupole") is not None:
        if n < 2:
            raise DomainError(f"a line through the integral term needs 2 "
                              f"samples, got {n}")
        tr = tp.transform_quadrupole(
            spec["quadrupole"], chart, C, kappa0=job["kappa0"])
        t0, t1 = C.interval
        ts = np.linspace(t0, t1, n)
        p_fits = {}
        P_samples = tr.P.matrix_at(ts)
        for d, e in tp._PPAIRS:
            vals = [float(v) for v in P_samples[:, d, e]]
            if max(abs(v) for v in vals) > tol:
                slope, intercept = map(float, np.polyfit(ts, vals, 1))
                p_fits[f"{d}{e}"] = {"slope": slope, "intercept": intercept}
                lines.append(
                    f"  integral term P[{d}{e}]: slope {_fmt(slope)}, "
                    f"intercept {_fmt(intercept)}"
                )
        if not p_fits:
            lines.append("  integral term P: zero at all samples")
        dip = {}
        g2 = tr.gamma2_hat.values_at(np.array([0.5 * (t0 + t1)]))[0]
        for d, e in tp._PPAIRS:
            v = float(g2[d, e])
            if abs(v) > tol:
                dip[f"{d}{e}"] = v
                lines.append(
                    f"  emergent dipole [{d}{e}] at mid-parameter: {_fmt(v)}"
                )
        if not dip:
            lines.append("  emergent dipole: zero at mid-parameter")
        check_taus = sample_taus((t0, t1), seed=job["seed"])
        (pair_r, cyc_r), largest = tr.gamma3_hat.residuals(check_taus)
        sym_ok = not any(breaks(r, 1e-10, largest) for r in (pair_r, cyc_r))
        passed = passed and sym_ok
        lines.append(
            f"  transported symmetry residuals: pair {_fmt(pair_r)}, "
            f"cyclic {_fmt(cyc_r)} ({'ok' if sym_ok else 'VIOLATED'})"
        )
        sampled = tr.gamma3_hat.values_at(ts)
        samples = {}
        for d, e, f in ((1, 2, 0), (1, 0, 2), (2, 1, 0), (0, 1, 2)):
            samples[f"{d}{e}{f}"] = [float(v) for v in sampled[:, d, e, f]]
        data.update({
            "P_fits": p_fits,
            "dipole_part_mid": dip,
            "symmetry_residuals": {"pair": pair_r, "cyclic": cyc_r},
            "sample_taus": [float(t) for t in ts],
            "component_samples": samples,
        })
    if spec.get("dipole") is not None:
        dhat = tp.transform_dipole(spec["dipole"], chart, C)
        t0, t1 = C.interval
        g2 = dhat.values_at(np.array([0.5 * (t0 + t1)]))[0]
        vals = {
            f"{a}{b}": float(g2[a, b])
            for a, b in tp._PPAIRS
            if abs(g2[a, b]) > tol
        }
        data["dipole_transported_mid"] = vals
        lines.append(f"  transported dipole entries at mid-parameter: {vals}")
    return JobResult(job["name"], "transform", passed, lines, data)


def _verify_inputs(scene, job):
    """A verify job's forward chart (verify reads no inverse), its
    bundle, and the bundle's worldline pushed through the chart."""
    chart = scene.charts[job["chart"]].forward
    bundle = scene.bundle(job["multipole"], job["worldline"])
    return chart, bundle, bundle.worldline.push_through_chart(chart)


def _forms(job, hatC):
    """The job's random test forms along ``hatC``, drawn from its seed.
    Pairing draws nothing from the generator, so drawing every form
    first gives the forms of drawing each before its pairings."""
    return random_test_form_along(np.random.default_rng(job["seed"]), hatC,
                                  count=job["forms"])


def _source_side(scene, job):
    """The bundle's pairings with the job's forms pulled back."""
    chart, bundle, hatC = _verify_inputs(scene, job)
    return pair_bundle_family(
        bundle, pull_back_test_form(_forms(job, hatC), chart))


def _hatted_side(scene, job):
    """The pairings of the bundle, moved through the job's chart onto
    its image worldline, with the job's forms."""
    chart, bundle, hatC = _verify_inputs(scene, job)
    C = bundle.worldline
    hat = SourceBundle(
        hatC,
        bundle.monopole,
        None if bundle.dipole is None
        else tp.transform_dipole(bundle.dipole, chart, C),
        None if bundle.quadrupole is None
        else tp.transform_quadrupole(bundle.quadrupole, chart, C).gamma3_hat,
    )
    return pair_bundle_family(hat, _forms(job, hatC))


class _HattedWorker:
    """A forked process that computes the hatted side of each verify job
    in order and sends each job's reports through a pipe, pickled (None
    for a job whose hatted side raised)."""

    def __init__(self, scene, jobs):
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            # Never return into the caller's stack, whatever happens.
            try:
                os.close(read)
                with open(write, "wb") as pipe:
                    for job in jobs:
                        try:
                            reports = _hatted_side(scene, job)
                        except Exception:  # the parent reruns the job
                            reports = None
                        pickle.dump(reports, pipe)
                        pipe.flush()
            finally:
                os._exit(0)
        os.close(write)
        self.pipe = open(read, "rb")

    def receive(self):
        """The next job's hatted reports; None when its hatted side
        raised or the worker is gone."""
        if self.pipe.closed:
            return None
        try:
            return pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):  # the worker died
            self.pipe.close()
            return None

    def stop(self):
        """Kill the worker if it is still running and reap it."""
        import signal  # loaded only by runs that fork

        self.pipe.close()
        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except OSError:  # already reaped elsewhere
            pass


def _can_fork():
    """A second CPU is usable and forking is safe.  From Python 3.12 a
    fork warns in a process with other threads, and numpy's OpenBLAS
    starts some."""
    return (sys.version_info < (3, 12) and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _run_verify(scene, job, out_dir):
    """A verify job in this process: the hatted side, then the source
    side."""
    hatted = _hatted_side(scene, job)
    return _verify_result(job, _source_side(scene, job), hatted)


def _verify_result(job, source_reports, hatted_reports):
    """A verify job's result from its source and hatted pairing
    reports."""
    n = job["forms"]
    tol = float(job["tolerance"])
    seed = job["seed"]
    rows = []
    passed = True
    for src, hatted in zip(source_reports, hatted_reports):
        resid = abs(src.value - hatted.value) / max(1.0, abs(src.value))
        rows.append((src, hatted, resid))
        passed = passed and resid <= tol
    lines = [f"  {n} random probes, tolerance {_fmt(tol)} (seed {seed})"]
    for i, (s, h, r) in enumerate(rows):
        lines.append(
            f"  probe {i:2d}: source {_fmt(s.value)}  hatted {_fmt(h.value)}"
            f"  residual {_fmt(r)}"
        )
    data = {
        "seed": seed,
        "tolerance": tol,
        "residuals": [r for _, _, r in rows],
        "max_residual": max((r for _, _, r in rows), default=0.0),
        "nodes_used": {"source": [s.nodes_used for s, _, _ in rows],
                       "hatted": [h.nodes_used for _, h, _ in rows]},
        "floor_panels": {"source": [s.floor_panels for s, _, _ in rows],
                         "hatted": [h.floor_panels for _, h, _ in rows]},
        "zero_node_probes": [i for i, (s, h, _) in enumerate(rows)
                             if s.nodes_used == 0 or h.nodes_used == 0],
        "quadrature_error_estimates": {
            "source": [s.quadrature_error_estimate for s, _, _ in rows],
            "hatted": [h.quadrature_error_estimate for _, h, _ in rows],
        },
    }
    return JobResult(job["name"], "verify", passed, lines, data)


def _run_classify(scene, job, out_dir):
    bundle = scene.bundle(job["multipole"], job["worldline"])
    seed = job["seed"]
    orders = job["orders"]
    if orders is None:
        orders = [2] if bundle.quadrupole is not None else [1]
    lines = []
    data = {"seed": seed}
    passed = True
    closed = cls.test_closed(bundle, seed=seed)
    lines.append(f"  closed: {'pass' if closed.passed else 'FAIL'} "
                 f"(residual {_fmt(closed.max_residual)})")
    data["closed"] = closed.passed
    passed = passed and closed.passed
    probes = cls.charge_probe_variations(bundle.worldline, n=3, seed=seed)
    charges = [cls.extract_charge(bundle, p) for p in probes]
    q = bundle.monopole.q if bundle.monopole is not None else 0.0
    mono_free = max(abs(c) for c in charges) <= 1e-8 * max(
        1.0, bundle.scale()
    )
    if bundle.monopole is None:
        lines.append(
            f"  monopole-free: {'pass' if mono_free else 'FAIL'} "
            f"(largest extracted charge {_fmt(max(abs(c) for c in charges))})"
        )
        passed = passed and mono_free
        data["monopole_free"] = mono_free
    else:
        drift = max(charges) - min(charges)
        ok = abs(charges[0] - q) <= 1e-8 and drift <= 1e-8
        lines.append(
            f"  charge: {_fmt(charges[0])} (declared {_fmt(q)}, drift "
            f"{_fmt(drift)}) {'pass' if ok else 'FAIL'}"
        )
        passed = passed and ok
        data["charge"] = charges[0]
    for k in orders:
        rep = cls.test_order(bundle, k, seed=seed)
        lines.append("  " + rep.summary())
        data[f"order_{k}"] = rep.passed
        passed = passed and rep.passed
    for ell in job["electric_orders"]:
        rep = cls.test_electric_order(bundle, ell, seed=seed)
        lines.append("  " + rep.summary())
        data[f"electric_order_{ell}"] = rep.passed
        passed = passed and rep.passed
    return JobResult(job["name"], "classify", passed, lines, data)


def _run_charge(scene, job, out_dir):
    bundle = scene.bundle(job["multipole"], job["worldline"])
    seed = job["seed"]
    tol = float(job["tolerance"])
    probes = cls.charge_probe_variations(bundle.worldline, n=job["choices"],
                                         seed=seed)
    values = [cls.extract_charge(bundle, p) for p in probes]
    drift = max(values) - min(values)
    expect = job["expect"]
    if expect is None and bundle.monopole is not None:
        expect = bundle.monopole.q
    lines = []
    for p, v in zip(probes, values):
        lines.append(f"  {_fmt(v)}  <- {p.description}")
    lines.append(f"  drift across choices: {_fmt(drift)}")
    passed = drift <= tol
    if expect is not None:
        err = max(abs(v - float(expect)) for v in values)
        lines.append(f"  largest deviation from {expect}: {_fmt(err)}")
        passed = passed and err <= tol
    data = {"values": values, "drift": drift, "seed": seed}
    return JobResult(job["name"], "charge", passed, lines, data)


def _run_potentials(scene, job, out_dir):
    source = job["source"]
    lines = []
    data = {"kind": source.kind, "exponents": []}
    files = []
    for i, direction in enumerate(job["directions"]):
        rs, values = ray_magnitudes(source, direction, float(job["r_lo"]),
                                    float(job["r_hi"]), job["samples"])
        exponent = loglog_slope(rs, values)
        data["exponents"].append(exponent)
        lines.append(
            f"  direction {tuple(direction)}: falloff exponent "
            f"{exponent:+.4f}"
        )
        csv_name = f"{job['name']}_ray{i}.csv"
        csv_path = Path(out_dir) / csv_name
        with open(csv_path, "w", newline="\n") as fh:
            fh.write("r,value\n")
            for r, value in zip(rs, values):
                fh.write(f"{float(r)!r},{float(value)!r}\n")
        files.append(csv_name)
    return JobResult(job["name"], "potentials", True, lines, data, files)


_RUNNERS = {
    "transform": _run_transform,
    "verify": _run_verify,
    "classify": _run_classify,
    "charge": _run_charge,
    "potentials": _run_potentials,
}


# glibc's mallopt parameter M_TOP_PAD, and the free memory run keeps at
# the top of the heap.
_M_TOP_PAD = -2
_TOP_PAD = 64 << 20


@functools.cache
def _keep_heap():
    """Have glibc's malloc keep up to 64 MiB of freed memory at the top
    of the heap, once per process.  By default it gives the memory of a
    large numpy temporary back to the kernel when it is freed and faults
    it in again for the next one, which costs a verify run a large share
    of its time.  A forked worker inherits the setting.  Skipped where
    the C library has no ``mallopt``."""
    import ctypes  # loaded only by run

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _TOP_PAD)


def run(scene, command="all", out_dir="."):
    """Execute the scene's jobs (filtered by ``command`` unless "all").

    Writes report.txt / report.json into ``out_dir`` and returns
    (results, exit_code)."""
    _keep_heap()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs = [
        j for j in scene.jobs
        if command == "all" or j["command"] == command
    ]

    verify = [j for j in jobs if j["command"] == "verify"]
    worker = None
    if verify and _can_fork():
        try:
            worker = _HattedWorker(scene, verify)
        except OSError:  # no pipe or process to spare: verify runs here
            pass

    def run_one(job):
        try:
            return _RUNNERS[job["command"]](scene, job, out)
        except PolekitError as err:
            return JobResult(
                job["name"], job["command"], False,
                [f"  error: {err}"], {"error": str(err)},
            )

    def start(job):
        # A verify job's source side (None when it raises), or the job.
        if job["command"] != "verify":
            return run_one(job)
        try:
            return _source_side(scene, job)
        except Exception:
            return None

    def finish_verify(job, source):
        # A job whose side raised, or whose worker is gone, reruns here
        # in order, so that it fails with the error a serial run gives.
        hatted = worker.receive()
        if source is None or hatted is None:
            return run_one(job)
        return _verify_result(job, source, hatted)

    try:
        if worker is None:
            results = [run_one(j) for j in jobs]
        else:
            # This process runs the other jobs and the source sides
            # before it waits for any hatted side.
            early = [start(j) for j in jobs]
            results = [finish_verify(j, r) if j["command"] == "verify"
                       else r for j, r in zip(jobs, early)]
    finally:
        if worker is not None:
            worker.stop()

    text_lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        text_lines.append(f"[{status}] {r.command} {r.name}")
        text_lines.extend(r.lines)
    text = "\n".join(text_lines) + "\n"
    (out / "report.txt").write_text(text, newline="\n")
    payload = {
        "command": command,
        "jobs": [
            {
                "name": r.name,
                "command": r.command,
                "passed": r.passed,
                "data": r.data,
                "files": r.files,
            }
            for r in results
        ],
    }
    (out / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", newline="\n"
    )
    exit_code = 0 if all(r.passed for r in results) else 1
    return results, exit_code


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="polekit",
        description="Worldline multipole transport and verification",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    runp = sub.add_parser("run", help="run a scene's jobs")
    runp.add_argument("scene", help="scene JSON file")
    runp.add_argument("--command", default="all",
                      choices=("all",) + tuple(_RUNNERS))
    runp.add_argument("--out-dir", default="polekit-out")
    valp = sub.add_parser("validate", help="parse and validate a scene")
    valp.add_argument("scene")
    args = parser.parse_args(argv)

    try:
        text = Path(args.scene).read_text()
    except OSError as err:
        print(f"cannot read scene: {err}", file=sys.stderr)
        return 2
    try:
        scene = parse_scene(text)
    except SceneError as err:
        for p in err.problems:
            print(f"scene error: {p}", file=sys.stderr)
        return 2
    if args.verb == "validate":
        print(f"scene ok: {len(scene.charts)} charts, "
              f"{len(scene.worldlines)} worldlines, "
              f"{len(scene.multipoles)} multipoles, "
              f"{len(scene.jobs)} jobs")
        return 0

    _, code = run(scene, command=args.command, out_dir=args.out_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
