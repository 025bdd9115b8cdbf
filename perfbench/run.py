"""polekit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's scene from the seed, then runs passes over it
for about S seconds in this single-threaded process and checks every
pass.  With --trace 0 it reports the end-to-end metrics (set-up time
measured in fresh interpreters, median pass time, peak memory, share
of checks passed, accuracy digits); with --trace 1 it alternates untraced
and traced passes and reports the per-layer metrics of the traced ones.
Every metric is printed by name with its unit; the last line is one
JSON object.  Exit status 1 when a check failed, 2 when polekit or an
input cannot be found.  See perfbench/README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
MIN_PASSES = 2

E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
             "pass_frac": "frac", "residual_digits": "digits",
             "ref_digits": "digits"}


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if "us_per_" in name:
        return "us"
    if name.endswith("_s") or "_s_per_" in name:
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def import_polekit():
    if not (SRC / "polekit" / "__init__.py").is_file():
        raise FileNotFoundError(f"polekit sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import polekit
    import polekit.classify
    import polekit.cli
    import polekit.fields
    import polekit.scene
    return polekit


def machine_info():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def measure_setup(scene_file):
    """Median over fresh interpreters of import polekit + parse_scene."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(SRC),
             str(scene_file)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return statistics.median(samples), samples


class Bench:
    """One benchmark run: the generated input and the passes over it."""

    def __init__(self, polekit, workload, seed, seconds, work):
        self.polekit = polekit
        self.workload = workload
        self.kind = workloads.WORKLOADS[workload][0]
        self.seconds = seconds
        self.work = work
        self.doc, self.expect = inputs.GENERATORS[workload](seed)
        self.text = json.dumps(self.doc, indent=1, sort_keys=True) + "\n"
        self.input_sha256 = hashlib.sha256(self.text.encode()).hexdigest()
        self.scene_file = work / "input.scene"
        self.scene_file.write_text(self.text)
        self.checks = workloads.Checks()
        self.passes = 0
        self.first_artifact = None

    def run_pass(self, tracer=None):
        """Parse the scene and run one pass; returns its wall time, or
        None when it raised (recorded as a failed check)."""
        out_dir = self.work / f"pass{self.passes}"
        out_dir.mkdir()
        label = f"pass {self.passes}"
        self.passes += 1
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            scene = self.polekit.scene.parse_scene(self.text)
            elapsed, result = workloads.run_pass(self.kind, self.polekit,
                                                 scene, out_dir)
        except Exception as err:  # a crashing pass is a failed check
            traceback.print_exc(file=sys.stderr)
            self.checks.check(False, f"{label} raised "
                                     f"{type(err).__name__}: {err}")
            return None
        finally:
            if tracer is not None:
                self.checks.check(tracer.restore(),
                                  f"{label}: entry points not restored")
        workloads.check_pass(self.workload, result, self.doc, self.expect,
                             self.checks)
        art = workloads.artifact(self.kind, result)
        if self.first_artifact is None:
            self.first_artifact = art
        else:
            self.checks.check(art == self.first_artifact,
                              f"{label} output differs from pass 0")
        return elapsed

    def timed(self):
        setup_s, setup_samples = measure_setup(self.scene_file)
        # Warm-up: the first parse in this process pays for lazy imports
        # and compiled patterns.  A whole untimed pass would only shorten
        # the timed part: every pass parses afresh and builds new objects,
        # so no cache entry is reused from one pass to the next.
        self.polekit.scene.parse_scene(self.text)
        times = []
        t0 = time.perf_counter()
        while True:
            elapsed = self.run_pass()
            if elapsed is None:
                break
            times.append(elapsed)
            spent = time.perf_counter() - t0
            if (len(times) >= MIN_PASSES
                    and spent + statistics.median(times) > self.seconds):
                break
        if not times:
            times = [time.perf_counter() - t0]
        c = self.checks
        metrics = {
            "setup_s": setup_s,
            "run_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": (c.attempted - len(c.failures)) / max(1, c.attempted),
            "residual_digits": c.residual_digits(),
            "ref_digits": c.ref_digits(),
        }
        extra = {"pass_times_s": times, "setup_samples_s": setup_samples}
        return metrics, extra

    def traced(self):
        """One untraced pass, two traced ones, then untraced/traced pairs
        while time is left; per-layer metrics are medians over the traced
        passes and their counts must agree exactly."""
        untraced, traced, per_pass, counts, spans = [], [], [], [], []
        absent = []
        t0 = time.perf_counter()
        plan = [False, True, True]
        while plan:
            with_trace = plan.pop(0)
            tracer = tracing.Tracer() if with_trace else None
            elapsed = self.run_pass(tracer)
            if elapsed is None:
                break
            if not with_trace:
                untraced.append(elapsed)
            else:
                traced.append(elapsed)
                table = tracing.SpanTable(tracer)
                per_pass.append(tracing.layer_metrics(table))
                counts.append(tracing.layer_counts(table))
                spans.append(tracer.arrays())
                absent = tracer.absent
            spent = time.perf_counter() - t0
            if not plan and spent + statistics.median(untraced) \
                    + statistics.median(traced) <= self.seconds:
                plan = [False, True]
        for i, c in enumerate(counts[1:], start=1):
            self.checks.check(c == counts[0],
                              f"traced pass {i} counts differ from pass 0")
        metrics = {}
        names = per_pass[0].keys() if per_pass else \
            tracing.layer_metrics(tracing.SpanTable(tracing.Tracer())).keys()
        for name in names:
            metrics[name] = statistics.median(
                [p[name] for p in per_pass]) if per_pass else 0.0
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0
            if traced else 0.0)
        metrics["trace.absent_entry_points"] = len(absent)
        (self.work / "counts.json").write_text(
            json.dumps(counts[0] if counts else {}, indent=1,
                       sort_keys=True) + "\n")
        if spans:
            np.savez_compressed(
                self.work / "spans.npz",
                **{f"pass{i}_{k}": v for i, s in enumerate(spans)
                   for k, v in s.items()})
        extra = {"untraced_pass_s": untraced, "traced_pass_s": traced,
                 "absent_entry_points": absent}
        return metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        polekit = import_polekit()
    except (FileNotFoundError, ImportError) as err:
        print(f"cannot import polekit: {err}", file=sys.stderr)
        return 2
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(polekit, args.workload, args.seed, args.seconds, work)
    except OSError as err:
        print(f"cannot build the input: {err}", file=sys.stderr)
        return 2
    metrics, extra = bench.traced() if args.trace else bench.timed()

    checks = bench.checks
    failed = len(checks.failures)
    info = machine_info()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{bench.passes} passes; input sha256 {bench.input_sha256}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for what in checks.failures[:20]:
        print(f"FAILED CHECK: {what}")
    print(f"checks: {checks.attempted} attempted, {failed} failed, "
          f"failed_frac {failed / max(1, checks.attempted):.6g} frac")
    if extra.get("absent_entry_points"):
        print("absent layers: " + ", ".join(extra["absent_entry_points"]))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(
        dict(result, workload=args.workload, seed=args.seed,
             input_sha256=bench.input_sha256, machine=info,
             failures=checks.failures, **extra),
        indent=1) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
