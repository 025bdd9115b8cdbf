"""One pass of each workload, and the checks on what it produced.

A pass calls polekit only through module attributes (``polekit.cli.run``,
``polekit.classify.test_closed``, ...), so the tracer's wrappers are
seen when they are installed.  ``run_pass`` returns the pass's wall
time (the timed region is the library call alone) and its result: the
bytes of ``report.json`` for CLI workloads, the returned reports and
numbers for ``classify_probes``.  ``artifact`` turns a result into bytes;
passes over the same inputs must give byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from inputs import curve_velocity

UPPER_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
REF_TOL = 1e-8
DIGITS_FLOOR = 1e-16

# classify_probes: the CLI's classify job with fewer probes per test so
# that a pass stays a few seconds long.
CLOSED_SAMPLES = 6
ORDER_SAMPLES = 4
CHARGE_CHOICES = 5
ORDERS = {"dipole": 1, "quadrupole": 2, "charged_dipole": 1}
# Electric order 2: consistent for both dipoles, refuted for a generic
# quadrupole (its magnetic part fails it by orders of magnitude).
ELECTRIC_ORDER = 2
ELECTRIC_REFUTED = {"quadrupole"}
FALLOFF_SOURCE = ("electric_quadrupole",
                  [[1.0, 0.2, 0.0], [0.2, -0.5, 0.0], [0.0, 0.0, -0.5]])
FALLOFF_DIRECTION = (0.3, 0.5, 1.0)


class Checks:
    """Counts checks, keeps the failures, and collects the residuals that
    should vanish and the errors against analytic values."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.residuals = []
        self.ref_errors = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @staticmethod
    def digits(values):
        worst = max(values, default=0.0)
        if not math.isfinite(worst):
            return 0.0
        return -math.log10(max(worst, DIGITS_FLOOR))

    def residual_digits(self):
        return self.digits(self.residuals)

    def ref_digits(self):
        return self.digits(self.ref_errors)


# -- passes ------------------------------------------------------------------


def run_cli_pass(polekit, scene, out_dir):
    t0 = time.perf_counter()
    results, code = polekit.cli.run(scene, out_dir=out_dir)
    elapsed = time.perf_counter() - t0
    return elapsed, (out_dir / "report.json").read_bytes()


def run_classify_pass(polekit, scene, out_dir):
    cls = polekit.classify
    fields = polekit.fields
    out = {}
    t0 = time.perf_counter()
    for job in scene.jobs:
        name = job["multipole"]
        bundle = scene.bundle(name, job["worldline"])
        seed = int(job["seed"])
        closed = cls.test_closed(bundle, samples=CLOSED_SAMPLES, seed=seed)
        probes = cls.charge_probe_variations(bundle.worldline,
                                             n=CHARGE_CHOICES, seed=seed)
        charges = [cls.extract_charge(bundle, p) for p in probes]
        order = cls.test_order(bundle, ORDERS[name], samples=ORDER_SAMPLES,
                               seed=seed)
        electric = cls.test_electric_order(bundle, ELECTRIC_ORDER,
                                           samples=ORDER_SAMPLES, seed=seed)
        out[name] = {"closed": closed, "charges": charges, "order": order,
                     "electric": electric, "scale": bundle.scale()}
    source = fields.StaticSource(*FALLOFF_SOURCE)
    out["falloff"] = fields.falloff_exponent(source, FALLOFF_DIRECTION)
    elapsed = time.perf_counter() - t0
    return elapsed, out


def classify_artifact(out):
    """Canonical bytes of a classify pass (reports as their fields)."""

    def plain(x):
        if hasattr(x, "__dataclass_fields__"):
            return {k: plain(getattr(x, k)) for k in x.__dataclass_fields__}
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        if x is None or isinstance(x, str):
            return x
        if isinstance(x, (bool, np.bool_)):
            return bool(x)
        if isinstance(x, (int, np.integer)):
            return int(x)
        return repr(float(x))

    return json.dumps(plain(out), sort_keys=True).encode()


# -- checks ------------------------------------------------------------------


def check_cli_report(report, scene_doc, checks):
    """Every job PASS, verify residuals within tolerance, transported
    symmetry residuals, no job missing."""
    jobs = report["jobs"]
    checks.check(len(jobs) == len(scene_doc["jobs"]),
                 f"report has {len(jobs)} of {len(scene_doc['jobs'])} jobs")
    for job in jobs:
        data = job["data"]
        checks.check(job["passed"] and "error" not in data,
                     f"job {job['name']} not PASS: {data.get('error', '')}")
        if job["command"] == "verify":
            tol = data["tolerance"]
            for i, r in enumerate(data["residuals"]):
                checks.residuals.append(r)
                checks.check(r <= tol, f"{job['name']} probe {i} residual "
                                       f"{r:.3e} > {tol:.1e}")
        if job["command"] == "transform" and "symmetry_residuals" in data:
            samples = data["component_samples"].values()
            scale = max([1.0] + [abs(v) for vals in samples for v in vals])
            for kind in ("pair", "cyclic"):
                checks.residuals.append(data["symmetry_residuals"][kind]
                                        / scale)


def _ref(checks, err, what):
    checks.ref_errors.append(err)
    checks.check(err <= REF_TOL, f"{what}: error {err:.3e} against the "
                                 "analytic value")


def check_worked_example(report, expect, checks):
    """P[12] = tau (slope 1, intercept 0) and emergent dipole [12] = 1."""
    data = next(j["data"] for j in report["jobs"]
                if j["command"] == "transform")
    fits = data["P_fits"]
    checks.check(set(fits) == {"12"}, f"P fits {sorted(fits)} != ['12']")
    fit = fits.get("12", {"slope": math.inf, "intercept": math.inf})
    _ref(checks, abs(fit["slope"] - 1.0), "P[12] slope")
    _ref(checks, abs(fit["intercept"]), "P[12] intercept")
    dip = data["dipole_part_mid"]
    checks.check(set(dip) == {"12"}, f"emergent dipole {sorted(dip)} "
                                     "!= ['12']")
    _ref(checks, abs(dip.get("12", math.inf) - 1.0), "emergent dipole [12]")


def linear_transform_reference(spec, taus):
    """Components through a linear chart: the tensorial image plus the
    constant integral term kappa0 coupled to the image velocity."""
    A, T, K = spec["matrix"], spec["T"], spec["kappa0"]
    taus = np.asarray(taus, dtype=float)
    powers = taus[:, None] ** np.arange(T.shape[0])[None, :]
    g = np.einsum("nk,kabc->nabc", powers, T)
    vhat = curve_velocity(taus) @ A.T
    return (np.einsum("da,eb,fc,nabc->ndef", A, A, A, g)
            + np.einsum("de,nf->ndef", K, vhat)
            + np.einsum("df,ne->ndef", K, vhat))


def check_linear_transforms(report, expect, checks):
    """Transforms through linear charts have closed forms: P stays kappa0,
    components move tensorially (plus the kappa0 terms), and the dipole
    becomes A D A^T."""
    jobs = {j["name"]: j["data"] for j in report["jobs"]}
    for name, spec in expect["transforms"].items():
        data = jobs.get(name)
        if not checks.check(data is not None, f"{name} missing"):
            continue
        tol = 1e-9
        K = spec["kappa0"]
        fits = data["P_fits"]
        for d, e in UPPER_PAIRS:
            key = f"{d}{e}"
            if abs(K[d, e]) <= tol:
                checks.check(key not in fits, f"{name} P[{key}] not zero")
                continue
            if not checks.check(key in fits, f"{name} P[{key}] missing"):
                continue
            err = max(abs(fits[key]["slope"]),
                      abs(fits[key]["intercept"] - K[d, e]))
            _ref(checks, err, f"{name} P[{key}]")
        ref = linear_transform_reference(spec, data["sample_taus"])
        for key, vals in data["component_samples"].items():
            d, e, f = (int(ch) for ch in key)
            exact = ref[:, d, e, f]
            err = float(np.max(np.abs(np.array(vals) - exact))
                        / max(1.0, float(np.max(np.abs(exact)))))
            _ref(checks, err, f"{name} component {key}")
        A, D = spec["matrix"], spec["D"]
        tmid = 0.5 * (data["sample_taus"][0] + data["sample_taus"][-1])
        dref = A @ np.einsum("k,kab->ab", tmid ** np.arange(D.shape[0]),
                             D) @ A.T
        got = data["dipole_transported_mid"]
        for d, e in UPPER_PAIRS:
            key = f"{d}{e}"
            if abs(dref[d, e]) <= tol:
                continue
            if checks.check(key in got, f"{name} dipole [{key}] missing"):
                _ref(checks, abs(got[key] - dref[d, e])
                     / max(1.0, abs(dref[d, e])), f"{name} dipole [{key}]")


def check_classify(out, expect, checks):
    """Expected verdicts, extracted charges and the falloff exponent."""
    for name, res in out.items():
        if name == "falloff":
            continue
        for key, report in (("closed", res["closed"]),
                            ("order", res["order"]),
                            ("electric", res["electric"])):
            refuted = key == "electric" and name in ELECTRIC_REFUTED
            if refuted:
                checks.check(
                    not report.passed
                    and report.max_residual >= report.fail_threshold,
                    f"{name} {key}: expected refuted, got "
                    f"{report.summary()}")
            else:
                checks.check(report.passed, f"{name} {key}: expected "
                                            f"consistent, got "
                                            f"{report.summary()}")
                checks.residuals.append(report.max_residual / report.scale)
        q = expect["charge"][name]
        scale = max(1.0, res["scale"]) if q == 0.0 else 1.0
        for i, c in enumerate(res["charges"]):
            _ref(checks, abs(c - q) / max(abs(q), scale),
                 f"{name} charge probe {i}")
        drift = max(res["charges"]) - min(res["charges"])
        checks.check(drift <= REF_TOL, f"{name} charge drift {drift:.3e}")
    checks.check(abs(out["falloff"] + 3.0) <= 1e-6,
                 f"quadrupole falloff exponent {out['falloff']}")


WORKLOADS = {
    "worked_example": ("cli", check_worked_example),
    "invariance_mix": ("cli", check_linear_transforms),
    "classify_probes": ("classify", check_classify),
}


def run_pass(kind, polekit, scene, out_dir):
    runner = run_cli_pass if kind == "cli" else run_classify_pass
    return runner(polekit, scene, out_dir)


def check_pass(workload, result, scene_doc, expect, checks):
    kind, check_refs = WORKLOADS[workload]
    if kind == "cli":
        report = json.loads(result)
        check_cli_report(report, scene_doc, checks)
        check_refs(report, expect, checks)
    else:
        check_refs(result, expect, checks)


def artifact(kind, result):
    return result if kind == "cli" else classify_artifact(result)
