"""Seeded inputs for the benchmark workloads.

Every workload hands polekit a scene document (the JSON a user writes).
The scenes are generated here from the workload seed with numpy alone:
random quadrupoles come from an orthonormal basis of the null space of
the symmetry constraints computed in this file, not from polekit, so
the program under test never supplies its own inputs.  Component
dictionaries are verbatim (every nonzero entry written out), exactly as
``parse_scene`` expects them.

Each generator returns ``(scene_dict, expect)``: ``expect`` holds the
analytic facts the correctness checks compare against (the quadrupole's
polynomial coefficient tensors, the chart matrices, the declared charge).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKED_EXAMPLE = REPO_ROOT / "scenes" / "worked_example.scene"

# (tau, 1 + 0.2 sin 0.7 tau, 0.3 cos 0.5 tau, 0.1 tau): the curve of
# tier-1 acceptance criterion 2.
CURVED = ["tau", "1 + 0.2*sin(0.7*tau)", "0.3*cos(0.5*tau)", "0.1*tau"]
ADAPTED = ["tau", "0", "0", "0"]

# -- component generators ----------------------------------------------------


def quadrupole_null_basis():
    """Orthonormal basis, shape (20, 4, 4, 4), of the components with
    g[abc] = g[acb] and g[abc] + g[bca] + g[cab] = 0."""
    rows = []
    for a in range(4):
        for b in range(4):
            for c in range(4):
                if b < c:
                    row = np.zeros((4, 4, 4))
                    row[a, b, c] += 1.0
                    row[a, c, b] -= 1.0
                    rows.append(row.ravel())
                row = np.zeros((4, 4, 4))
                row[a, b, c] += 1.0
                row[b, c, a] += 1.0
                row[c, a, b] += 1.0
                rows.append(row.ravel())
    C = np.array(rows)
    _, s, vt = np.linalg.svd(C)
    rank = int(np.sum(s > max(C.shape) * np.finfo(float).eps * s[0]))
    null = vt[rank:]
    if null.shape[0] != 20:
        raise RuntimeError(f"constraint null space has dim {null.shape[0]}")
    return null.reshape(20, 4, 4, 4)


def _poly_text(coeffs):
    """c0 + c1*tau + c2*tau^2 + ... with exact float reprs."""
    out = repr(float(coeffs[0]))
    for k, c in enumerate(coeffs[1:], start=1):
        c = float(c)
        sign = "-" if c < 0 else "+"
        power = "tau" if k == 1 else f"tau^{k}"
        out += f" {sign} {abs(c)!r}*{power}"
    return out


def random_quadrupole(rng, basis, directions=5, degree=2, scale=0.8):
    """Random valid quadrupole: ``directions`` basis tensors, each with a
    random polynomial coefficient in tau.

    Returns (component dict, coefficient tensors of shape
    (degree + 1, 4, 4, 4)); entry abc is sum_k T[k, a, b, c] tau^k.
    """
    picks = rng.choice(len(basis), size=directions, replace=False)
    coeffs = scale * rng.uniform(-1.0, 1.0, (directions, degree + 1))
    T = np.einsum("ik,iabc->kabc", coeffs, basis[picks])
    # Exact pair symmetry; entries at rounding level are exact zeros.
    T = 0.5 * (T + T.transpose(0, 1, 3, 2))
    T[:, np.max(np.abs(T), axis=0) < 1e-12] = 0.0
    entries = {}
    for a in range(4):
        for b in range(4):
            for c in range(4):
                if np.any(T[:, a, b, c] != 0.0):
                    entries[f"{a}{b}{c}"] = _poly_text(T[:, a, b, c])
    return entries, T


def random_dipole(rng, degree=2, scale=0.8):
    """Antisymmetric dipole with polynomial tau dependence.

    Returns (component dict, coefficient tensors of shape
    (degree + 1, 4, 4))."""
    D = np.zeros((degree + 1, 4, 4))
    entries = {}
    for a in range(4):
        for b in range(a + 1, 4):
            c = scale * rng.uniform(-1.0, 1.0, degree + 1)
            D[:, a, b] = c
            D[:, b, a] = -c
            entries[f"{a}{b}"] = _poly_text(c)
            entries[f"{b}{a}"] = _poly_text(-c)
    return entries, D


def random_linear_matrix(rng, spread=0.35):
    """A well-conditioned matrix near the identity."""
    while True:
        M = np.eye(4) + spread * rng.uniform(-1.0, 1.0, (4, 4))
        if abs(np.linalg.det(M)) > 0.3:
            return M


def _job_seed(rng):
    return int(rng.integers(0, 2**31 - 1))


# -- workloads ---------------------------------------------------------------


def worked_example(seed):
    """The committed worked-example scene with every job seed set to
    ``seed``, as ``polekit run ... --seed`` does."""
    doc = json.loads(WORKED_EXAMPLE.read_text())
    for job in doc["jobs"]:
        job["seed"] = int(seed)
    return doc, {}


def invariance_mix(seed, forms=2):
    """Criterion-2-shaped scene: charge, tau-dependent dipole and a
    random quadrupole on a curved worldline, verified through a seeded
    linear chart, a 0.6 boost and the cylindrical chart.

    One extra transform through the linear chart (kappa0 = 0) has an
    analytic answer, the tensorial image of the components, which the
    benchmark compares against."""
    rng = np.random.default_rng([1, int(seed)])
    M = random_linear_matrix(rng)
    quad, T = random_quadrupole(rng, quadrupole_null_basis())
    dip, D = random_dipole(rng)
    doc = {
        "charts": {
            "lin": {"registry": "linear",
                    "params": [float(x) for x in M.ravel()]},
            "boost": {"registry": "lorentz_boost", "params": [0.6]},
            "cyl": {"registry": "cylindrical_to_cartesian"},
        },
        "worldlines": {"curve": {"components": CURVED,
                                 "interval": [0.0, 6.0]}},
        "multipoles": {"mix": {"charge": 1.3, "dipole": dip,
                               "quadrupole": quad}},
        "jobs": [
            {"command": "verify", "name": f"verify-{chart}",
             "multipole": "mix", "chart": chart, "worldline": "curve",
             "forms": forms, "tolerance": 1e-6, "seed": _job_seed(rng)}
            for chart in ("lin", "boost", "cyl")
        ] + [
            {"command": "transform", "name": "transform-lin",
             "multipole": "mix", "chart": "lin", "worldline": "curve",
             "samples": 20, "tolerance": 1e-9, "seed": _job_seed(rng)},
        ],
    }
    expect = {"transforms": {"transform-lin": {
        "matrix": M, "T": T, "D": D, "kappa0": np.zeros((4, 4))}}}
    return doc, expect


def classify_probes(seed):
    """Three bundles on the adapted worldline (tau, 0, 0, 0): a dipole, a
    random quadrupole and a charged dipole.  The job list documents what
    the benchmark runs through ``polekit.classify``; it is not given to
    the CLI."""
    rng = np.random.default_rng([2, int(seed)])
    dip, _ = random_dipole(rng)
    quad, _ = random_quadrupole(rng, quadrupole_null_basis())
    cdip, _ = random_dipole(rng)
    doc = {
        "charts": {},
        "worldlines": {"adapted": {"components": ADAPTED,
                                   "interval": [0.0, 4.0]}},
        "multipoles": {
            "dipole": {"dipole": dip},
            "quadrupole": {"quadrupole": quad},
            "charged_dipole": {"charge": 1.3, "dipole": cdip},
        },
        "jobs": [
            {"command": "classify", "name": f"classify-{name}",
             "multipole": name, "worldline": "adapted",
             "seed": _job_seed(rng)}
            for name in ("dipole", "quadrupole", "charged_dipole")
        ],
    }
    return doc, {"charge": {"dipole": 0.0, "quadrupole": 0.0,
                            "charged_dipole": 1.3}}


def curve_velocity(t):
    """d/dtau of CURVED."""
    t = np.asarray(t, dtype=float)
    one = np.ones_like(t)
    return np.stack([one, 0.14 * np.cos(0.7 * t), -0.15 * np.sin(0.5 * t),
                     0.1 * one], axis=-1)


GENERATORS = {
    "worked_example": worked_example,
    "invariance_mix": invariance_mix,
    "classify_probes": classify_probes,
}
