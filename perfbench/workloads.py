"""Seeded workload generation: the benchmark's inputs, written as CSV files.

The generator is the benchmark's own copy of the Gaussian-mixture recipe
(class c centred on a distinct integer lattice point, isotropic normal noise,
PCG64 seeded by the workload seed). It does not call the package, so a change
to the package cannot change the benchmark's inputs. The same seed always
gives a byte-identical CSV.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

TABLE_PATH = Path(__file__).with_name("workloads.json")


def load_table():
    """Workload name -> parameters (n, d, s, spread, scale, integer, f, metric, policy, why)."""
    return json.loads(TABLE_PATH.read_text(encoding="utf-8"))


def _lattice_centers(s, d):
    base = max(2, math.ceil(s ** (1.0 / d)))
    while base ** d < s:
        base += 1
    centers = np.zeros((s, d), dtype=np.float64)
    for c in range(s):
        v = c
        for j in range(d):
            centers[c, j] = v % base
            v //= base
    return centers


def generate(spec, seed):
    """Features (n, d) float64 and integer labels (n,) for one workload."""
    n, d, s = spec["n"], spec["d"], spec["s"]
    labels = np.arange(n, dtype=np.int64) % s
    rng = np.random.Generator(np.random.PCG64(seed))
    features = _lattice_centers(s, d)[labels] + rng.normal(0.0, spec["spread"], size=(n, d))
    features = features * spec["scale"]
    if spec["integer"]:
        features = np.round(features) + 0.0  # + 0.0 turns -0.0 into 0.0
    return features, labels


def csv_bytes(features, labels, integer):
    """Headered CSV (x0..x{d-1},label); reals in repr form so they parse back exactly."""
    d = features.shape[1]
    fmt = (lambda v: str(int(v))) if integer else repr
    lines = [",".join([f"x{j}" for j in range(d)] + ["label"])]
    for row, lab in zip(features.tolist(), labels.tolist()):
        lines.append(",".join(map(fmt, row)) + f",c{lab}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_workload(spec, seed, path):
    """Write the workload CSV to path; returns its sha256 hex digest."""
    features, labels = generate(spec, seed)
    data = csv_bytes(features, labels, spec["integer"])
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()
