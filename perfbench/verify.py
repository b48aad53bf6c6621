"""Correctness gate: report stability across calls and the brute-force oracle.

Nothing here runs inside a timed region. The oracle check recomputes the
accuracy curve at a fixed set of k with the package's deliberately naive
cross-validation (through FoldDistanceCache) and requires exact equality
with the report, the same comparison `knnsweep bench` makes.
"""

import json


def read_report(path):
    """The JSON report at path, minus its non-deterministic `timing` block."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report.pop("timing", None)
    return report


def oracle_ks(k_star, k_max):
    """Fixed k set checked against the oracle: 1, 2, k*, k_max // 2 and k_max."""
    return sorted({k for k in (1, 2, k_star, k_max // 2, k_max) if 1 <= k <= k_max})


def oracle_mismatches(report, csv_path, spec, seed):
    """Check a report against the oracle; returns (k values checked, mismatches).

    Structural checks (evaluated k, curve length, k* inside the range) count
    as one mismatch each when they fail; every checked k whose curve point
    differs from the oracle's counts as one more.
    """
    import numpy as np

    from knnsweep.dataset import load_csv, stratified_folds
    from knnsweep.oracle import FoldDistanceCache, cross_validate
    from knnsweep.sweep import AccuracyMatrix, select_k

    dataset = load_csv(csv_path, "label")
    folds = stratified_folds(dataset, spec["f"], seed)
    k_max = folds.k_max
    mismatches = 0
    if report.get("evaluated_k") != list(range(1, k_max + 1)):
        mismatches += 1
    curve = report.get("curve", [])
    if len(curve) != k_max:
        mismatches += 1
    k_star = report.get("k_star")
    if not isinstance(k_star, int) or not 1 <= k_star <= k_max:
        mismatches += 1
        k_star = 1

    ks = oracle_ks(k_star, k_max)
    cache = FoldDistanceCache(dataset, folds, spec["metric"])
    rows = [cross_validate(dataset, folds, k, spec["metric"], spec["policy"], cache=cache)
            for k in ks]
    acc = AccuracyMatrix(correct=np.vstack(rows), fold_sizes=folds.fold_sizes.copy(),
                         k_max=k_max, f=folds.f)
    expected = select_k(acc, evaluated_k=ks).curve
    by_k = {point.get("k"): point for point in curve}
    mismatches += sum(1 for point in expected if by_k.get(point["k"]) != point)
    return len(ks), mismatches
