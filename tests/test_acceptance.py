"""Acceptance gate: one test per release criterion, one PASS line each.

Every criterion checks the path the CLI runs: accuracies come from
blocked_sweep, and neighbour lists from the blocks of row_blocks.
Run with -s to see the per-criterion lines. The speedup and scaling checks
(criteria 3 and 4) time real computation and dominate the suite's runtime.
"""

import json
import time

import numpy as np
import pytest

from conftest import random_instance, sorted_rows
from knnsweep.cli import blocked_sweep
from knnsweep.cli import main as cli_main
from knnsweep.dataset import Dataset, generate_synthetic, stratified_folds
from knnsweep.oracle import (
    FoldDistanceCache,
    cross_validate,
    full_schedule,
    logarithmic_schedule,
    naive_search,
)
from knnsweep.sweep import select_k

POLICIES = ("smallest_code", "shadow_min")


def report(criterion, detail=""):
    print(f"PASS {criterion}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def instance_pool():
    """100 seeded random instances shared by criteria 1 and 5."""
    rng = np.random.default_rng(20250823)
    pool = []
    for _ in range(100):
        ds, fa = random_instance(rng, n_range=(10, 200), d_range=(1, 5),
                                 s_range=(2, 4), f_choices=(3, 5))
        pool.append((ds, fa))
    return pool


def test_criterion_1_oracle_equivalence(instance_pool):
    """Sweep's per-fold correct counts match naive CV exactly, for every k."""
    t0 = time.perf_counter()
    checked = 0
    for ds, fa in instance_pool:
        cache = FoldDistanceCache(ds, fa, "euclidean")
        for policy in POLICIES:
            acc, _ = blocked_sweep(ds, fa, "euclidean", policy)
            for k in range(1, fa.k_max + 1):
                naive = cross_validate(ds, fa, k, policy=policy, cache=cache)
                assert (naive == acc.correct[k - 1]).all(), (
                    f"mismatch at n={ds.n}, f={fa.f}, k={k}, policy={policy}")
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    report("criterion 1: oracle equivalence",
           f"{len(instance_pool)} instances, {checked} (k, policy) checks, {elapsed:.1f}s")


def test_criterion_2_toy_regression(toy):
    """Golden values for the 4-point instance, as confirmed by the oracle."""
    ds, fa = toy
    acc, _ = blocked_sweep(ds, fa)
    for k in range(1, fa.k_max + 1):
        np.testing.assert_array_equal(acc.correct[k - 1], cross_validate(ds, fa, k))
    assert acc.correct.tolist() == [[1, 2], [1, 1]]
    rep = select_k(acc)
    assert rep.best_k_per_fold == [1, 1]
    assert rep.k_star == 1
    report("criterion 2: toy-instance regression",
           "A=[[1,2],[1,1]], best=[1,1], k*=1")


@pytest.fixture(scope="module")
def desk_scale_timings():
    """Sweep timings at n=2000 and n=4000 (d=4, s=3, f=5), shared by 3 and 4."""
    timings = {}
    for n in (2000, 4000):
        ds = generate_synthetic(n, 4, 3, 1.0, seed=7)
        fa = stratified_folds(ds, 5, seed=7)
        t0 = time.perf_counter()
        acc, _ = blocked_sweep(ds, fa)
        timings[n] = {"seconds": time.perf_counter() - t0,
                      "dataset": ds, "folds": fa, "acc": acc}
    return timings


def test_criterion_3_speedup(desk_scale_timings):
    """Sweep beats naive full-schedule cross-validation by >= 20x."""
    entry = desk_scale_timings[2000]
    ds, fa = entry["dataset"], entry["folds"]
    sweep_seconds = entry["seconds"]

    t0 = time.perf_counter()
    naive = naive_search(ds, fa, full_schedule(fa.k_max))
    naive_seconds = time.perf_counter() - t0

    fast = select_k(entry["acc"])
    assert fast.curve == naive.curve and fast.k_star == naive.k_star
    ratio = naive_seconds / sweep_seconds
    assert ratio >= 20, f"speedup only {ratio:.1f}x"
    report("criterion 3: desk-scale speedup",
           f"sweep {sweep_seconds:.2f}s vs naive {naive_seconds:.1f}s = {ratio:.0f}x")


def test_criterion_4_complexity_scaling(desk_scale_timings):
    """Doubling n from 2000 to 4000 costs at most 6x (n^2 log n ~ 4.4x)."""
    t2, t4 = (desk_scale_timings[n]["seconds"] for n in (2000, 4000))
    ratio = t4 / t2
    assert ratio <= 6, f"time(4000)/time(2000) = {ratio:.2f}"
    report("criterion 4: complexity scaling",
           f"{t2:.2f}s -> {t4:.2f}s, ratio {ratio:.2f} <= 6")


def test_criterion_5_mask_and_sort_invariants(instance_pool):
    """No same-fold neighbor, rows non-decreasing, symmetry exact."""
    for ds, fa in instance_pool:
        lookup = {}
        seen = []
        for r, d, lab, src in sorted_rows(ds, fa):
            seen.append(r)
            assert d.size == ds.n - fa.fold_sizes[fa.fold_of[r]]
            assert np.all(fa.fold_of[src] != fa.fold_of[r])
            assert np.all(src != r)
            assert np.all(np.diff(d) >= 0)
            assert np.array_equal(lab, ds.labels[src])
            for dist, j in zip(d, src):
                lookup[(r, int(j))] = dist
        assert sorted(seen) == list(range(ds.n))  # blocks cover each row once
        for (r, j), dist in lookup.items():
            assert lookup[(j, r)] == dist
    report("criterion 5: mask/sort/symmetry invariants",
           f"all {len(instance_pool)} instances exhaustively verified")


def test_criterion_6_argmax_invariance():
    """Scaling all features by 1000 leaves A, best ks and k* bit-identical."""
    rng = np.random.default_rng(99)
    for _ in range(20):
        ds, fa = random_instance(rng, n_range=(10, 120))
        scaled = Dataset(features=ds.features * 1000.0, labels=ds.labels.copy(),
                         s=ds.s, class_names=list(ds.class_names))
        for policy in POLICIES:
            acc_a, _ = blocked_sweep(ds, fa, "euclidean", policy)
            acc_b, _ = blocked_sweep(scaled, fa, "euclidean", policy)
            np.testing.assert_array_equal(acc_a.correct, acc_b.correct)
            rep_a, rep_b = select_k(acc_a), select_k(acc_b)
            assert rep_a.best_k_per_fold == rep_b.best_k_per_fold
            assert rep_a.k_star == rep_b.k_star
    report("criterion 6: argmax invariance under feature scaling",
           "20 instances, both policies")


def test_criterion_7_determinism(tmp_path):
    """Identical seed/config -> byte-identical outputs, timing aside."""
    payloads, curve_bytes = [], []
    for i in (0, 1):
        out = tmp_path / f"report{i}.json"
        curve = tmp_path / f"curve{i}.csv"
        code = cli_main(["optimize", "--synthetic", "150,3,3,0.7", "--folds", "5",
                         "--seed", "123", "--output", str(out), "--curve", str(curve)])
        assert code == 0
        payload = json.loads(out.read_text())
        payload.pop("timing")
        payloads.append(json.dumps(payload, sort_keys=True))
        curve_bytes.append(curve.read_bytes())
    assert payloads[0] == payloads[1]
    assert curve_bytes[0] == curve_bytes[1]
    report("criterion 7: determinism", "JSON (sans timing) and CSV byte-identical")


def test_criterion_8_logarithmic_schedule():
    """Documented sparse schedule, including the printed prefix."""
    expected = tuple([1, 2, 3, 4, 5, 6, 7, 8, 10] + list(range(100, 1501, 100)))
    assert logarithmic_schedule(1500).values == expected
    assert expected[:11] == (1, 2, 3, 4, 5, 6, 7, 8, 10, 100, 200)
    for k_max in (1, 5, 9, 10, 42, 100, 350, 1500, 2711):
        vals = logarithmic_schedule(k_max).values
        assert vals[0] == 1 and vals[-1] == k_max
    report("criterion 8: logarithmic schedule", f"{len(expected)} values at k_max=1500")
