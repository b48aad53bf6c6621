"""The blocked sweep against the brute-force oracle.

The cases aim where a blocked kernel can go wrong: tied distances (integer
features), every metric and tie policy, leave-one-out and skewed folds, many
classes, and memory budgets small enough to force 1-row blocks and blocks
that span folds.
"""

import importlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnsweep.cli import blocked_sweep
from knnsweep.dataset import Dataset, FoldAssignment, generate_synthetic, stratified_folds
from knnsweep.distance import METRICS, build_sorted_matrix, sort_rows
from knnsweep.errors import InconsistentFolds, InconsistentInputs, MemoryBudgetExceeded
from knnsweep.oracle import FoldDistanceCache, cross_validate
from knnsweep.sweep import TIE_POLICIES, _row_blocks, _row_bytes, row_blocks, sweep

sweep_module = importlib.import_module("knnsweep.sweep")


def min_budget(ds, fa, metric="euclidean", policy="smallest_code"):
    """The smallest memory budget blocked_sweep accepts: one row per block."""
    with pytest.raises(MemoryBudgetExceeded) as exc:
        blocked_sweep(ds, fa, metric, policy, memory_budget=1)
    return exc.value.required


def make_instance(n, d, s, integer, fold_kind, f, seed):
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % s)
    if integer:
        features = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    else:
        features = rng.normal(size=(n, d))
    ds = Dataset(features=features, labels=labels, s=s,
                 class_names=[f"c{c}" for c in range(s)])
    if fold_kind == "loocv":
        fa = stratified_folds(ds, n, seed)
    elif fold_kind == "skewed":  # about 90/10, rows shuffled
        fold_of = (rng.permutation(n) >= max(1, (9 * n) // 10)).astype(np.int64)
        fa = FoldAssignment(fold_of=fold_of, f=2)
    else:
        fa = stratified_folds(ds, min(f, n), seed)
    return ds, fa


@settings(max_examples=80, deadline=None)
@given(n=st.integers(4, 40), d=st.integers(1, 3), s=st.integers(2, 20),
       integer=st.booleans(), fold_kind=st.sampled_from(["stratified", "loocv", "skewed"]),
       f=st.integers(2, 8), metric=st.sampled_from(METRICS),
       policy=st.sampled_from(TIE_POLICIES), tight_budget=st.booleans(),
       block_rows=st.sampled_from([None, 1, 2, 3, 5]), seed=st.integers(0, 2**32 - 1))
def test_equals_oracle(n, d, s, integer, fold_kind, f, metric, policy, tight_budget,
                       block_rows, seed):
    s = min(s, n)
    ds, fa = make_instance(n, d, s, integer, fold_kind, f, seed)
    # a tight budget forces 1-row blocks; a small block cap gives blocks of
    # a few rows, which span folds and split them when folds are small
    budget = min_budget(ds, fa, metric, policy) if tight_budget else 4 << 30
    cap = (sweep_module.BLOCK_BYTES if block_rows is None
           else block_rows * _row_bytes(n, fa.k_max, d, s))
    with mock.patch.object(sweep_module, "BLOCK_BYTES", cap):
        acc, _ = blocked_sweep(ds, fa, metric, policy, memory_budget=budget)

    cache = FoldDistanceCache(ds, fa, metric)
    for k in range(1, fa.k_max + 1):
        np.testing.assert_array_equal(
            acc.correct[k - 1], cross_validate(ds, fa, k, metric, policy, cache=cache))


def test_blocks_one_row_and_spanning():
    ds, fa = make_instance(10, 2, 2, True, "loocv", 0, seed=1)
    single = list(_row_blocks(fa, lambda m: 1))
    assert [b.size for b in single] == [1] * 10
    spanning = list(_row_blocks(fa, lambda m: 4))
    assert [b.size for b in spanning] == [4, 4, 2]
    assert all(np.unique(fa.fold_of[b]).size == b.size for b in spanning)
    # folds of 3 rows packed 7 to a block: the third fold is split
    fa = FoldAssignment(fold_of=np.repeat(np.arange(4), 3), f=4)
    assert [b.tolist() for b in _row_blocks(fa, lambda m: 7)] == [
        [0, 1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11]]
    # 9/1 folds: the small fold packs alone, the large one is split evenly
    fa = FoldAssignment(fold_of=np.array([0] * 9 + [1]), f=2)
    assert [b.tolist() for b in _row_blocks(fa, lambda m: 7)] == [
        [9], [0, 1, 2, 3, 4], [5, 6, 7, 8]]


@pytest.mark.parametrize("n,d,s,f,metric,policy", [
    (300, 3, 3, 5, "euclidean", "smallest_code"),
    (200, 40, 2, 10, "manhattan", "smallest_code"),
    (150, 3, 20, 150, "chebyshev", "shadow_min"),
    # at scale 4 one block of every row: its cdist and sort pass
    # PARALLEL_WORK and run on the thread pool
    (1000, 1500, 2, 2, "euclidean", "smallest_code"),
])
@pytest.mark.parametrize("scale", [1, 4])
def test_traced_peak_within_budget(n, d, s, f, metric, policy, scale):
    ds = generate_synthetic(n, d, s, 1.0, seed=n)
    if s == 20:  # integer features: every row has tied distances
        ds = Dataset(features=np.round(ds.features), labels=ds.labels, s=s,
                     class_names=ds.class_names)
    fa = stratified_folds(ds, f, seed=n)
    budget = min_budget(ds, fa, metric, policy) * scale
    tracemalloc.start()
    try:
        blocked_sweep(ds, fa, metric, policy, memory_budget=budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= budget


def test_budget_refused_only_below_one_row(toy):
    ds, fa = toy
    required = min_budget(ds, fa)
    with pytest.raises(MemoryBudgetExceeded):
        blocked_sweep(ds, fa, memory_budget=required - 1)
    acc, _ = blocked_sweep(ds, fa, memory_budget=required)
    assert acc.correct.tolist() == [[1, 2], [1, 1]]


def test_block_cap_below_one_row_still_runs(toy):
    ds, fa = toy
    with mock.patch.object(sweep_module, "BLOCK_BYTES", 1):
        acc, _ = blocked_sweep(ds, fa)
    assert acc.correct.tolist() == [[1, 2], [1, 1]]


def test_seconds_cover_the_call(toy):
    ds, fa = toy
    _, seconds = blocked_sweep(ds, fa)
    assert list(seconds) == ["distance", "sort", "sweep", "total"]
    phases = seconds["distance"] + seconds["sort"] + seconds["sweep"]
    assert 0 <= phases <= seconds["total"]


def test_inconsistent_folds(toy):
    ds, _ = toy
    with pytest.raises(InconsistentFolds):
        blocked_sweep(ds, FoldAssignment(fold_of=np.array([0, 1, 0]), f=2))


@settings(max_examples=50, deadline=None)
@given(rows=st.integers(1, 40), cols=st.integers(1, 30),
       levels=st.integers(1, 4), with_inf=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_sort_rows_equals_stable_argsort(rows, cols, levels, with_inf, seed):
    d = np.random.default_rng(seed).integers(0, levels, size=(rows, cols)).astype(np.float64)
    if with_inf:  # overflowed distances tie too
        d[d == levels - 1] = np.inf
    order, sorted_d = sort_rows(d)
    expected = np.argsort(d, axis=1, kind="stable")
    np.testing.assert_array_equal(order, expected)
    np.testing.assert_array_equal(sorted_d, np.take_along_axis(d, expected, axis=1))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 30), f=st.integers(2, 9), integer=st.booleans(),
       metric=st.sampled_from(METRICS), data=st.data())
def test_block_rows_equal_single_row_builds(n, f, integer, metric, data):
    # a block spanning folds takes all n columns and drops each row's own
    # fold after the sort; a one-row block takes its fold's complement only
    ds, fa = make_instance(n, 2, 2, integer, "stratified", f, seed=n * f)
    size = data.draw(st.sampled_from(sorted(set(fa.fold_sizes.tolist()))))
    same_size = np.flatnonzero(fa.fold_sizes[fa.fold_of] == size).tolist()
    rows = data.draw(st.lists(st.sampled_from(same_size), min_size=1, unique=True))
    block = build_sorted_matrix(ds, fa, metric, rows=rows)
    assert block.n == len(rows) and block.rows.tolist() == rows
    assert block.valid_len.tolist() == [n - size] * len(rows)
    for j, r in enumerate(rows):
        one = build_sorted_matrix(ds, fa, metric, rows=[r])
        for name in ("distances", "labels", "sources"):
            np.testing.assert_array_equal(getattr(block, name)[j], getattr(one, name)[0])


def test_block_tallies_add_up(toy):
    ds, fa = toy
    correct = np.zeros((fa.k_max, fa.f), dtype=np.int64)
    for rows in ([3, 0], [1], [2]):
        acc = sweep(build_sorted_matrix(ds, fa, rows=rows), fa, ds.labels, correct=correct)
    assert acc.correct.tolist() == [[1, 2], [1, 1]]
    assert not acc.correct.flags.writeable and correct.flags.writeable


def test_block_inputs_checked(toy):
    ds, fa = toy
    for rows in ([], [4], [-1], [[0, 1]]):
        with pytest.raises(InconsistentInputs):
            build_sorted_matrix(ds, fa, rows=rows)
    block = build_sorted_matrix(ds, fa, rows=[0, 1])
    with pytest.raises(InconsistentInputs):
        sweep(block, fa, ds.labels, correct=np.zeros((fa.k_max + 1, fa.f), dtype=np.int64))
    other = FoldAssignment(fold_of=np.array([0, 0, 0, 1]), f=2)  # other row lengths
    with pytest.raises(InconsistentInputs):
        sweep(block, other, ds.labels)
    with pytest.raises(InconsistentInputs):  # rows of folds of 3 and 1 rows
        build_sorted_matrix(ds, other, rows=[0, 3])
    interleaved = build_sorted_matrix(ds, fa, rows=[0, 1, 2, 3])  # folds 0, 1, 0, 1
    with pytest.raises(InconsistentInputs):
        sweep(interleaved, fa, ds.labels)
    assert sum(b.size for b in row_blocks(ds, fa)) == ds.n
