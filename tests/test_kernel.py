"""The blocked sweep against the brute-force oracle.

The cases aim where a blocked kernel can go wrong: tied distances (integer
features), every metric and tie policy, leave-one-out and skewed folds, many
classes, and memory budgets small enough to force 1-row blocks and blocks
that span folds.
"""

import dataclasses
import importlib
import tracemalloc
import warnings
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
from knnsweep.sweep import (TIE_POLICIES, _row_blocks, _row_bytes, row_blocks, select_k, sweep,
                            tally_type)

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
           else block_rows * _row_bytes(n, d, s))
    with mock.patch.object(sweep_module, "BLOCK_BYTES", cap):
        acc, _ = blocked_sweep(ds, fa, metric, policy, memory_budget=budget)

    assert_equals_oracle(acc, ds, fa, metric, policy)


def assert_equals_oracle(acc, ds, fa, metric, policy):
    cache = FoldDistanceCache(ds, fa, metric)
    for k in range(1, fa.k_max + 1):
        np.testing.assert_array_equal(
            acc.correct[k - 1], cross_validate(ds, fa, k, metric, policy, cache=cache))


def overflow_instance():
    """Finite features near the float64 limit: distances and their sums overflow."""
    rng = np.random.default_rng(0)
    features = np.clip(rng.normal(size=(60, 4)), -1.7, 1.7) * 1e307
    return Dataset(features=features, labels=rng.permutation(np.arange(60) % 2), s=2,
                   class_names=["a", "b"])


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("policy", TIE_POLICIES)
def test_equals_oracle_when_distance_sums_overflow(metric, policy):
    # distances and their per-class sums overflow to inf, and tied inf sums
    # go to the smallest tied code
    ds = overflow_instance()
    fa = stratified_folds(ds, 4, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        acc, _ = blocked_sweep(ds, fa, metric, policy)
        assert_equals_oracle(acc, ds, fa, metric, policy)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("policy", TIE_POLICIES)
def test_loocv_equals_oracle_when_distance_sums_overflow(metric, policy):
    # one block spans all 60 one-row folds: its own-fold NaN cells and the
    # inf distances share one sort, and NaN must sort after inf
    ds = overflow_instance()
    fa = stratified_folds(ds, ds.n, seed=0)
    assert [b.size for b in row_blocks(ds, fa)] == [60]
    if metric == "euclidean":
        assert np.isinf(build_sorted_matrix(ds, fa, metric, rows=np.arange(60)).distances).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        acc, _ = blocked_sweep(ds, fa, metric, policy)
        assert_equals_oracle(acc, ds, fa, metric, policy)


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
    # two interleaved folds of 5 rows: each is split on its own, 3 + 2
    fa = FoldAssignment(fold_of=np.arange(10) % 2, f=2)
    assert [b.tolist() for b in _row_blocks(fa, lambda m: 3)] == [
        [0, 2, 4], [6, 8], [1, 3, 5], [7, 9]]


@pytest.mark.parametrize("n,d,s,f,metric,policy", [
    (300, 3, 3, 5, "euclidean", "smallest_code"),
    (200, 40, 2, 10, "manhattan", "smallest_code"),
    (150, 3, 20, 150, "chebyshev", "shadow_min"),
    # LOOCV below numpy's 8192-element ufunc buffer size, where a mixed-type
    # divide in select_k held cast buffers of 16 bytes a tally cell
    (91, 3, 3, 91, "euclidean", "smallest_code"),
    # at scale 4 one block of every row: its cdist and sort pass
    # PARALLEL_WORK and run on the thread pool
    (1000, 1500, 2, 2, "euclidean", "smallest_code"),
    # LOOCV whose 2.7 MiB float copy of the tally spans three select_k chunks
    (600, 3, 3, 600, "euclidean", "smallest_code"),
])
@pytest.mark.parametrize("scale", [1, 4])
def test_traced_peak_within_budget(n, d, s, f, metric, policy, scale):
    # the budget covers the whole run: the blocks, the tally and select_k
    ds = generate_synthetic(n, d, s, 1.0, seed=n)
    if s == 20:  # integer features: every row has tied distances
        ds = Dataset(features=np.round(ds.features), labels=ds.labels, s=s,
                     class_names=ds.class_names)
    fa = stratified_folds(ds, f, seed=n)
    budget = min_budget(ds, fa, metric, policy) * scale
    tracemalloc.start()
    try:
        select_k(blocked_sweep(ds, fa, metric, policy, memory_budget=budget)[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= budget


@pytest.mark.parametrize("policy", TIE_POLICIES)
@pytest.mark.parametrize("f", [5, 400])
def test_vote_footprint(policy, f):
    # _row_bytes charges a block its build alone, which must also cover the
    # vote: one fold's block, or one block spanning 400 one-row folds
    ds = generate_synthetic(400, 3, 3, 1.0, seed=f)
    fa = stratified_folds(ds, f, seed=f)
    rows = np.flatnonzero(fa.fold_of == 0) if f < ds.n else np.arange(ds.n)
    block = build_sorted_matrix(ds, fa, rows=rows)
    correct = np.zeros((fa.k_max, fa.f), dtype=tally_type(fa), order="F")
    tracemalloc.start()
    try:
        sweep(block, fa, ds.labels, policy, correct=correct)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= rows.size * (16 * fa.k_max + 32 * ds.s + 128)


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


def test_tally_is_narrowest_type_that_counts_a_fold():
    ds = generate_synthetic(40, 2, 4, 0.5, seed=3)
    acc, _ = blocked_sweep(ds, stratified_folds(ds, ds.n, seed=3))  # LOOCV
    assert acc.correct.dtype == np.int8
    # two folds of 128 rows in two far-apart classes: every row is right at
    # k=1, and 128 would wrap to -128 in an int8 tally
    features = np.r_[np.arange(128.0), 1000.0 + np.arange(128.0)][:, None]
    ds = Dataset(features=features, labels=np.repeat([0, 1], 128), s=2,
                 class_names=["a", "b"])
    fa = FoldAssignment(fold_of=np.arange(256) % 2, f=2)
    acc, _ = blocked_sweep(ds, fa)
    assert acc.correct.dtype == tally_type(fa) == np.int16
    assert acc.correct[0].tolist() == [128, 128]
    block = build_sorted_matrix(ds, fa, rows=np.flatnonzero(fa.fold_of == 0))
    assert sweep(block, fa, ds.labels).correct.dtype == np.int16  # the default tally
    for tally in (np.zeros((fa.k_max, fa.f), dtype=np.int8),
                  np.zeros((fa.k_max, fa.f), dtype=np.float64)):
        with pytest.raises(InconsistentInputs):
            sweep(block, fa, ds.labels, correct=tally)


def test_block_inputs_checked(toy):
    ds, fa = toy
    for rows in ([], [4], [-1], [[0, 1]], [1, 1]):  # [1, 1]: a row counted twice
        with pytest.raises(InconsistentInputs):
            build_sorted_matrix(ds, fa, rows=rows)
    block = build_sorted_matrix(ds, fa, rows=[0, 1])
    empty = dataclasses.replace(block, distances=block.distances[:0], labels=block.labels[:0],
                                sources=block.sources[:0], rows=block.rows[:0], n=0)
    with pytest.raises(InconsistentInputs):  # only a hand-made block holds no rows
        sweep(empty, fa, ds.labels)
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


def test_tally_is_fold_major():
    ds, fa = make_instance(30, 2, 3, True, "stratified", 3, seed=2)
    acc, _ = blocked_sweep(ds, fa)
    assert acc.correct.shape == (fa.k_max, 3) and acc.correct.flags.f_contiguous
    block = build_sorted_matrix(ds, fa, rows=np.flatnonzero(fa.fold_of == 0))
    assert sweep(block, fa, ds.labels).correct.flags.f_contiguous  # the default tally


@pytest.mark.parametrize("fold_kind", ["stratified", "loocv", "skewed"])
def test_tally_layout_counts_the_same(fold_kind):
    ds, fa = make_instance(40, 2, 3, True, fold_kind, 4, seed=5)
    acc, _ = blocked_sweep(ds, fa, memory_budget=min_budget(ds, fa) * 3)
    for order in ("C", "F"):
        correct = np.zeros((fa.k_max, fa.f), dtype=np.int64, order=order)
        for rows in row_blocks(ds, fa):
            sweep(build_sorted_matrix(ds, fa, rows=rows), fa, ds.labels, correct=correct)
        np.testing.assert_array_equal(correct, acc.correct)
    assert_equals_oracle(acc, ds, fa, "euclidean", "smallest_code")
