import importlib
import math
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from knnsweep.dataset import Dataset, FoldAssignment, generate_synthetic, stratified_folds
from knnsweep.distance import (
    ENTRY_BYTES,
    METRICS,
    PARALLEL_WORK,
    SORT_CELL_BYTES,
    build_sorted_matrix,
    distance_matrix,
    estimate_footprint,
    sort_rows,
)
from knnsweep.errors import BadParams, DimensionMismatch, InconsistentFolds
from knnsweep.sweep import FIXED_BYTES
from conftest import random_instance, sorted_rows

distance_module = importlib.import_module("knnsweep.distance")


def brute_masked_rows(ds, fa, metric):
    """Independent reference: per-row masked, sorted (distance, label, source).

    Distances via plain python math, no shared code with the engine.
    """
    def dist(a, b):
        diffs = [abs(x - y) for x, y in zip(a, b)]
        if metric == "euclidean":
            return math.sqrt(sum(v * v for v in diffs))
        if metric == "manhattan":
            return sum(diffs)
        return max(diffs)

    rows = []
    for r in range(ds.n):
        entries = []
        for j in range(ds.n):
            if j == r or fa.fold_of[j] == fa.fold_of[r]:
                continue
            entries.append((dist(ds.features[r], ds.features[j]), j, int(ds.labels[j])))
        entries.sort(key=lambda e: (e[0], e[1]))
        rows.append(entries)
    return rows


def pairwise_distance(a, b, metric="euclidean"):
    """Distance between two feature vectors, through distance_matrix."""
    return float(distance_matrix(np.atleast_2d(a), np.atleast_2d(b), metric)[0, 0])


class TestPairwiseDistance:
    def test_one_dim(self):
        assert pairwise_distance([0.0], [3.0], "euclidean") == 3.0

    def test_identity(self):
        assert pairwise_distance([1.0, 2.0], [1.0, 2.0], "euclidean") == 0.0

    def test_345_triangle(self):
        assert pairwise_distance([1.0, 1.0], [4.0, 5.0], "euclidean") == 5.0

    def test_manhattan_chebyshev(self):
        assert pairwise_distance([1.0, 1.0], [4.0, 5.0], "manhattan") == 7.0
        assert pairwise_distance([1.0, 1.0], [4.0, 5.0], "chebyshev") == 4.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=4), rng.normal(size=4)
        for metric in ("euclidean", "manhattan", "chebyshev"):
            assert pairwise_distance(a, b, metric) == pairwise_distance(b, a, metric)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pairwise_distance([1.0], [1.0, 2.0])

    def test_unknown_metric(self):
        with pytest.raises(BadParams):
            pairwise_distance([0.0], [1.0], "cosine")


class TestBuildSortedMatrix:
    def test_toy_rows(self, toy):
        ds, fa = toy
        m = build_sorted_matrix(ds, fa, rows=np.arange(4))  # both folds hold 2 rows
        assert m.distances[0].tolist() == [1.0, 10.0]
        assert m.labels[0].tolist() == [0, 1]
        assert m.sources[0].tolist() == [1, 3]
        assert m.valid_len.shape == (4,) and m.valid_len.tolist() == [2, 2, 2, 2]
        assert fa.k_max == 2

    def test_leave_one_out(self):
        ds = generate_synthetic(8, 2, 2, 1.0, seed=1)
        fa = stratified_folds(ds, 8, seed=1)
        m = build_sorted_matrix(ds, fa, rows=np.arange(8))
        assert m.distances.shape == (8, 7)
        assert fa.k_max == 7
        for r in range(8):
            assert r not in m.sources[r]

    def test_duplicate_rows_distance_zero_first(self):
        ds = Dataset(features=np.array([[5.0], [5.0], [0.0], [9.0]]),
                     labels=np.array([0, 1, 0, 1]), s=2, class_names=["a", "b"])
        fa = FoldAssignment(fold_of=np.array([0, 1, 0, 1]), f=2)
        m = build_sorted_matrix(ds, fa, rows=np.arange(4))
        assert m.distances[0, 0] == 0.0 and m.sources[0, 0] == 1
        assert m.distances[1, 0] == 0.0 and m.sources[1, 0] == 0

    def test_inconsistent_folds(self, toy):
        ds, _ = toy
        fa = FoldAssignment(fold_of=np.array([0, 1, 0]), f=2)
        with pytest.raises(InconsistentFolds):
            build_sorted_matrix(ds, fa, rows=[0])

    def test_takes_no_memory_budget(self, toy):
        # sweep.row_blocks is the one place that prices memory
        ds, fa = toy
        with pytest.raises(TypeError):
            build_sorted_matrix(ds, fa, memory_budget=4 << 30, rows=np.arange(4))

    @pytest.mark.parametrize("n, d, integer, f", [
        (1000, 3, False, 5),
        (1001, 3, True, 5),     # unequal folds: one block per fold size
        (1003, 3, True, 7),
        (600, 3, True, 600),    # LOOCV, every row tied: one block spanning every fold
        (1000, 3, False, None),  # 90/10 folds: one block per fold
        (500, 48, False, 5),
        (1500, 8, False, 5),    # cdist and sort above PARALLEL_WORK: threaded
    ])
    def test_traced_peak_within_budget(self, n, d, integer, f):
        # each block holds the rows of one fold size, one fold or several
        ds = generate_synthetic(n, d, 3, 1.0, seed=1)
        if integer:
            ds = Dataset(features=np.round(ds.features), labels=ds.labels, s=ds.s,
                         class_names=ds.class_names)
        if f is None:
            fold_of = np.random.default_rng(1).permutation(n) >= (9 * n) // 10
            fa = FoldAssignment(fold_of=fold_of.astype(np.int64), f=2)
        else:
            fa = stratified_folds(ds, f, seed=1)
        row_size = fa.fold_sizes[fa.fold_of]
        for size in np.unique(row_size):
            rows = np.flatnonzero(row_size == size)
            # a block of one fold takes that fold's complement as columns,
            # a block spanning folds all n; per row SORT_CELL_BYTES a column
            # and 16 bytes, the gathered feature rows and columns, FIXED_BYTES
            cols = n - size if np.unique(fa.fold_of[rows]).size == 1 else n
            required = (rows.size * (SORT_CELL_BYTES * cols + 16) + 8 * d * (rows.size + cols)
                        + FIXED_BYTES)
            tracemalloc.start()
            try:
                build_sorted_matrix(ds, fa, rows=rows)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= required

    def test_one_distance_and_sort_pass(self):
        ds = generate_synthetic(101, 2, 3, 1.0, seed=2)
        fa = stratified_folds(ds, 10, seed=2)
        rows = np.flatnonzero(fa.fold_sizes[fa.fold_of] == 10)  # the nine folds of 10
        with mock.patch.object(distance_module, "distance_matrix",
                               wraps=distance_module.distance_matrix) as dist, \
             mock.patch.object(distance_module, "sort_rows",
                               wraps=distance_module.sort_rows) as sort:
            m = build_sorted_matrix(ds, fa, rows=rows)
        assert dist.call_count == 1 and sort.call_count == 1
        assert np.unique(fa.fold_of[m.rows]).size == 9 and m.distances.shape == (90, 91)

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
    def test_brute_force_equivalence(self, metric):
        rng = np.random.default_rng(101)
        for _ in range(5):
            ds, fa = random_instance(rng, n_range=(10, 50), d_range=(1, 3))
            ref = brute_masked_rows(ds, fa, metric)
            for r, d, lab, src in sorted_rows(ds, fa, metric):
                ref_d = [e[0] for e in ref[r]]
                np.testing.assert_allclose(d, ref_d, rtol=1e-12, atol=1e-12)
                # order may differ from the reference only among exact ties
                assert lab.tolist() == [e[2] for e in ref[r]]
                assert src.tolist() == [e[1] for e in ref[r]]

    def test_mask_sort_symmetry_invariants(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            ds, fa = random_instance(rng, n_range=(10, 60))
            stored = {}
            for r, d, _, src in sorted_rows(ds, fa):
                assert np.all(fa.fold_of[src] != fa.fold_of[r])
                assert np.all(np.diff(d) >= 0)
                assert d.size == ds.n - fa.fold_sizes[fa.fold_of[r]]
                for dist, j in zip(d, src):
                    stored[(r, int(j))] = dist
            for (r, j), dist in stored.items():
                assert stored[(j, r)] == dist  # exact symmetry

    def test_deterministic_rebuild(self):
        ds = generate_synthetic(40, 3, 3, 1.0, seed=8)
        fa = stratified_folds(ds, 5, seed=8)
        a = build_sorted_matrix(ds, fa, rows=np.arange(40))  # five folds of 8 rows
        b = build_sorted_matrix(ds, fa, rows=np.arange(40))
        np.testing.assert_array_equal(a.distances, b.distances)
        np.testing.assert_array_equal(a.sources, b.sources)


def workers(count):
    return mock.patch.object(distance_module, "_worker_count", return_value=count)


def counted_pool():
    return mock.patch.object(distance_module, "ThreadPoolExecutor",
                             wraps=distance_module.ThreadPoolExecutor)


def distances_and_order(a, b, metric):
    d = distance_matrix(a, b, metric)
    return (d,) + sort_rows(d)


class TestThreadedRowChunks:
    """distance_matrix and sort_rows above PARALLEL_WORK, on a thread pool."""

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("integer", [False, True])
    def test_equals_one_worker_and_stable_argsort(self, metric, integer):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(400, 16)), rng.normal(size=(2500, 16))
        if integer:  # small integer coordinates: every row has tied distances
            a, b = np.round(a), np.round(b)
        assert min(400 * 2500 * 16, 400 * 2500 * (2500).bit_length()) >= PARALLEL_WORK
        with counted_pool() as pool:
            threaded = distances_and_order(a, b, metric)
        assert pool.call_count == 2
        with workers(1), counted_pool() as pool:
            serial = distances_and_order(a, b, metric)
        assert pool.call_count == 0
        for got, want in zip(threaded, serial):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        d, order, sorted_d = threaded
        expected = np.argsort(d, axis=1, kind="stable")
        np.testing.assert_array_equal(order, expected)
        assert sorted_d.tobytes() == np.take_along_axis(d, expected, axis=1).tobytes()
        if integer:
            assert (sorted_d[:, 1:] == sorted_d[:, :-1]).any(axis=1).all()

    def test_loocv_rows_span_folds(self):
        ds = generate_synthetic(1200, 8, 3, 1.0, seed=4)
        ds = Dataset(features=np.round(ds.features), labels=ds.labels, s=ds.s,
                     class_names=ds.class_names)
        fa = stratified_folds(ds, ds.n, seed=4)
        rows = np.arange(ds.n)
        with counted_pool() as pool:
            threaded = build_sorted_matrix(ds, fa, "manhattan", rows=rows)
        assert pool.call_count == 2
        with workers(1):
            serial = build_sorted_matrix(ds, fa, "manhattan", rows=rows)
        for name in ("distances", "labels", "sources"):
            np.testing.assert_array_equal(getattr(threaded, name), getattr(serial, name))

    def test_stress_more_workers_than_cores(self):
        rng = np.random.default_rng(11)
        a, b = np.round(rng.normal(size=(400, 20))), np.round(rng.normal(size=(2000, 20)))
        with workers(1):
            serial = distances_and_order(a, b, "chebyshev")
        interval = sys.getswitchinterval()
        deadline = time.monotonic() + 5.0
        rounds = 0
        sys.setswitchinterval(1e-6)
        try:
            with workers(8), counted_pool() as pool:
                while rounds < 10 and (rounds == 0 or time.monotonic() < deadline):
                    for got, want in zip(distances_and_order(a, b, "chebyshev"), serial):
                        assert got.tobytes() == want.tobytes()
                    rounds += 1
        finally:
            sys.setswitchinterval(interval)
        assert pool.call_count == 2 * rounds
        assert all(call.kwargs["max_workers"] == 8 for call in pool.call_args_list)

    def test_small_calls_stay_on_the_calling_thread(self):
        rng = np.random.default_rng(5)
        with counted_pool() as pool:
            distances_and_order(rng.normal(size=(1, 4)), rng.normal(size=(5000, 4)), "euclidean")
            distances_and_order(rng.normal(size=(240, 4)), rng.normal(size=(4800, 4)), "euclidean")
        # the second sort (240 * 4800 * 13 operations) is the one pool
        assert pool.call_count == 1


def assert_sorts_like_stable_argsort(d):
    order, sorted_d = sort_rows(d)
    expected = np.argsort(d, axis=1, kind="stable")
    np.testing.assert_array_equal(order, expected)
    # bit-equal: a -0.0 keeps its sign
    assert sorted_d.tobytes() == np.take_along_axis(d, expected, axis=1).tobytes()


def ulp_rows(rng, rows, cols):
    """Values a few ulps apart: distinct distances share their top 64 - b bits."""
    base = rng.uniform(0.5, 1.0, size=(rows, 1))
    return base + rng.integers(0, 40, size=(rows, cols)) * np.spacing(base)


class TestSortRows:
    """sort_rows' packed keys give argsort(kind="stable") on the rows where keys collide."""

    @pytest.mark.parametrize("cols", [1, 2, 300])
    @pytest.mark.parametrize("case", ["ulps", "signed_zeros", "inf", "integer_ties"])
    def test_equals_stable_argsort(self, case, cols):
        rng = np.random.default_rng(cols)
        shape = (60, cols)
        if case == "ulps":
            d = ulp_rows(rng, *shape)
        elif case == "signed_zeros":  # rows of zeros only among them
            d = rng.choice([0.0, -0.0, 0.0, 1.0], size=shape)
            d[:10] = rng.choice([0.0, -0.0], size=(10, cols))
        elif case == "inf":
            d = rng.choice([0.5, 1.0, np.inf], size=shape)
        else:
            d = rng.integers(0, 3, size=shape).astype(np.float64)
        assert_sorts_like_stable_argsort(d)

    def test_ulp_keys_collide(self):
        # the case above does reach the stable re-sort: 300 columns keep the
        # top 64 - 9 bits, and values 40 ulps apart share them
        d = ulp_rows(np.random.default_rng(300), 60, 300)
        kept = d.view(np.uint64) >> (299).bit_length()
        assert all(np.unique(kept[r]).size < np.unique(d[r]).size for r in range(60))

    def test_above_parallel_work(self):
        rng = np.random.default_rng(9)
        d = ulp_rows(rng, 400, 2500)
        d[::3] = rng.choice([0.0, -0.0, 1.0, np.inf], size=d[::3].shape)
        d[1::3] = np.round(d[1::3] * 4)
        assert d.size * (2500).bit_length() >= PARALLEL_WORK
        with counted_pool() as pool:
            assert_sorts_like_stable_argsort(d)
        assert pool.call_count == 1


class TestEstimateFootprint:
    def test_quadratic_growth(self):
        small = estimate_footprint(1000, 5)
        big = estimate_footprint(2000, 5)
        assert big / small == pytest.approx(4.0, rel=0.05)

    def test_small_case_formula(self):
        assert estimate_footprint(4, 2) >= 4 * 2 * ENTRY_BYTES
        assert estimate_footprint(4, 2) - 4 * 2 * ENTRY_BYTES < 1024  # only overhead

    def test_monotone_in_n(self):
        values = [estimate_footprint(n, 5) for n in range(5, 200, 7)]
        assert all(a < b for a, b in zip(values, values[1:]))
