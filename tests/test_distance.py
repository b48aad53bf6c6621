import importlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from knnsweep.dataset import Dataset, FoldAssignment, generate_synthetic, stratified_folds
from knnsweep.distance import (
    ENTRY_BYTES,
    METRICS,
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
        (1500, 8, False, 5),
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


class TestDistanceTiles:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("columns", [1, 2, 3, 7])  # 3 and 7 divide neither 20 nor 25
    @pytest.mark.parametrize("kind", ["continuous", "duplicates", "overflow"])
    def test_tiles_equal_one_call(self, metric, columns, kind):
        n, d = 25, 3
        rng = np.random.default_rng(columns)
        if kind == "continuous":
            features = rng.normal(size=(n, d))
        elif kind == "duplicates":  # many equal points: tied distances, zeros among them
            features = rng.integers(0, 2, size=(n, d)).astype(np.float64)
        else:  # every metric's sums overflow to inf
            features = rng.choice([-1.5e308, 1.5e308], size=(n, d))
        ds = Dataset(features=features, labels=np.arange(n) % 3, s=3, class_names=["a", "b", "c"])
        fa = FoldAssignment(fold_of=np.arange(n) % 5, f=5)
        one_fold, cols = np.flatnonzero(fa.fold_of == 0), np.flatnonzero(fa.fold_of != 0)
        for rows in (one_fold, np.arange(n)):  # 20 columns, and 25 for a block spanning folds
            with mock.patch.object(distance_module, "TILE_BYTES", 8 * d * columns), \
                 mock.patch.object(distance_module, "sort_rows",
                                   wraps=distance_module.sort_rows) as sort:
                assert distance_module.tile_columns(d) == columns
                tiled = build_sorted_matrix(ds, fa, metric, rows=rows)
            if rows is one_fold:  # its tiled distances, before the sort, are one call's
                dist = distance_matrix(features[rows], features[cols], metric)
                assert sort.call_args.args[0].tobytes() == dist.tobytes()
            whole = build_sorted_matrix(ds, fa, metric, rows=rows)  # one cdist call
            assert tiled.distances.tobytes() == whole.distances.tobytes()
            np.testing.assert_array_equal(tiled.sources, whole.sources)
            np.testing.assert_array_equal(tiled.labels, whole.labels)

    def test_tile_columns(self):
        assert distance_module.tile_columns(512) == 256  # 1 MiB of features
        assert distance_module.tile_columns(4) == 32768
        assert distance_module.tile_columns(1 << 20) == 1  # a tile holds one column at least


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
