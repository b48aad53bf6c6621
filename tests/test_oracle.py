import numpy as np
import pytest

from conftest import random_instance
from knnsweep.cli import blocked_sweep
from knnsweep.dataset import generate_synthetic, stratified_folds
from knnsweep.errors import BadParams, DimensionMismatch, KTooLarge
from knnsweep.oracle import (
    FoldDistanceCache,
    KSchedule,
    cross_validate,
    full_schedule,
    knn_classify,
    logarithmic_schedule,
    naive_search,
)
from knnsweep.sweep import select_k


class TestKnnClassify:
    train_x = np.array([[0.0], [1.0], [10.0]])
    train_y = np.array([0, 0, 1])

    def test_nearest(self):
        assert knn_classify(self.train_x, self.train_y, [2.0], k=1) == 0

    def test_majority_of_three(self):
        assert knn_classify(self.train_x, self.train_y, [2.0], k=3) == 0

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            knn_classify(self.train_x, self.train_y, [2.0], k=4)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            knn_classify(self.train_x, self.train_y, [2.0, 3.0], k=1)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, k):
        # [:, :-1] would keep all but one neighbour
        with pytest.raises(BadParams):
            knn_classify(self.train_x, self.train_y, [2.0], k=k)

    def test_distance_tie_prefers_lower_index(self):
        x = np.array([[0.0], [2.0]])
        y = np.array([1, 0])
        assert knn_classify(x, y, [1.0], k=1) == 1

    def test_shadow_min_policy(self):
        x = np.array([[0.0], [1.5], [2.0]])
        y = np.array([0, 1, 1])
        # k=2: one vote each (neighbors at 0.5 and 1.0); shadow favors class 1
        assert knn_classify(x, y, [1.0], k=2, policy="smallest_code") == 0
        assert knn_classify(x, y, [1.0], k=2, policy="shadow_min") == 1


class TestCrossValidate:
    def test_toy_k1_matches_sweep(self, toy):
        # oracle-confirmed golden counts for the toy instance
        ds, fa = toy
        counts = cross_validate(ds, fa, k=1)
        assert counts.tolist() == [1, 2]
        acc, _ = blocked_sweep(ds, fa)
        assert counts.tolist() == acc.correct[0].tolist()

    def test_separable_data_all_correct(self):
        ds = generate_synthetic(40, 2, 2, 0.001, seed=3)
        fa = stratified_folds(ds, 4, seed=3)
        counts = cross_validate(ds, fa, k=1)
        assert counts.tolist() == fa.fold_sizes.tolist()

    def test_deterministic(self):
        ds = generate_synthetic(40, 2, 3, 1.0, seed=4)
        fa = stratified_folds(ds, 5, seed=4)
        a = cross_validate(ds, fa, k=7)
        b = cross_validate(ds, fa, k=7)
        np.testing.assert_array_equal(a, b)

    def test_k_too_large(self, toy):
        ds, fa = toy
        with pytest.raises(KTooLarge):
            cross_validate(ds, fa, k=3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, k):
        # at k=-1, [:, :-1] would give the counts at k_max - 1
        ds = generate_synthetic(60, 2, 3, 1.0, 0)
        fa = stratified_folds(ds, 5, 0)
        with pytest.raises(BadParams):
            cross_validate(ds, fa, k)

    def test_cache_changes_nothing(self):
        ds = generate_synthetic(30, 2, 3, 1.0, seed=6)
        fa = stratified_folds(ds, 3, seed=6)
        cache = FoldDistanceCache(ds, fa, "euclidean")
        for k in (1, 5, fa.k_max):
            np.testing.assert_array_equal(
                cross_validate(ds, fa, k),
                cross_validate(ds, fa, k, cache=cache))

    def test_matches_scalar_knn_classify(self):
        ds = generate_synthetic(24, 2, 3, 1.0, seed=9)
        fa = stratified_folds(ds, 3, seed=9)
        for policy in ("smallest_code", "shadow_min"):
            counts = cross_validate(ds, fa, k=4, policy=policy)
            manual = np.zeros(fa.f, dtype=int)
            for i in range(fa.f):
                train = np.flatnonzero(fa.fold_of != i)
                for r in np.flatnonzero(fa.fold_of == i):
                    pred = knn_classify(ds.features[train], ds.labels[train],
                                        ds.features[r], k=4, policy=policy)
                    manual[i] += int(pred == ds.labels[r])
            np.testing.assert_array_equal(counts, manual)


class TestLogarithmicSchedule:
    def test_printed_prefix_and_hundreds(self):
        sched = logarithmic_schedule(1500)
        expected = [1, 2, 3, 4, 5, 6, 7, 8, 10] + list(range(100, 1501, 100))
        assert list(sched.values) == expected

    def test_small_k_max(self):
        assert list(logarithmic_schedule(6).values) == [1, 2, 3, 4, 5, 6]
        assert list(logarithmic_schedule(1).values) == [1]

    def test_always_contains_endpoints(self):
        for k_max in (1, 2, 9, 10, 11, 57, 99, 100, 101, 250, 1234):
            vals = logarithmic_schedule(k_max).values
            assert vals[0] == 1 and vals[-1] == k_max
            assert all(1 <= v <= k_max for v in vals)
            assert list(vals) == sorted(set(vals))


class TestKSchedule:
    @pytest.mark.parametrize("values", [(), (-1, 2), (0, 1), (2, 1), (1, 1)])
    def test_rejected(self, values):
        with pytest.raises(BadParams):
            KSchedule(values=values)

    @pytest.mark.parametrize("schedule", [full_schedule, logarithmic_schedule])
    def test_k_max_below_one(self, schedule):
        with pytest.raises(BadParams):
            schedule(0)


class TestNaiveSearch:
    def test_full_schedule_matches_sweep_report(self, toy):
        ds, fa = toy
        naive = naive_search(ds, fa, full_schedule(fa.k_max))
        fast = select_k(blocked_sweep(ds, fa)[0])
        assert naive.curve == fast.curve
        assert naive.best_k_per_fold == fast.best_k_per_fold
        assert naive.k_star == fast.k_star

    def test_log_equals_full_for_tiny_k_max(self, toy):
        ds, fa = toy
        a = naive_search(ds, fa, full_schedule(fa.k_max))
        b = naive_search(ds, fa, logarithmic_schedule(fa.k_max))
        assert a.curve == b.curve and a.k_star == b.k_star

    def test_no_cache_argument(self, toy):
        ds, fa = toy
        with pytest.raises(TypeError):
            naive_search(ds, fa, full_schedule(fa.k_max), cache=None)

    def test_singleton_schedule(self):
        ds = generate_synthetic(20, 2, 2, 1.0, seed=12)
        fa = stratified_folds(ds, 4, seed=12)
        report = naive_search(ds, fa, full_schedule(1))
        assert report.k_star == 1 and report.evaluated_k == [1]

    def test_timing_is_the_total(self, toy):
        ds, fa = toy
        timing = naive_search(ds, fa, full_schedule(fa.k_max)).timing
        assert list(timing) == ["total"] and timing["total"] > 0


class TestOracleEquivalenceSmall:
    def test_random_instances(self):
        # fast version of the acceptance-gate property
        rng = np.random.default_rng(2024)
        for _ in range(8):
            ds, fa = random_instance(rng, n_range=(10, 60))
            cache = FoldDistanceCache(ds, fa, "euclidean")
            for policy in ("smallest_code", "shadow_min"):
                acc, _ = blocked_sweep(ds, fa, "euclidean", policy)
                for k in range(1, fa.k_max + 1):
                    naive = cross_validate(ds, fa, k, policy=policy, cache=cache)
                    np.testing.assert_array_equal(naive, acc.correct[k - 1])
