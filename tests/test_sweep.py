import dataclasses
import importlib
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from conftest import panel_of
from knnsweep.cli import blocked_sweep
from knnsweep.dataset import FoldAssignment, generate_synthetic, stratified_folds
from knnsweep.distance import SortedDistanceMatrix, build_sorted_matrix
from knnsweep.errors import BadParams, EmptyNeighborhood, InconsistentInputs, IoError
from knnsweep.sweep import (
    AccuracyMatrix,
    accuracy_curve_export,
    classify_at_k,
    select_k,
    sweep,
)

sweep_module = importlib.import_module("knnsweep.sweep")


def make_matrix(distances, labels, sources, f):
    distances = np.asarray(distances, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int32)
    sources = np.asarray(sources, dtype=np.int32)
    n = distances.shape[0]
    return SortedDistanceMatrix(
        distances=distances, labels=labels, sources=sources, n=n, f=f, build_seconds={},
        rows=np.arange(n))


class TestClassifyAtK:
    def test_strict_majority(self):
        assert classify_at_k([2, 1], [0.0, 0.0]) == 0
        assert classify_at_k([1, 3], [0.0, 0.0], "shadow_min") == 1

    def test_tie_smallest_code(self):
        assert classify_at_k([1, 1], [10.0, 1.0], "smallest_code") == 0

    def test_tie_shadow_min(self):
        assert classify_at_k([1, 1], [10.0, 1.0], "shadow_min") == 1

    def test_shadow_tie_falls_back_to_code(self):
        assert classify_at_k([2, 2, 1], [3.0, 3.0, 9.0], "shadow_min") == 0

    def test_overflowed_shadow_tie_falls_back_to_tied_code(self):
        # summed distances that overflowed are inf; class 0 is not tied
        assert classify_at_k([0, 1, 1], [0.0, np.inf, np.inf], "shadow_min") == 1
        assert classify_at_k([1, 2, 2], [np.inf, np.inf, 5.0], "shadow_min") == 2

    def test_empty_neighborhood(self):
        with pytest.raises(EmptyNeighborhood):
            classify_at_k([0, 0], [0.0, 0.0])

    def test_unknown_policy(self):
        with pytest.raises(BadParams):
            classify_at_k([1, 0], [0.0, 0.0], "coin_flip")

    def test_rows_at_once(self):
        counts = np.array([[[2, 1], [1, 1]], [[1, 1], [0, 3]]])
        shadow = np.array([[[0.0, 0.0], [10.0, 1.0]], [[1.0, 1.0], [0.0, 2.0]]])
        for policy in ("smallest_code", "shadow_min"):
            pred = classify_at_k(counts, shadow, policy)
            assert pred.shape == (2, 2)
            for i in np.ndindex(2, 2):
                assert pred[i] == classify_at_k(counts[i], shadow[i], policy)
        counts[1, 0] = 0
        with pytest.raises(EmptyNeighborhood):
            classify_at_k(counts, shadow)


class TestSweep:
    def test_toy_golden(self, toy):
        # values confirmed against the brute-force oracle (see test_oracle)
        ds, fa = toy
        acc, _ = blocked_sweep(ds, fa)
        assert acc.correct.tolist() == [[1, 2], [1, 1]]

    def test_single_label_everywhere(self):
        # hand-built matrix whose neighbors all carry label 0
        m = make_matrix(distances=[[1.0, 2.0]] * 4,
                        labels=[[0, 0]] * 4,
                        sources=[[2, 3], [2, 3], [0, 1], [0, 1]],
                        f=2)
        fa = FoldAssignment(fold_of=np.array([0, 0, 1, 1]), f=2)
        acc = sweep(panel_of(fa, 2, m), fa, truth=np.zeros(4, dtype=int))
        for k in range(fa.k_max):
            assert acc.correct[k].tolist() == fa.fold_sizes.tolist()

    def test_two_rows_two_folds(self):
        ds = generate_synthetic(2, 1, 2, 0.5, seed=0)
        fa = stratified_folds(ds, 2, seed=0)
        m = build_sorted_matrix(ds, fa, rows=[0, 1])
        assert fa.k_max == 1
        acc = sweep(panel_of(fa, ds.s, m), fa, ds.labels)
        assert acc.correct.shape == (1, 2)
        # prediction is the sole cross-fold neighbor's label
        expected = [int(m.labels[r, 0] == ds.labels[r]) for r in range(2)]
        assert acc.correct.sum() == sum(expected)

    def test_inconsistent_inputs(self, toy):
        ds, fa = toy
        panel = panel_of(fa, ds.s, build_sorted_matrix(ds, fa, rows=[0, 2]))
        with pytest.raises(InconsistentInputs):
            sweep(panel, fa, ds.labels[:3])
        with pytest.raises(InconsistentInputs):  # a code the panel's s does not cover
            sweep(panel, fa, np.array([0, 0, 2, 0]))
        with pytest.raises(InconsistentInputs):  # no distances to break ties with
            sweep(panel, fa, ds.labels, "shadow_min")

    def test_policies_agree_without_ties(self):
        # distinct per-pair distances and odd k majorities rarely tie, but the
        # guarantee tested is pointwise: same prediction when counts are untied
        rng = np.random.default_rng(23)
        for _ in range(200):
            s = int(rng.integers(2, 5))
            counts = rng.integers(0, 6, size=s)
            if (counts == counts.max()).sum() != 1 or counts.sum() == 0:
                continue
            shadow = rng.uniform(0, 10, size=s)
            assert (classify_at_k(counts, shadow, "smallest_code")
                    == classify_at_k(counts, shadow, "shadow_min"))


class TestSelectK:
    def test_spec_shaped_accuracy_matrix(self):
        acc = AccuracyMatrix(correct=np.array([[2, 1], [2, 2]]),
                             fold_sizes=np.array([2, 2]), k_max=2, f=2)
        report = select_k(acc)
        assert report.best_k_per_fold == [1, 2]
        assert report.k_star == 2  # round-half-up of 1.5
        assert report.curve[0] == {"k": 1, "mean_accuracy": 0.75, "std_accuracy": 0.25}
        assert report.curve[1] == {"k": 2, "mean_accuracy": 1.0, "std_accuracy": 0.0}

    @pytest.mark.parametrize("k_max, f", [(1, 2), (40, 2), (25, 5), (300, 10), (60, 3000)])
    def test_curve_equals_per_row_loop(self, k_max, f):
        rng = np.random.default_rng(k_max * f)
        fold_sizes = rng.integers(1, 50, size=f)
        correct = rng.integers(0, fold_sizes + 1, size=(k_max, f))
        acc = AccuracyMatrix(correct=correct, fold_sizes=fold_sizes, k_max=k_max, f=f)
        per_fold = correct / fold_sizes
        expected = [{"k": k, "mean_accuracy": float(np.mean(per_fold[k - 1])),
                     "std_accuracy": float(np.std(per_fold[k - 1]))}
                    for k in range(1, k_max + 1)]
        assert select_k(acc).curve == expected

    def test_peak_below_one_and_a_half_tallies(self):
        # argmax over k (axis 0) copies the whole tally, and per_fold is a
        # float copy of it: the two must not be held at once
        rng = np.random.default_rng(3)
        correct = rng.integers(0, 5, size=(599, 600))
        acc = AccuracyMatrix(correct=correct, fold_sizes=np.full(600, 4), k_max=599, f=600)
        tracemalloc.start()
        try:
            select_k(acc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * correct.nbytes

    @pytest.mark.parametrize("k_max, f", [(1, 1), (5, 2), (300, 10), (100, 3000), (3, 200000)])
    def test_c_and_f_ordered_tallies_report_the_same(self, k_max, f):
        # at f=3000 a select_k chunk holds 43 rows, at f=200000 one row
        rng = np.random.default_rng(k_max + f)
        fold_sizes = rng.integers(1, 5, size=f)
        correct = rng.integers(0, fold_sizes + 1, size=(k_max, f)).astype(np.int8)
        reports = [
            select_k(AccuracyMatrix(correct=layout(correct), fold_sizes=fold_sizes,
                                    k_max=k_max, f=f))
            for layout in (np.ascontiguousarray, np.asfortranarray)]
        assert reports[0] == reports[1]
        assert reports[0].best_k_per_fold == (np.argmax(correct, axis=0) + 1).tolist()
        # an evaluated_k subset: tally rows follow the listed k
        ks = list(range(1, 3 * k_max + 1, 3))
        subset = [select_k(AccuracyMatrix(correct=layout(correct), fold_sizes=fold_sizes,
                                          k_max=3 * k_max, f=f), evaluated_k=ks)
                  for layout in (np.ascontiguousarray, np.asfortranarray)]
        assert subset[0] == subset[1]
        assert [p["k"] for p in subset[0].curve] == ks
        assert [p["mean_accuracy"] for p in subset[0].curve] == [
            p["mean_accuracy"] for p in reports[0].curve]

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
    @pytest.mark.parametrize("k_max, f", [(70, 3), (130, 300), (9, 700)])
    @pytest.mark.parametrize("chunk_bytes", [1 << 20, 4096])
    def test_f_and_c_tallies_give_identical_report_bytes(self, dtype, k_max, f, chunk_bytes):
        # 4 KiB chunks: the tally is read in many chunks of rows, and parts
        # of them, the last ones shorter; past SELECT_TILE_FOLDS folds a
        # chunk is filled in several tiles, the last one narrower
        rng = np.random.default_rng(k_max * f)
        fold_sizes = rng.integers(1, 100, size=f)
        correct = rng.integers(0, fold_sizes + 1, size=(k_max, f)).astype(dtype)
        with mock.patch.object(sweep_module, "SELECT_CHUNK_BYTES", chunk_bytes):
            reports = [select_k(AccuracyMatrix(correct=layout(correct), fold_sizes=fold_sizes,
                                               k_max=k_max, f=f)).to_json()
                       for layout in (np.ascontiguousarray, np.asfortranarray)]
        assert reports[0] == reports[1]
        report = json.loads(reports[0])
        assert report["best_k_per_fold"] == (np.argmax(correct, axis=0) + 1).tolist()
        per_fold = correct / fold_sizes
        assert report["curve"] == [{"k": k, "mean_accuracy": float(np.mean(per_fold[k - 1])),
                                    "std_accuracy": float(np.std(per_fold[k - 1]))}
                                   for k in range(1, k_max + 1)]

    @pytest.mark.parametrize("evaluated_k", [[1, 2], [1, 2, 3, 4, 5], []])
    def test_evaluated_k_must_name_every_tally_row(self, evaluated_k):
        acc = AccuracyMatrix(correct=np.array([[1, 0], [1, 1], [0, 1]]),
                             fold_sizes=np.array([1, 1]), k_max=3, f=2)
        with pytest.raises(InconsistentInputs):
            select_k(acc, evaluated_k=evaluated_k)

    @pytest.mark.parametrize("shape, fold_sizes", [
        ((3, 2), [1, 1, 1]), ((3, 3), [1, 1]), ((3,), [1, 1, 1]), ((3, 3), [[1, 1, 1]]),
        ((0, 3), [1, 1, 1])])
    def test_tally_and_fold_sizes_must_match_f(self, shape, fold_sizes):
        with pytest.raises(InconsistentInputs):
            AccuracyMatrix(correct=np.ones(shape, dtype=np.int64),
                           fold_sizes=np.array(fold_sizes), k_max=3, f=3)

    def test_no_folds(self):
        with pytest.raises(InconsistentInputs):
            AccuracyMatrix(correct=np.ones((3, 0), dtype=np.int64),
                           fold_sizes=np.array([], dtype=np.int64), k_max=3, f=0)

    def test_argmax_tie_prefers_smallest_k(self):
        correct = np.array([[1], [2], [1], [1], [1], [1], [2]])
        acc = AccuracyMatrix(correct=correct, fold_sizes=np.array([3]), k_max=7, f=1)
        report = select_k(acc, evaluated_k=range(1, 8))
        assert report.best_k_per_fold == [2]
        # ties between k=3 and k=7 resolve to 3
        correct2 = np.array([[0], [0], [2], [1], [1], [1], [2]])
        acc2 = AccuracyMatrix(correct=correct2, fold_sizes=np.array([3]), k_max=7, f=1)
        assert select_k(acc2).best_k_per_fold == [3]

    def test_identical_best_ks(self):
        acc = AccuracyMatrix(correct=np.array([[2, 2], [1, 1]]),
                             fold_sizes=np.array([2, 2]), k_max=2, f=2)
        assert select_k(acc).k_star == 1

    def test_report_json_fields(self):
        acc = AccuracyMatrix(correct=np.array([[2, 1], [2, 2]]),
                             fold_sizes=np.array([2, 2]), k_max=2, f=2)
        report = select_k(acc)
        payload = json.loads(report.to_json())
        assert set(payload) == {"best_k_per_fold", "k_star", "curve",
                                "evaluated_k", "timing"}
        assert payload["evaluated_k"] == [1, 2]
        assert report.to_json() == json.dumps(dataclasses.asdict(report), indent=2)


class TestCurveExport:
    def test_exact_rows(self, tmp_path):
        acc = AccuracyMatrix(correct=np.array([[2, 1], [2, 2]]),
                             fold_sizes=np.array([2, 2]), k_max=2, f=2)
        report = select_k(acc)
        out = tmp_path / "curve.csv"
        accuracy_curve_export(report, out)
        lines = out.read_text().splitlines()
        assert lines == ["k,mean_accuracy,std_accuracy",
                         "1,0.750000,0.250000",
                         "2,1.000000,0.000000"]

    def test_reexport_identical(self, tmp_path):
        acc = AccuracyMatrix(correct=np.array([[2, 1], [2, 2]]),
                             fold_sizes=np.array([2, 2]), k_max=2, f=2)
        report = select_k(acc)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        accuracy_curve_export(report, a)
        accuracy_curve_export(report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_directory(self, tmp_path):
        acc = AccuracyMatrix(correct=np.array([[1]]), fold_sizes=np.array([1]),
                             k_max=1, f=1)
        with pytest.raises(IoError):
            accuracy_curve_export(select_k(acc), tmp_path / "nope" / "curve.csv")
