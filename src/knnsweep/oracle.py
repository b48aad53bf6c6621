"""Conventional brute-force kNN cross-validation: the slow path.

This is the correctness oracle the sweep is checked against and the timing
baseline it is benchmarked against. It deliberately recomputes distances per
fold and, in full mode, redoes the neighbor scan for every k. Tie rules
(distance ties by training-row index, vote ties by policy) are shared with
the sweep so exact integer agreement is well-defined.
"""

import time
from dataclasses import dataclass

import numpy as np

from .distance import check_metric, distance_matrix
from .errors import BadParams, DimensionMismatch, KTooLarge
from .sweep import AccuracyMatrix, check_policy, classify_at_k, select_k


@dataclass(frozen=True)
class KSchedule:
    """Ascending distinct k values to evaluate, at least one, all >= 1."""

    values: tuple

    def __post_init__(self):
        vals = list(self.values)
        if not vals or vals[0] < 1 or vals != sorted(set(vals)):
            raise BadParams("a schedule must be non-empty, strictly ascending k >= 1")


def full_schedule(k_max):
    return KSchedule(values=tuple(range(1, k_max + 1)))


def logarithmic_schedule(k_max):
    """Sparse k set: 1..8, 10, every multiple of 100, plus k_max itself."""
    vals = set(range(1, 9)) | {10} | set(range(100, k_max + 1, 100)) | {k_max}
    vals = sorted(v for v in vals if 1 <= v <= k_max)
    return KSchedule(values=tuple(vals))


def knn_classify(train_features, train_labels, query, k,
                 metric="euclidean", policy="smallest_code"):
    """Brute-force kNN prediction for a single query vector."""
    check_metric(metric)
    check_policy(policy)
    train_features = np.asarray(train_features, dtype=np.float64)
    train_labels = np.asarray(train_labels)
    query = np.atleast_1d(np.asarray(query, dtype=np.float64))
    m = train_features.shape[0]
    if k < 1:
        raise BadParams(f"k must be >= 1, got {k}")
    if k > m:
        raise KTooLarge(f"k={k} exceeds {m} training rows")
    if query.shape[0] != train_features.shape[1]:
        raise DimensionMismatch(
            f"query has {query.shape[0]} dims, training data {train_features.shape[1]}")

    d = distance_matrix(query[None, :], train_features, metric)[0]
    order = np.argsort(d, kind="stable")  # distance ties -> lower index
    s = int(train_labels.max()) + 1
    return int(_predict(train_labels[order][None], d[order][None], k, s, policy)[0])


class FoldDistanceCache:
    """Per-fold sorted test-to-train neighbors, reusable across k values.

    Exists so unit tests can evaluate many k without re-sorting; outputs are
    identical to the uncached path.
    """

    def __init__(self, dataset, folds, metric):
        self.folds_data = [
            _fold_neighbors(dataset, folds, i, metric) for i in range(folds.f)
        ]


def _fold_neighbors(dataset, folds, i, metric):
    """Sorted neighbor labels/distances of fold i's rows vs the rest."""
    test_rows = np.flatnonzero(folds.fold_of == i)
    train_rows = np.flatnonzero(folds.fold_of != i)  # ascending original index
    d = distance_matrix(dataset.features[test_rows], dataset.features[train_rows], metric)
    order = np.argsort(d, axis=1, kind="stable")  # ties -> lower original index
    labels_sorted = dataset.labels[train_rows][order]
    dists_sorted = np.take_along_axis(d, order, axis=1)
    return test_rows, labels_sorted, dists_sorted


def _predict(labels_sorted, dists_sorted, k, s, policy):
    """Majority vote of each query row over its first k sorted neighbours, from scratch."""
    q = labels_sorted.shape[0]
    counts = np.zeros((q, s), dtype=np.int64)
    shadow = np.zeros((q, s), dtype=np.float64)
    idx = np.arange(q)[:, None]
    # column-ascending accumulation matches the sweep's addition order
    np.add.at(counts, (idx, labels_sorted[:, :k]), 1)
    with np.errstate(over="ignore"):  # sums of huge distances overflow to inf
        np.add.at(shadow, (idx, labels_sorted[:, :k]), dists_sorted[:, :k])
    return classify_at_k(counts, shadow, policy)


def cross_validate(dataset, folds, k, metric="euclidean",
                   policy="smallest_code", cache=None):
    """Per-fold correct counts of conventional kNN cross-validation at one k.

    Without a cache every fold recomputes its distances from scratch (the
    cost profile being benchmarked); a FoldDistanceCache changes only speed.
    """
    check_metric(metric)
    check_policy(policy)
    if k < 1:
        raise BadParams(f"k must be >= 1, got {k}")
    if k > folds.k_max:
        raise KTooLarge(f"k={k} exceeds k_max={folds.k_max}")

    correct = np.zeros(folds.f, dtype=np.int64)
    for i in range(folds.f):
        if cache is not None:
            test_rows, labels_sorted, dists_sorted = cache.folds_data[i]
        else:
            test_rows, labels_sorted, dists_sorted = _fold_neighbors(dataset, folds, i, metric)
        pred = _predict(labels_sorted, dists_sorted, k, dataset.s, policy)
        correct[i] = np.count_nonzero(pred == dataset.labels[test_rows])
    return correct


def naive_search(dataset, folds, schedule, metric="euclidean",
                 policy="smallest_code"):
    """Run cross_validate over a whole schedule and assemble a report.

    Best-k selection follows the same rules as the sweep's select_k,
    restricted to the scheduled k values.
    """
    t0 = time.perf_counter()
    rows = [cross_validate(dataset, folds, k, metric, policy)
            for k in schedule.values]
    elapsed = time.perf_counter() - t0

    acc = AccuracyMatrix(correct=np.vstack(rows), fold_sizes=folds.fold_sizes.copy(),
                         k_max=folds.k_max, f=folds.f)
    return select_k(acc, evaluated_k=schedule.values, timing={"total": elapsed})
