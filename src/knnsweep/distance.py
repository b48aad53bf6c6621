"""Fold-masked pairwise distances and row-sorted neighbor lists.

The sorted matrix keeps, per row, only the cross-fold neighbors (the row's
own fold is never a training set). It holds every row or one block of rows,
built with one distance pass and one sort pass over all of them. When the
rows' valid lengths differ, rows are left-aligned and padded to the longest;
padding cells carry +inf distance and -1 label/source.
"""

import time
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import (
    DimensionMismatch,
    InconsistentFolds,
    InconsistentInputs,
    MemoryBudgetExceeded,
)

METRICS = ("euclidean", "manhattan", "chebyshev")

_CDIST_NAME = {"euclidean": "euclidean", "manhattan": "cityblock", "chebyshev": "chebyshev"}

# per stored entry: float64 distance + int32 label + int32 source index
ENTRY_BYTES = 16
# Upper bound, per row, of the bytes a build holds per distance column
# (distances, two sort orders and the sorted distances; tied rows add a
# re-sorted copy)
SORT_CELL_BYTES = 40
# small allocations outside the arrays a budget sizes (a build traces 6-11 KiB)
FIXED_BYTES = 1 << 16
ROW_OVERHEAD = 16
BASE_OVERHEAD = 256

DEFAULT_MEMORY_BUDGET = 4 << 30  # 4 GiB


def check_metric(metric):
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    return metric


def distance_matrix(a, b, metric):
    """All pairwise distances between rows of a and rows of b, float64.

    Single shared definition for every code path so that distances compare
    bitwise-equal wherever the same pair of points is involved.
    """
    check_metric(metric)
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(f"dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    return cdist(a, b, metric=_CDIST_NAME[metric])


def pairwise_distance(a, b, metric="euclidean"):
    """Distance between two feature vectors under the chosen metric."""
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    return float(distance_matrix(a[None, :], b[None, :], metric)[0, 0])


def sort_rows(d):
    """Ascending order of every row of d, equal distances by column index.

    Gives the result of argsort(kind="stable") but runs the faster unstable
    sort first; only the rows where it put an equal distance's larger column
    first are sorted again, stably. Returns (order, sorted distances).
    """
    order = np.argsort(d, axis=1)
    sorted_d = np.take_along_axis(d, order, axis=1)
    wrong = sorted_d[:, 1:] == sorted_d[:, :-1]
    wrong &= order[:, 1:] < order[:, :-1]
    redo = np.flatnonzero(wrong.any(axis=1))
    del wrong
    if redo.size:
        order[redo] = np.argsort(d[redo], axis=1, kind="stable")
    return order, sorted_d


def estimate_footprint(n, f):
    """Bytes needed for the sorted matrix.

    Rows in the smallest fold keep the most entries (n minus the smallest
    fold size, with near-equal folds of floor(n/f)), so the bound uses that
    worst case for every row.
    """
    per_row = n - (n // f)
    return n * per_row * ENTRY_BYTES + n * ROW_OVERHEAD + BASE_OVERHEAD


@dataclass(frozen=True)
class SortedDistanceMatrix:
    """Per-row ascending (distance, label, source) neighbor lists.

    Row j holds the neighbours of dataset row rows[j] (row j itself when rows
    is None: a matrix of every row). distances/labels/sources are (n, max_len)
    with rows padded past valid_len[j]; k_max = dataset size - max fold size
    is the depth usable by every row.
    """

    distances: np.ndarray
    labels: np.ndarray
    sources: np.ndarray
    valid_len: np.ndarray
    k_max: int
    n: int
    f: int
    build_seconds: dict
    rows: np.ndarray = None

    def __post_init__(self):
        if self.rows is None:
            object.__setattr__(self, "rows", np.arange(self.n))
        for arr in (self.distances, self.labels, self.sources, self.valid_len, self.rows):
            arr.setflags(write=False)

    def row(self, r):
        """Valid entries of row r as (distances, labels, sources)."""
        m = int(self.valid_len[r])
        return self.distances[r, :m], self.labels[r, :m], self.sources[r, :m]


def build_sorted_matrix(dataset, folds, metric="euclidean",
                        memory_budget=DEFAULT_MEMORY_BUDGET, rows=None):
    """Sort the cross-fold neighbours of `rows` (every row by default) ascending.

    Same-fold pairs and the diagonal are dropped entirely. Ties on distance
    are broken by source index ascending, which makes every row fully
    deterministic. One distance_matrix and one sort_rows call serve all the
    rows: rows of one fold take distances to that fold's complement; rows of
    several folds take all n columns, and after the sort each row drops its
    own fold's entries (a filter keeps the sorted order). Only when the
    rows' lengths differ are the kept entries left-aligned into padded
    arrays. Records wall-clock of the distance and sort phases in
    build_seconds. Raises MemoryBudgetExceeded when the working memory
    (SORT_CELL_BYTES per distance cell, the gathered feature rows and
    columns, FIXED_BYTES) exceeds memory_budget.
    """
    check_metric(metric)
    n = dataset.n
    if folds.n != n:
        raise InconsistentFolds(f"folds cover {folds.n} rows, dataset has {n}")
    fold_of = folds.fold_of
    if rows is None:
        rows = np.arange(n)
    else:
        rows = np.array(rows, dtype=np.intp)
        if rows.ndim != 1 or rows.size == 0 or rows.min() < 0 or rows.max() >= n:
            raise InconsistentInputs(f"rows must be a non-empty list of indices below {n}")
    row_folds = fold_of[rows]
    valid_len = n - folds.fold_sizes[row_folds]
    shape = (rows.size, int(valid_len.max()))
    padded = valid_len.min() < shape[1]

    one_fold = bool((row_folds == row_folds[0]).all())
    # ascending columns: ties by column == ties by source index
    cols = np.flatnonzero(fold_of != row_folds[0]) if one_fold else np.arange(n)
    required = (rows.size * (cols.size * SORT_CELL_BYTES + ROW_OVERHEAD)
                + 8 * dataset.d * (rows.size + cols.size) + FIXED_BYTES)
    if required > memory_budget:
        raise MemoryBudgetExceeded(required, memory_budget)

    t0 = time.perf_counter()
    dist = distance_matrix(dataset.features[rows], dataset.features[cols], metric)
    t1 = time.perf_counter()
    order, distances = sort_rows(dist)
    del dist
    if one_fold:
        sources = cols.astype(np.int32)[order]
    else:
        keep = fold_of[order] != row_folds[:, None]
        sources, distances = order[keep].astype(np.int32), distances[keep]
        del keep
    del order
    if padded:  # left-align each row's kept entries
        fill = np.arange(shape[1]) < valid_len[:, None]
        kept = sources, distances
        sources, distances = np.full(shape, -1, dtype=np.int32), np.full(shape, np.inf)
        sources[fill], distances[fill] = kept
        del kept
    else:
        sources, distances = sources.reshape(shape), distances.reshape(shape)
    t_sort = time.perf_counter() - t1
    labels = dataset.labels.astype(np.int32)[sources]
    if padded:
        labels[~fill] = -1

    return SortedDistanceMatrix(
        distances=distances, labels=labels, sources=sources,
        valid_len=valid_len, k_max=folds.k_max, n=rows.size, f=folds.f,
        build_seconds={"distance": t1 - t0, "sort": t_sort}, rows=rows,
    )
