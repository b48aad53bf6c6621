"""Fold-masked pairwise distances and row-sorted neighbor lists.

The sorted matrix keeps, per row, only the cross-fold neighbors (the row's
own fold is never a training set). It holds one block of rows that share one
fold size, so every row has the same number of neighbors, built with one
distance pass and one sort pass over all of them.
"""

import time
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import BadParams, DimensionMismatch, InconsistentFolds, InconsistentInputs

METRICS = ("euclidean", "manhattan", "chebyshev")

_CDIST_NAME = {"euclidean": "euclidean", "manhattan": "cityblock", "chebyshev": "chebyshev"}

# per stored entry, at most: float64 distance + int32 source index + label code
ENTRY_BYTES = 16
# Upper bound, per row, of the bytes a build holds per distance column:
# distances, sort keys that become the order, sorted distances, int32
# sources and 1- or 2-byte label codes take 29-30; 40 is kept as a bound
# that holds, since a smaller price would change every plan of sweep.row_blocks
SORT_CELL_BYTES = 40
ROW_OVERHEAD = 16
BASE_OVERHEAD = 256
# Bytes of column features a build gathers at once: its distances are
# computed one tile of columns at a time, so the gather stays in the L2
# cache while every row of the block streams over it
TILE_BYTES = 1 << 20


def check_metric(metric):
    if metric not in METRICS:
        raise BadParams(f"unknown metric {metric!r}; choose from {METRICS}")
    return metric


def distance_matrix(a, b, metric):
    """All pairwise distances between rows of a and rows of b, float64.

    Single shared definition for every code path so that distances compare
    bitwise-equal wherever the same pair of points is involved: one cdist
    call on the calling thread.
    """
    check_metric(metric)
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(f"dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    return cdist(a, b, metric=_CDIST_NAME[metric])


def sort_rows(d):
    """Ascending order of every row of d, equal distances by column index.

    Gives argsort(kind="stable") by sorting uint64 keys by value: a
    distance's bits with its column in the low bits. Non-negative float64
    bits order like the values (NaN after inf), and equal distances fall in
    column order. Rows whose sorted distances decrease (two distances that
    shared their kept bits) or end in a sign bit (a negative value or -0.0
    sorts last) are sorted again, stably, one row at a time, so their
    temporaries stay one row wide. Runs on the calling thread. Returns
    (order, sorted distances).
    """
    d = np.ascontiguousarray(d, dtype=np.float64)
    rows, cols = d.shape
    b = max(cols - 1, 1).bit_length()
    order = np.empty(d.shape, dtype=np.intp)
    sorted_d = np.empty_like(d)
    key = order.view(np.uint64)
    np.right_shift(d.view(np.uint64), b, out=key)
    key <<= b
    key |= np.arange(cols, dtype=np.uint64)
    key.sort(axis=1)
    key &= (1 << b) - 1  # the key buffer now holds the order
    # gather by flat index straight into sorted_d; mode="clip" (every
    # index is in range) keeps take from buffering its output
    offsets = np.arange(rows)[:, None] * cols
    order += offsets
    np.take(d.reshape(-1), order, out=sorted_d, mode="clip")
    order -= offsets
    for r in np.flatnonzero((sorted_d[:, 1:] < sorted_d[:, :-1]).any(axis=1)
                            | np.signbit(sorted_d[:, -1])):
        order[r] = np.argsort(d[r], kind="stable")
        sorted_d[r] = d[r, order[r]]
    return order, sorted_d


def tile_columns(d):
    """Columns of d features in one distance tile of build_sorted_matrix (at least 1)."""
    return max(1, TILE_BYTES // (8 * d))


def label_type(s):
    """Narrowest unsigned type of s class codes (uint8 up to 256, else uint16); it holds
    every code below s rounded up to a power of two, which the vote writes."""
    return np.min_scalar_type(int(s) - 1)


def _row_bytes(m, d):
    """Upper bound of the bytes build_sorted_matrix holds a row of m columns, its pack included."""
    return SORT_CELL_BYTES * m + 8 * d + 128


def _gather_bytes(n, d):
    """Upper bound of the bytes build_sorted_matrix holds whatever its rows:
    the features of one tile of its columns (of up to n, all of them in a
    block that spans folds), and the indices and labels of all its columns."""
    return 8 * d * min(n, tile_columns(d)) + 32 * n


def estimate_footprint(n, f):
    """Bytes the stored neighbour lists of all n rows would take at once.

    Rows in the smallest fold keep the most entries (n minus the smallest
    fold size, with near-equal folds of floor(n/f)), so the bound uses that
    worst case for every row. Nothing in the package builds all n rows at
    once; this stays only because perfbench/child.py reads it.
    """
    per_row = n - (n // f)
    return n * per_row * ENTRY_BYTES + n * ROW_OVERHEAD + BASE_OVERHEAD


@dataclass(frozen=True)
class SortedDistanceMatrix:
    """Per-row ascending (distance, label, source) neighbor lists.

    Row j holds the neighbours of dataset row rows[j]. distances/labels/
    sources are (n, m) arrays, m = dataset size - the rows' fold size, at
    least the folds' k_max, the depth sweep reads. labels are codes of
    label_type(s), the type a LabelPanel holds; sources are int32.
    """

    distances: np.ndarray
    labels: np.ndarray
    sources: np.ndarray
    n: int
    f: int
    build_seconds: dict
    rows: np.ndarray

    def __post_init__(self):
        for arr in (self.distances, self.labels, self.sources, self.rows):
            arr.setflags(write=False)

    @property
    def valid_len(self):
        """(n,) count of neighbours per row, all equal to distances.shape[1]."""
        return np.full(self.n, self.distances.shape[1])


def build_sorted_matrix(dataset, folds, metric="euclidean", *, rows):
    """Sort the cross-fold neighbours of `rows` ascending.

    The rows must be distinct and share one fold size (every block of
    sweep.row_blocks does), else InconsistentInputs. Same-fold pairs and the
    diagonal are dropped entirely. Ties on distance are broken by source
    index ascending, which makes every row fully deterministic. One
    distance matrix and one sort_rows call serve all the rows: rows of one
    fold take distances to that fold's complement; rows of several folds
    take all n columns, with their own fold's cells set to NaN, which sorts
    last, and keep their first n - fold size entries. Records wall-clock of
    the distance and sort phases (the label gather included) in
    build_seconds. The build holds up to _row_bytes a row and _gather_bytes
    besides, the features of one tile of tile_columns(d) columns at a time
    among them; sweep.row_blocks sizes the rows to fit a budget.
    """
    check_metric(metric)
    n = dataset.n
    if folds.n != n:
        raise InconsistentFolds(f"folds cover {folds.n} rows, dataset has {n}")
    fold_of = folds.fold_of
    rows = np.array(rows, dtype=np.intp)
    if (rows.ndim != 1 or rows.size == 0 or rows.min() < 0 or rows.max() >= n
            or np.unique(rows).size != rows.size):
        raise InconsistentInputs(f"rows must be a non-empty list of distinct indices below {n}")
    row_folds = fold_of[rows]
    sizes = folds.fold_sizes[row_folds]
    if np.any(sizes != sizes[0]):
        raise InconsistentInputs("rows must all lie in folds of one size")
    m = n - int(sizes[0])

    one_fold = bool((row_folds == row_folds[0]).all())
    # ascending columns: ties by column == ties by source index
    cols = np.flatnonzero(fold_of != row_folds[0]) if one_fold else np.arange(n)

    t0 = time.perf_counter()
    features, tile = dataset.features, tile_columns(dataset.d)
    if tile >= cols.size:
        dist = distance_matrix(features[rows], features[cols], metric)
    else:  # each pair's value is cdist's, so the tiles equal one call bit for bit
        block, dist = features[rows], np.empty((rows.size, cols.size))
        for j in range(0, cols.size, tile):
            dist[:, j:j + tile] = distance_matrix(block, features[cols[j:j + tile]], metric)
    t1 = time.perf_counter()
    if not one_fold:  # own-fold cells sort after every distance, inf included
        dist[fold_of == row_folds[:, None]] = np.nan
    order, distances = sort_rows(dist)
    del dist
    order, distances = order[:, :m], distances[:, :m]
    # both gathers index by the intp order, not by an int32 copy of it
    sources = cols.astype(np.int32)[order]
    labels = dataset.labels[cols].astype(label_type(dataset.s))[order]
    del order
    t_sort = time.perf_counter() - t1

    return SortedDistanceMatrix(
        distances=distances, labels=labels, sources=sources, n=rows.size, f=folds.f,
        build_seconds={"distance": t1 - t0, "sort": t_sort}, rows=rows,
    )
