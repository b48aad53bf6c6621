"""Fold-masked pairwise distances and row-sorted neighbor lists.

The sorted matrix keeps, per row, only the cross-fold neighbors (the row's
own fold is never a training set, so those cells would only ever hold an
infinity sentinel). It holds every row or one block of rows. Rows are stored
padded to the longest valid length; padding cells carry +inf distance and
-1 label/source.
"""

import struct
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
_METRIC_CODE = {"euclidean": 0, "manhattan": 1, "chebyshev": 2}

# per stored entry: float64 distance + int32 label + int32 source index
ENTRY_BYTES = 16
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
    metric: str
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
    deterministic. Rows of one fold size are built together: rows of one
    fold against that fold's complement; rows of several folds against all
    n columns, after which each row drops its own fold's entries (a filter
    keeps the sorted order, and every row drops the same number). Records
    wall-clock of the distance and sort phases in build_seconds.
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
    max_len = int(valid_len.max())

    required = rows.size * (max_len * ENTRY_BYTES + ROW_OVERHEAD) + BASE_OVERHEAD
    if required > memory_budget:
        raise MemoryBudgetExceeded(required, memory_budget)

    features = dataset.features
    all_labels = dataset.labels.astype(np.int32)
    lengths = np.unique(valid_len)
    if lengths.size > 1:
        distances = np.full((rows.size, max_len), np.inf, dtype=np.float64)
        sources = np.full((rows.size, max_len), -1, dtype=np.int32)
    t_dist = t_sort = 0.0
    for m in lengths:
        sel = np.flatnonzero(valid_len == m)
        group, group_folds = rows[sel], row_folds[sel]
        t0 = time.perf_counter()
        one_fold = bool((group_folds == group_folds[0]).all())
        # ascending columns: ties by column == ties by source index
        cols = np.flatnonzero(fold_of != group_folds[0]) if one_fold else np.arange(n)
        dist = distance_matrix(features[group], features[cols], metric)
        t1 = time.perf_counter()
        order, sorted_d = sort_rows(dist)
        del dist
        if one_fold:
            src = cols.astype(np.int32)[order]
        else:
            keep = fold_of[order] != group_folds[:, None]
            src = order[keep].astype(np.int32).reshape(sel.size, m)
            sorted_d = sorted_d[keep].reshape(sel.size, m)
            del keep
        del order
        if lengths.size > 1:
            distances[sel, :m] = sorted_d
            sources[sel, :m] = src
        else:
            distances, sources = sorted_d, src
        del sorted_d, src
        t_dist += t1 - t0
        t_sort += time.perf_counter() - t1
    labels = all_labels[sources]
    if lengths.size > 1:
        labels[sources < 0] = -1

    return SortedDistanceMatrix(
        distances=distances, labels=labels, sources=sources,
        valid_len=valid_len, k_max=folds.k_max, n=rows.size, f=folds.f, metric=metric,
        build_seconds={"distance": t_dist, "sort": t_sort}, rows=rows,
    )


def dump_matrix(matrix, path):
    """Binary debug dump, little-endian.

    Layout: magic b'SDMX', u32 version=1, u64 n, u64 f, u64 k_max,
    u8 metric code; then per row: u64 valid_len followed by valid_len
    entries of (f64 distance, i32 label, i32 source).
    """
    with open(path, "wb") as fh:
        fh.write(b"SDMX")
        fh.write(struct.pack("<IQQQB", 1, matrix.n, matrix.f,
                             matrix.k_max, _METRIC_CODE[matrix.metric]))
        for r in range(matrix.n):
            d, lab, src = matrix.row(r)
            fh.write(struct.pack("<Q", d.size))
            fh.write(np.rec.fromarrays(
                [d, lab.astype("<i4"), src.astype("<i4")],
                dtype=[("d", "<f8"), ("l", "<i4"), ("s", "<i4")]).tobytes())


def load_matrix_dump(path):
    """Read back a dump_matrix file; returns a dict of raw fields."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != b"SDMX":
            raise ValueError(f"bad magic {magic!r}")
        version, n, f, k_max, mcode = struct.unpack("<IQQQB", fh.read(29))
        if version != 1:
            raise ValueError(f"unsupported version {version}")
        metric = {v: k for k, v in _METRIC_CODE.items()}[mcode]
        rows = []
        for _ in range(n):
            (m,) = struct.unpack("<Q", fh.read(8))
            rec = np.frombuffer(fh.read(m * ENTRY_BYTES),
                                dtype=[("d", "<f8"), ("l", "<i4"), ("s", "<i4")])
            rows.append((rec["d"].copy(), rec["l"].copy(), rec["s"].copy()))
    return {"n": n, "f": f, "k_max": k_max, "metric": metric, "rows": rows}
