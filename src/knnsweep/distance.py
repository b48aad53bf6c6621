"""Fold-masked pairwise distances and row-sorted neighbor lists.

The sorted matrix keeps, per row, only the cross-fold neighbors (the row's
own fold is never a training set). It holds one block of rows that share one
fold size, so every row has the same number of neighbors, built with one
distance pass and one sort pass over all of them.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor
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

# Work, in element operations, below which a call runs on the calling thread:
# cdist does rows·cols·d, a sort about rows·cols·log2(cols). A pool costs
# more than it saves on a d=4 block cdist (4.6e6 operations; on a 2-CPU x86
# VM 3.8 ms on one thread, 4.7 ms on two) and pays on a 240 x 4800 sort
# (1.5e7; 32 ms on one thread, 17 ms on two).
PARALLEL_WORK = 1 << 23
# Row chunks per worker. Only `workers` chunks run at once, so their sort
# temporaries (up to 16 B per cell of a chunk) cover at most about a quarter
# of the rows, and a sort stays inside SORT_CELL_BYTES.
CHUNKS_PER_WORKER = 4


def check_metric(metric):
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    return metric


def _worker_count():
    """CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _over_row_chunks(rows, work, task):
    """Call task(lo, hi) on contiguous row ranges that cover range(rows).

    Below PARALLEL_WORK, or with fewer than CHUNKS_PER_WORKER rows per
    worker, that is one call on this thread. Otherwise the rows are cut into
    CHUNKS_PER_WORKER chunks per worker, one worker per usable CPU, and the
    chunks run on a thread pool; a task's exception is raised here.
    """
    workers = min(_worker_count(), rows // CHUNKS_PER_WORKER)
    if work < PARALLEL_WORK or workers < 2:
        task(0, rows)
        return
    chunks = workers * CHUNKS_PER_WORKER
    bounds = [rows * i // chunks for i in range(chunks + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        for future in futures:
            future.result()


def distance_matrix(a, b, metric):
    """All pairwise distances between rows of a and rows of b, float64.

    Single shared definition for every code path so that distances compare
    bitwise-equal wherever the same pair of points is involved. Large calls
    split a's rows into contiguous chunks run on a thread pool; each chunk's
    cdist writes its rows of the one result, so every pair is still computed
    by one cdist call and the result does not depend on the chunking.
    """
    check_metric(metric)
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(f"dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    out = np.empty((a.shape[0], b.shape[0]))
    name = _CDIST_NAME[metric]

    def chunk(lo, hi):
        cdist(a[lo:hi], b, metric=name, out=out[lo:hi])

    _over_row_chunks(a.shape[0], out.size * a.shape[1], chunk)
    return out


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
    first are sorted again, stably. Large calls split the rows into
    contiguous chunks run on a thread pool; each chunk sorts, checks and
    re-sorts its own rows and writes its slice of the two results, so no row
    depends on the chunking. Returns (order, sorted distances).
    """
    d = np.ascontiguousarray(d)
    rows, cols = d.shape
    order = np.empty(d.shape, dtype=np.intp)
    sorted_d = np.empty_like(d)

    def chunk(lo, hi):
        part_d, part = d[lo:hi], order[lo:hi]
        unstable = np.argsort(part_d, axis=1)
        # gather by flat index straight into sorted_d; mode="clip" (every
        # index is in range) keeps take from buffering its output
        offsets = np.arange(hi - lo)[:, None] * cols
        unstable += offsets
        np.take(part_d.reshape(-1), unstable, out=sorted_d[lo:hi], mode="clip")
        np.subtract(unstable, offsets, out=part)
        del unstable
        wrong = sorted_d[lo:hi, 1:] == sorted_d[lo:hi, :-1]
        wrong &= part[:, 1:] < part[:, :-1]
        redo = np.flatnonzero(wrong.any(axis=1))
        del wrong
        if redo.size:
            part[redo] = np.argsort(part_d[redo], axis=1, kind="stable")

    _over_row_chunks(rows, d.size * cols.bit_length(), chunk)
    return order, sorted_d


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
    sources are (n, m) arrays, m = dataset size - the rows' fold size;
    k_max = dataset size - max fold size is the depth usable by every row.
    """

    distances: np.ndarray
    labels: np.ndarray
    sources: np.ndarray
    k_max: int
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


def build_sorted_matrix(dataset, folds, metric="euclidean",
                        memory_budget=DEFAULT_MEMORY_BUDGET, *, rows):
    """Sort the cross-fold neighbours of `rows` ascending.

    The rows must share one fold size (every block of sweep.row_blocks
    does), else InconsistentInputs. Same-fold pairs and the diagonal are
    dropped entirely. Ties on distance are broken by source index ascending,
    which makes every row fully deterministic. One distance_matrix and one
    sort_rows call serve all the rows: rows of one fold take distances to
    that fold's complement; rows of several folds take all n columns, and
    after the sort each row drops its own fold's entries (a filter keeps the
    sorted order). Records wall-clock of the distance and sort phases in
    build_seconds. Raises MemoryBudgetExceeded when the working memory
    (SORT_CELL_BYTES per distance cell, the gathered feature rows and
    columns, FIXED_BYTES) exceeds memory_budget.
    """
    check_metric(metric)
    n = dataset.n
    if folds.n != n:
        raise InconsistentFolds(f"folds cover {folds.n} rows, dataset has {n}")
    fold_of = folds.fold_of
    rows = np.array(rows, dtype=np.intp)
    if rows.ndim != 1 or rows.size == 0 or rows.min() < 0 or rows.max() >= n:
        raise InconsistentInputs(f"rows must be a non-empty list of indices below {n}")
    row_folds = fold_of[rows]
    sizes = folds.fold_sizes[row_folds]
    if np.any(sizes != sizes[0]):
        raise InconsistentInputs("rows must all lie in folds of one size")
    shape = (rows.size, n - int(sizes[0]))

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
    sources, distances = sources.reshape(shape), distances.reshape(shape)
    t_sort = time.perf_counter() - t1
    labels = dataset.labels.astype(np.int32)[sources]

    return SortedDistanceMatrix(
        distances=distances, labels=labels, sources=sources,
        k_max=folds.k_max, n=rows.size, f=folds.f,
        build_seconds={"distance": t1 - t0, "sort": t_sort}, rows=rows,
    )
