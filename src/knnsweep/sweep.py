"""Accuracy for every k at once from ascending cross-fold neighbor lists.

Per-row class counters (and a shadow of summed distances for tie-breaking)
are grown one neighbor at a time; after each depth k the prediction for every
row is compared against ground truth and tallied per fold. Counters are never
reset, so the whole 1..k_max range costs one traversal of each row's list.
row_blocks cuts the rows into blocks whose lists fit a memory budget, so
the lists of all rows never have to exist at once.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .distance import SORT_CELL_BYTES
from .errors import (
    BadParams,
    EmptyNeighborhood,
    InconsistentFolds,
    InconsistentInputs,
    IoError,
    MemoryBudgetExceeded,
)

TIE_POLICIES = ("smallest_code", "shadow_min")

DEFAULT_MEMORY_BUDGET = 4 << 30  # 4 GiB
# small allocations outside the arrays a budget sizes: a build traces 6-11
# KiB, and select_k's in-place broadcast ops hold one numpy ufunc buffer of
# up to 64 KiB once the last block is freed
FIXED_BYTES = 1 << 16
# Per k, the Python objects select_k builds: a curve point (a dict, an int
# and two floats) and the list slots and floats around it. Beyond the tally
# and its float64 chunk, tracemalloc measured 290-320 bytes per k at k_max =
# 999 to 5999 (numpy 2.4, Python 3.11).
CURVE_POINT_BYTES = 512
SELECT_CHUNK_BYTES = 1 << 20  # select_k's float64 copy of some tally rows (one row at least)

# Cap on one block's charge (_row_bytes), 240 rows at n=6000: wider blocks pay
# the per-k Python loop less often but raise peak RSS (perfbench bounds it at 10 %).
BLOCK_BYTES = 48 << 20


def check_policy(policy):
    if policy not in TIE_POLICIES:
        raise BadParams(f"unknown tie policy {policy!r}; choose from {TIE_POLICIES}")
    return policy


def classify_at_k(counts, shadow, policy="smallest_code"):
    """Predicted class from counting and shadow rows of shape (..., s).

    Argmax of counts; ties go to the smallest class code, or under
    shadow_min to the tied class with the smallest summed distance
    (further ties again to the smallest code). Returns an int for one row,
    else an array of shape (...); an all-zero counts row raises
    EmptyNeighborhood.
    """
    check_policy(policy)
    counts = np.asarray(counts)
    if not counts.any(axis=-1).all():
        raise EmptyNeighborhood("all-zero counts row")
    if policy == "smallest_code":
        pred = np.argmax(counts, axis=-1)
    else:
        tied = counts == counts.max(axis=-1, keepdims=True)
        shadow = np.where(tied, np.asarray(shadow, dtype=np.float64), np.inf)
        # not argmin: if the tied sums overflowed to inf, it would pick class 0
        pred = np.argmax(tied & (shadow == shadow.min(axis=-1, keepdims=True)), axis=-1)
    return int(pred) if pred.ndim == 0 else pred


@dataclass(frozen=True)
class AccuracyMatrix:
    """correct[k-1][i] = correct classifications of fold i at depth k (any layout)."""

    correct: np.ndarray
    fold_sizes: np.ndarray
    k_max: int
    f: int

    def __post_init__(self):
        if (self.f < 1 or self.correct.shape[1:] != (self.f,) or len(self.correct) < 1
                or np.shape(self.fold_sizes) != (self.f,)):
            raise InconsistentInputs(f"tally of shape {self.correct.shape} or fold sizes of shape "
                                     f"{np.shape(self.fold_sizes)} do not have k >= 1 rows "
                                     f"and f={self.f} >= 1 folds")
        self.correct.setflags(write=False)

    def per_fold_accuracy(self, rows=slice(None)):
        """C-ordered float64 accuracies of correct[rows], fold sizes as denominators."""
        # cast first: a mixed-type divide holds two cast buffers (128 KiB)
        per_fold = self.correct[rows].astype(np.float64, order="C")
        per_fold /= self.fold_sizes.astype(np.float64)
        return per_fold


@dataclass(frozen=True)
class KSearchReport:
    best_k_per_fold: list
    k_star: int
    curve: list  # [{"k", "mean_accuracy", "std_accuracy"}, ...]
    evaluated_k: list
    timing: dict = field(default_factory=dict)

    def to_json(self, indent=2):
        return json.dumps(vars(self), indent=indent)


def sweep(matrix, folds, truth, policy="smallest_code", correct=None):
    """Tally hits at every k = 1..folds.k_max over the rows of one sorted block.

    Row j's k-th nearest cross-fold neighbor is its vote at depth k. The
    block must hold a row, each row n - its fold size neighbours (at least
    k_max), and the rows of one fold must be contiguous in the block (as in
    every block of row_blocks), else InconsistentInputs. Hits are added per fold into
    `correct`, a (k_max, f) integer tally of any layout that holds the
    largest fold (a new zeroed F-ordered one of tally_type by default),
    else InconsistentInputs: sweeping every block of row_blocks into one
    tally gives the whole accuracy matrix with one block's lists in memory.
    Returns a read-only AccuracyMatrix view of the tally.
    """
    check_policy(policy)
    truth = np.asarray(truth)
    rows = matrix.rows
    if rows.size == 0:
        raise InconsistentInputs("the block holds no rows")
    if truth.shape[0] != folds.n or rows.max() >= folds.n:
        raise InconsistentInputs(
            f"sizes disagree: matrix rows up to {rows.max()}, folds n={folds.n}, "
            f"truth n={truth.shape[0]}")
    row_folds = folds.fold_of[rows]
    if np.any(folds.fold_sizes[row_folds] != folds.n - matrix.distances.shape[1]):
        raise InconsistentInputs("matrix row lengths disagree with the folds")
    if np.count_nonzero(np.diff(row_folds)) + 1 != np.unique(row_folds).size:
        raise InconsistentInputs("the rows of one fold are not contiguous in the block")
    k_max = folds.k_max
    if correct is None:
        correct = np.zeros((k_max, folds.f), dtype=tally_type(folds), order="F")
    elif correct.shape != (k_max, folds.f):
        raise InconsistentInputs(f"tally shape {correct.shape} is not {(k_max, folds.f)}")
    elif not (np.issubdtype(correct.dtype, np.integer)
              and np.iinfo(correct.dtype).max >= folds.fold_sizes.max()):
        raise InconsistentInputs(f"a {correct.dtype} tally cannot count {folds.fold_sizes.max()} rows")

    labels = matrix.labels[:, :k_max]
    s = int(max(truth.max(), labels.max())) + 1
    votes = np.ascontiguousarray(labels.T, dtype=np.int64)
    with np.errstate(over="ignore"):  # shadow sums may overflow to inf, as the oracle's do
        _accumulate(correct, votes, matrix.distances.T, truth[rows], row_folds, s, policy)
    return AccuracyMatrix(correct=correct.view(), fold_sizes=folds.fold_sizes.copy(),
                          k_max=k_max, f=folds.f)


def tally_type(folds):
    """Narrowest signed integer type that counts the largest fold (int8 for LOOCV)."""
    return np.min_scalar_type(-int(folds.fold_sizes.max()) - 1)


def dataset_bytes(n, d):
    """Charge for the features and labels and their copies around the run."""
    return 16 * n * d + 64 * n


def row_blocks(dataset, folds, memory_budget=DEFAULT_MEMORY_BUDGET):
    """Iterator of row index blocks for a blocked sweep, each sized to fit memory_budget.

    The only place a run's memory is priced. The budget bounds the tally
    (tally_type), select_k's float64 chunk of it and its curve, copies of
    the features (dataset_bytes) and one block's build and sweep (see
    _row_bytes); a block is further capped at BLOCK_BYTES. Blocks follow
    _row_blocks, so each one holds rows of one fold size. Raises
    MemoryBudgetExceeded only when one row does not fit.
    """
    n, d, s, f = dataset.n, dataset.d, dataset.s, folds.f
    if folds.n != n:
        raise InconsistentFolds(f"folds cover {folds.n} rows, dataset has {n}")
    k_max = folds.k_max
    chunk = min(8 * k_max * f, max(SELECT_CHUNK_BYTES, 8 * f))  # one select_k float64 chunk
    fixed = (tally_type(folds).itemsize * k_max * f + chunk + CURVE_POINT_BYTES * k_max
             + dataset_bytes(n, d) + FIXED_BYTES)
    required = fixed + _row_bytes(n - int(folds.fold_sizes.min()), d, s)
    if required > memory_budget:
        raise MemoryBudgetExceeded(required, memory_budget)
    cap = min(BLOCK_BYTES, memory_budget - fixed)
    # the check above lets one row always fit; blocks are made as they are
    # used, as a list of n one-row blocks would outgrow the budget
    return _row_blocks(folds, lambda m: max(1, cap // _row_bytes(m, d, s)))


def _row_bytes(m, d, s):
    """Upper bound of the bytes a block's build holds per row with m columns.

    The vote phase (the stored lists plus votes, hits and the per-fold
    sums, k_max <= m) fits in the same SORT_CELL_BYTES a column.
    """
    return SORT_CELL_BYTES * m + 8 * d + 32 * s + 128


def _row_blocks(folds, rows_per_block):
    """Row index blocks in (fold size, fold, index) order, one fold size each.

    rows_per_block(m) is the block row cap with m columns. A fold that fills
    at least half a fold-spanning block is cut into near-equal blocks of its
    own rows; smaller folds are packed into blocks that span folds.
    """
    fold_of, sizes = folds.fold_of, folds.fold_sizes
    order = np.lexsort((fold_of, sizes[fold_of]))  # stable: index order kept
    row_size = sizes[fold_of[order]]
    span = rows_per_block(folds.n)
    for group in np.split(order, np.flatnonzero(np.diff(row_size)) + 1):
        fs = int(sizes[fold_of[group[0]]])
        if 2 * fs < span:
            for lo in range(0, group.size, span):
                yield group[lo:lo + span]
        else:
            pieces = -(-fs // rows_per_block(folds.n - fs))
            for fold_rows in np.split(group, group.size // fs):
                yield from np.array_split(fold_rows, pieces)


def _accumulate(correct, votes, dists, truth, block_folds, s, policy):
    """Add one row block's hits at every depth k into correct[k-1, fold].

    votes[k-1, j] is the label of block row j's k-th nearest neighbour and
    dists[k-1, j] its distance (read only under shadow_min): a (k_max, B)
    int64 array, overwritten with the leaders, and a float64 view of at
    least k_max rows. Rows of one fold must be contiguous in the block.

    Only the incoming label's counter changes at depth k, so the leader is
    kept or replaced by that label: O(1) work per vote. Shadow sums add
    distances in ascending-neighbour order, as the oracle does, so the
    comparisons are exact.
    """
    k_max, b = votes.shape
    base = np.arange(b, dtype=np.int64) * s
    votes += base  # flat counter index row * s + label
    if policy == "smallest_code":
        # key = count * s + (s - 1 - label): the leader has the largest key
        keys = np.tile(np.arange(s - 1, -1, -1, dtype=np.int64), b)
        prev = np.zeros(b, dtype=np.int64)
        for k in range(k_max):
            idx = votes[k]
            key = keys[idx]
            key += s
            keys[idx] = key
            prev = np.maximum(prev, key, out=idx)
        votes %= s
        hits = votes == (s - 1 - truth)
    else:
        counts = np.zeros(b * s, dtype=np.int64)
        shadow = np.zeros(b * s, dtype=np.float64)
        leader = base.copy()
        for k in range(k_max):
            idx = votes[k]
            count = counts[idx]
            count += 1
            counts[idx] = count
            total = shadow[idx]
            total += dists[k]
            shadow[idx] = total
            # enters the lead on more votes, or on equal votes with a smaller
            # (shadow, label); a leader that took this vote ties itself and stays
            lead_count, lead_shadow = counts[leader], shadow[leader]
            win = (total < lead_shadow) | ((total == lead_shadow) & (idx < leader))
            win &= count == lead_count
            win |= count > lead_count
            np.copyto(leader, idx, where=win)
            idx[...] = leader
        votes -= base
        hits = votes == truth
    starts = np.flatnonzero(np.r_[True, block_folds[1:] != block_folds[:-1]])
    # fold-major: correct.T[i] is fold i's counts, contiguous in an F-ordered tally
    correct.T[block_folds[starts]] += np.add.reduceat(hits.T, starts, axis=0, dtype=correct.dtype)


def select_k(acc, evaluated_k=None, timing=None):
    """Pick per-fold best k and the averaged k*.

    Per fold: the smallest k maximizing that fold's correct count. k* is the
    round-half-up mean of those, clamped to the evaluated range. The curve
    carries mean and population std of per-fold accuracies for each k.
    evaluated_k (default 1..k_max) names every tally row, else InconsistentInputs.
    """
    correct = acc.correct
    evaluated_k = list(range(1, acc.k_max + 1) if evaluated_k is None else evaluated_k)
    rows, f = correct.shape
    if len(evaluated_k) != rows:
        raise InconsistentInputs(f"{len(evaluated_k)} evaluated k for {rows} tally rows")

    # Each chunk of rows is a C-ordered float64 copy, so sums run in one
    # order whatever the layout. The first max over k (ties keep the smaller
    # k) is a running best per fold, as argmax copies a read-only tally whole.
    best_rows, best = np.zeros(f, dtype=np.intp), correct[0]
    means, stds = [], []
    step = max(1, SELECT_CHUNK_BYTES // (8 * f))
    for lo in range(0, rows, step):
        part = correct[lo:lo + step]
        count = part.max(axis=0)
        best_rows = np.where(count > best, np.argmax(part, axis=0) + lo, best_rows)
        best = np.maximum(best, count)
        per_fold = acc.per_fold_accuracy(slice(lo, lo + step))
        mean = per_fold.mean(axis=1)
        # population std, np.std's steps done in place in per_fold
        per_fold -= mean[:, None]
        per_fold *= per_fold
        means += mean.tolist()
        stds += np.sqrt(per_fold.mean(axis=1)).tolist()
        del per_fold  # before the next chunk exists

    best_k_per_fold = [int(evaluated_k[r]) for r in best_rows]
    k_star = int(math.floor(sum(best_k_per_fold) / len(best_k_per_fold) + 0.5))
    k_star = max(1, min(k_star, max(evaluated_k)))
    curve = [{"k": int(k), "mean_accuracy": mean, "std_accuracy": std}
             for k, mean, std in zip(evaluated_k, means, stds)]

    return KSearchReport(best_k_per_fold=best_k_per_fold, k_star=k_star,
                         curve=curve, evaluated_k=[int(k) for k in evaluated_k],
                         timing=dict(timing or {}))


def accuracy_curve_export(report, path):
    """Write the accuracy curve as CSV: k,mean_accuracy,std_accuracy."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("k,mean_accuracy,std_accuracy\n")
            for point in report.curve:
                fh.write("%d,%.6f,%.6f\n" % (
                    point["k"], point["mean_accuracy"], point["std_accuracy"]))
    except OSError as exc:
        raise IoError(f"cannot write curve to {path}: {exc}") from exc
