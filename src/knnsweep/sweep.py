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

from .distance import DEFAULT_MEMORY_BUDGET, FIXED_BYTES, SORT_CELL_BYTES
from .errors import (
    EmptyNeighborhood,
    InconsistentFolds,
    InconsistentInputs,
    IoError,
    MemoryBudgetExceeded,
)

TIE_POLICIES = ("smallest_code", "shadow_min")

# Cap on one row block's estimated working set, in bytes. Each
# block pays a Python-level loop over k, so larger blocks run faster but
# raise peak memory; past this size the gain is within run-to-run noise.
BLOCK_BYTES = 96 << 20
# Upper bound, per block row, of the bytes a block holds per depth while it
# votes (votes, shadow distances, hits and the per-fold sums). The estimate
# adds it to the build's SORT_CELL_BYTES per column, which also covers the
# stored lists during the vote, and tracemalloc peaks stay below it
# (tests/test_kernel.py).
VOTE_CELL_BYTES = 40


def check_policy(policy):
    if policy not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {policy!r}; choose from {TIE_POLICIES}")
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
        pred = np.argmin(np.where(tied, np.asarray(shadow, dtype=np.float64), np.inf), axis=-1)
    return int(pred) if pred.ndim == 0 else pred


@dataclass(frozen=True)
class AccuracyMatrix:
    """correct[k-1][i] = correct classifications of fold i at depth k."""

    correct: np.ndarray
    fold_sizes: np.ndarray
    k_max: int
    f: int

    def __post_init__(self):
        self.correct.setflags(write=False)

    def per_fold_accuracy(self):
        """(k_max, f) accuracies using actual fold sizes as denominators."""
        return self.correct / self.fold_sizes[None, :].astype(np.float64)


@dataclass(frozen=True)
class KSearchReport:
    best_k_per_fold: list
    k_star: int
    curve: list  # [{"k", "mean_accuracy", "std_accuracy"}, ...]
    evaluated_k: list
    timing: dict = field(default_factory=dict)

    def to_json(self, indent=2):
        payload = {
            "best_k_per_fold": self.best_k_per_fold,
            "k_star": self.k_star,
            "curve": self.curve,
            "evaluated_k": self.evaluated_k,
            "timing": self.timing,
        }
        return json.dumps(payload, indent=indent)


def sweep(matrix, folds, truth, policy="smallest_code", correct=None):
    """Tally hits at every k = 1..k_max over the rows of one sorted block.

    Row j's k-th nearest cross-fold neighbor is its vote at depth k;
    k_max = n - max fold size guarantees every row has a k-th neighbor.
    The rows of one fold must be contiguous in the block (as in every block
    of row_blocks), else InconsistentInputs. Hits are added per fold into
    `correct`, a (k_max, f) int64 tally (a new zeroed one by default):
    sweeping every block of row_blocks into one tally gives the whole
    accuracy matrix with one block's neighbour lists in memory at a time.
    Returns a read-only AccuracyMatrix view of the tally.
    """
    check_policy(policy)
    truth = np.asarray(truth)
    rows = matrix.rows
    if truth.shape[0] != folds.n or rows.max() >= folds.n:
        raise InconsistentInputs(
            f"sizes disagree: matrix rows up to {rows.max()}, folds n={folds.n}, "
            f"truth n={truth.shape[0]}")
    row_folds = folds.fold_of[rows]
    if np.any(folds.fold_sizes[row_folds] != folds.n - matrix.distances.shape[1]):
        raise InconsistentInputs("matrix row lengths disagree with the folds")
    if np.count_nonzero(np.diff(row_folds)) + 1 != np.unique(row_folds).size:
        raise InconsistentInputs("the rows of one fold are not contiguous in the block")
    k_max = matrix.k_max
    if k_max < 1:
        raise InconsistentInputs("k_max < 1: some fold covers all but 0 rows")
    if correct is None:
        correct = np.zeros((k_max, folds.f), dtype=np.int64)
    elif correct.shape != (k_max, folds.f):
        raise InconsistentInputs(f"tally shape {correct.shape} is not {(k_max, folds.f)}")

    labels = matrix.labels[:, :k_max]
    s = int(max(truth.max(), labels.max())) + 1
    votes = np.ascontiguousarray(labels.T, dtype=np.int64)
    dists = matrix.distances[:, :k_max].T.copy() if policy == "shadow_min" else None
    _accumulate(correct, votes, dists, truth[rows], row_folds, s, policy)
    return AccuracyMatrix(correct=correct.view(), fold_sizes=folds.fold_sizes.copy(),
                          k_max=k_max, f=folds.f)


def row_blocks(dataset, folds, memory_budget=DEFAULT_MEMORY_BUDGET):
    """Iterator of row index blocks for a blocked sweep, each sized to fit memory_budget.

    The budget bounds an estimate of the (k_max, f) tally, copies of the
    features and one block's build and sweep (see _row_bytes); a block is
    further capped at BLOCK_BYTES. Blocks follow _row_blocks, so each one
    holds rows of one fold size. Raises MemoryBudgetExceeded only when one
    row does not fit.
    """
    n, d, s = dataset.n, dataset.d, dataset.s
    if folds.n != n:
        raise InconsistentFolds(f"folds cover {folds.n} rows, dataset has {n}")
    k_max = folds.k_max
    if k_max < 1:
        raise InconsistentInputs("k_max < 1: some fold covers all but 0 rows")

    fixed = 8 * k_max * folds.f + 16 * n * d + 64 * n + FIXED_BYTES
    required = fixed + _row_bytes(n - int(folds.fold_sizes.min()), k_max, d, s)
    if required > memory_budget:
        raise MemoryBudgetExceeded(required, memory_budget)
    cap = min(BLOCK_BYTES, memory_budget - fixed)
    # the check above lets one row always fit; blocks are made as they are
    # used, as a list of n one-row blocks would outgrow the budget
    return _row_blocks(folds, lambda m: max(1, cap // _row_bytes(m, k_max, d, s)))


def _row_bytes(m, k_max, d, s):
    """Upper bound of a block's build and sweep bytes per row with m columns."""
    return SORT_CELL_BYTES * m + VOTE_CELL_BYTES * k_max + 8 * d + 32 * s + 128


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
            size, extra = divmod(fs, pieces)  # the first `extra` pieces get a row more
            for start in range(0, group.size, fs):
                for piece in range(pieces):
                    stop = start + size + (piece < extra)
                    yield group[start:stop]
                    start = stop


def _accumulate(correct, votes, dists, truth, block_folds, s, policy):
    """Add one row block's hits at every depth k into correct[k-1, fold].

    votes[k-1, j] is the label of block row j's k-th nearest neighbour and
    dists[k-1, j] its distance (read only under shadow_min); both are
    (k_max, B) int64 / float64 arrays, and votes is overwritten. Rows of one
    fold must be contiguous in the block.

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
        lead = np.empty_like(votes)
        prev = np.zeros(b, dtype=np.int64)
        for k in range(k_max):
            idx = votes[k]
            key = keys[idx]
            key += s
            keys[idx] = key
            prev = np.maximum(prev, key, out=lead[k])
        lead %= s
        hits = lead == (s - 1 - truth)
    else:
        counts = np.zeros(b * s, dtype=np.int64)
        shadow = np.zeros(b * s, dtype=np.float64)
        top_count = np.zeros(b, dtype=np.int64)
        top_shadow = np.zeros(b, dtype=np.float64)
        leader = base.copy()
        lead = np.empty_like(votes)
        for k in range(k_max):
            idx = votes[k]
            count = counts[idx]
            count += 1
            counts[idx] = count
            total = shadow[idx]
            total += dists[k]
            shadow[idx] = total
            # enters the lead on more votes, or on equal votes with a smaller
            # (shadow, label); only the incoming label's entries changed
            win = (total < top_shadow) | ((total == top_shadow) & (idx < leader))
            win &= count == top_count
            win |= count > top_count
            np.maximum(top_count, count, out=top_count)
            np.copyto(top_shadow, total, where=win)
            np.copyto(leader, idx, where=win)
            lead[k] = leader
        lead -= base
        hits = lead == truth
    del lead
    starts = np.flatnonzero(np.r_[True, block_folds[1:] != block_folds[:-1]])
    correct[:, block_folds[starts]] += np.add.reduceat(hits, starts, axis=1, dtype=np.int64)


def select_k(acc, evaluated_k=None, timing=None):
    """Pick per-fold best k and the averaged k*.

    Per fold: the smallest k maximizing that fold's correct count. k* is the
    round-half-up mean of those, clamped to the evaluated range. The curve
    carries mean and population std of per-fold accuracies for each k.
    """
    if acc.correct.size == 0:
        raise ValueError("empty accuracy matrix")
    if evaluated_k is None:
        evaluated_k = list(range(1, acc.k_max + 1))
    evaluated_k = list(evaluated_k)

    # first max = smallest k; argmax copies the whole tally to run down its
    # columns, so it goes first and that copy is freed before per_fold exists
    best_rows = np.argmax(acc.correct, axis=0)
    per_fold = acc.per_fold_accuracy()  # rows follow evaluated_k order
    best_k_per_fold = [int(evaluated_k[r]) for r in best_rows]

    mean_best = sum(best_k_per_fold) / len(best_k_per_fold)
    k_star = int(math.floor(mean_best + 0.5))
    k_star = max(1, min(k_star, max(evaluated_k)))

    means = per_fold.mean(axis=1)
    # population std, np.std's steps done in place in per_fold (a new
    # array): np.std(axis=1) would hold another (k_max, f) array
    per_fold -= means[:, None]
    per_fold *= per_fold
    stds = np.sqrt(per_fold.mean(axis=1))
    curve = [{"k": int(k), "mean_accuracy": mean, "std_accuracy": std}
             for k, mean, std in zip(evaluated_k, means.tolist(), stds.tolist())]

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
