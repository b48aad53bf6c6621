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

from .distance import DEFAULT_MEMORY_BUDGET
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
# Upper bounds, per block row, of the bytes a block holds per column while
# it is built (distances, two sort orders and the sorted distances; tied
# rows add a re-sorted copy) and per depth while it votes (votes, shadow
# distances, hits and the per-fold sums); the estimate adds both, which also
# covers the stored lists during the vote, and tracemalloc peaks stay below
# it (tests/test_kernel.py).
SORT_CELL_BYTES = 40
VOTE_CELL_BYTES = 40
# small allocations outside the arrays row_blocks sizes
FIXED_BYTES = 1 << 16
# rows sweep votes at once; bounds its temporaries on a matrix of every row
SWEEP_BLOCK_ROWS = 1024


def check_policy(policy):
    if policy not in TIE_POLICIES:
        raise ValueError(f"unknown tie policy {policy!r}; choose from {TIE_POLICIES}")
    return policy


def classify_at_k(counts_row, shadow_row, policy="smallest_code"):
    """Predicted class from one row of the counting and shadow matrices.

    Argmax of counts; ties go to the smallest class code, or under
    shadow_min to the tied class with the smallest summed distance
    (further ties again to the smallest code).
    """
    check_policy(policy)
    counts_row = np.asarray(counts_row)
    if not counts_row.any():
        raise EmptyNeighborhood("all-zero counts row")
    if policy == "smallest_code":
        return int(np.argmax(counts_row))
    tied = counts_row == counts_row.max()
    masked = np.where(tied, np.asarray(shadow_row, dtype=np.float64), np.inf)
    return int(np.argmin(masked))


def vote_batch(counts, shadow, policy):
    """Vectorized classify_at_k over a (rows, s) counts/shadow block."""
    if policy == "smallest_code":
        return np.argmax(counts, axis=1)
    tied = counts == counts.max(axis=1, keepdims=True)
    masked = np.where(tied, shadow, np.inf)
    return np.argmin(masked, axis=1)


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
    """Tally hits at every k = 1..k_max over the rows a sorted matrix holds.

    Row j's k-th nearest cross-fold neighbor is its vote at depth k;
    k_max = n - max fold size guarantees every row has a k-th neighbor.
    Hits are added per fold into `correct`, a (k_max, f) int64 tally (a new
    zeroed one by default): sweeping every block of row_blocks into one
    tally gives the whole accuracy matrix with one block's neighbour lists
    in memory at a time. Returns a read-only AccuracyMatrix view of the tally.
    """
    check_policy(policy)
    truth = np.asarray(truth)
    rows = matrix.rows
    if truth.shape[0] != folds.n or rows.max() >= folds.n:
        raise InconsistentInputs(
            f"sizes disagree: matrix rows up to {rows.max()}, folds n={folds.n}, "
            f"truth n={truth.shape[0]}")
    row_folds = folds.fold_of[rows]
    if np.any(matrix.valid_len != folds.n - folds.fold_sizes[row_folds]):
        raise InconsistentInputs("matrix row lengths disagree with the folds")
    k_max = matrix.k_max
    if k_max < 1:
        raise InconsistentInputs("k_max < 1: some fold covers all but 0 rows")
    if correct is None:
        correct = np.zeros((k_max, folds.f), dtype=np.int64)
    elif correct.shape != (k_max, folds.f):
        raise InconsistentInputs(f"tally shape {correct.shape} is not {(k_max, folds.f)}")

    labels = matrix.labels[:, :k_max]
    s = int(max(truth.max(), labels.max())) + 1
    # _accumulate wants each fold's rows together; slices, where the rows
    # already are, save a copy of every vote
    by_fold = (None if np.all(row_folds[1:] >= row_folds[:-1])
               else np.argsort(row_folds, kind="stable"))
    for lo in range(0, matrix.n, SWEEP_BLOCK_ROWS):
        block = (slice(lo, lo + SWEEP_BLOCK_ROWS) if by_fold is None
                 else by_fold[lo:lo + SWEEP_BLOCK_ROWS])
        votes = np.ascontiguousarray(labels[block].T, dtype=np.int64)
        dists = matrix.distances[block, :k_max].T.copy() if policy == "shadow_min" else None
        _accumulate(correct, votes, dists, truth[rows[block]], row_folds[block], s, policy)
        del votes, dists
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

    per_fold = acc.per_fold_accuracy()  # rows follow evaluated_k order
    best_rows = np.argmax(acc.correct, axis=0)  # first max = smallest k
    best_k_per_fold = [int(evaluated_k[r]) for r in best_rows]

    mean_best = sum(best_k_per_fold) / len(best_k_per_fold)
    k_star = int(math.floor(mean_best + 0.5))
    k_star = max(1, min(k_star, max(evaluated_k)))

    curve = []
    for row, k in enumerate(evaluated_k):
        accs = per_fold[row]
        curve.append({
            "k": int(k),
            "mean_accuracy": float(np.mean(accs)),
            "std_accuracy": float(np.std(accs)),  # population std
        })

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
