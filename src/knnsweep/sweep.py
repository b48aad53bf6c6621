"""Accuracy for every k at once from ascending cross-fold neighbor lists.

Per-row class counters (and a shadow of summed distances for tie-breaking)
are grown one neighbor at a time; after each depth k the prediction for every
row is compared against ground truth and tallied per fold. Counters are never
reset, so the whole 1..k_max range costs one traversal of each row's list.
row_blocks cuts the rows into build blocks, and the first k_max neighbours
of several built blocks are packed, depth-major and in the narrowest label
type, into one LabelPanel, which the vote reads: the per-k loop runs once
per panel, and neither the lists of all rows nor their int64 labels ever
exist at once.
"""

import json
import math
import os
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

# Cap on the build blocks in flight (_row_bytes) plus one label panel
# (_panel_row_bytes). PANEL_SHARE of it holds the panel: at n=6000 (f=5,
# s=3) 3360 rows, so the per-k loop runs twice, and the build blocks share
# the rest, 86 rows each for two workers. A shadow_min panel row costs 9
# bytes a depth, not 1, and its panel still holds four build blocks or more
# (605 and 138 rows in 3000-row LOOCV on two workers).
BLOCK_BYTES = 48 << 20
PANEL_SHARE = 1 / 3
# Depths whose hits sweep adds into the tally at once: the hits and their
# per-fold sums at the tally's type, a few hundred bytes a panel row
HIT_CHUNK_DEPTHS = 16


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


def label_type(s):
    """Narrowest unsigned type of a panel's codes for s classes: uint8 up to 256, else uint16."""
    return np.min_scalar_type(_stride(s) - 1)


def _stride(s):
    """Counters a panel row keeps: s rounded up to a power of two, so a code is a mask away."""
    return 1 << (int(s) - 1).bit_length()


class LabelPanel:
    """The first k_max neighbours of up to `width` rows, depth-major: all the vote reads.

    labels[k-1, j] is the label of row rows[j]'s k-th nearest cross-fold
    neighbour, in label_type(s); under shadow_min, distances[k-1, j] is its
    distance (else distances is None). reserve claims the next free
    columns for a block's rows and pack fills them from the built block;
    sweep votes the packed rows, overwriting their labels, and empties the
    panel for the next blocks.
    """

    def __init__(self, width, k_max, s, policy="smallest_code"):
        check_policy(policy)
        self.s, self.size = s, 0
        self.rows = np.empty(width, dtype=np.intp)
        self.labels = np.empty((k_max, width), dtype=label_type(s))
        self.distances = np.empty((k_max, width)) if policy == "shadow_min" else None

    @property
    def room(self):
        """Rows that can still be packed."""
        return self.rows.size - self.size

    def reserve(self, rows):
        """Claim the next free columns for `rows`, in order; returns the first.

        More rows than room raise InconsistentInputs.
        """
        b, lo = len(rows), self.size
        if b > self.room:
            raise InconsistentInputs(f"{b} rows do not fit {self.room} free rows")
        self.rows[lo:lo + b] = rows
        self.size += b
        return lo

    def pack(self, block, lo):
        """Copy a built block's rows, to depth k_max, into the columns reserved for them at lo.

        Packs into distinct reservations may run on several threads at
        once. A block with fewer than k_max neighbours a row, or with other
        rows than those reserved at lo, raises InconsistentInputs.
        """
        k_max, b = self.labels.shape[0], block.rows.size
        if block.labels.shape[1] < k_max:
            raise InconsistentInputs(f"a block of {block.labels.shape[1]} neighbours "
                                     f"does not reach depth {k_max}")
        if not np.array_equal(self.rows[lo:lo + b], block.rows):
            raise InconsistentInputs(f"the block's rows are not the ones reserved at column {lo}")
        # narrow first: a one-byte transposed copy is the cheap one
        self.labels[:, lo:lo + b] = block.labels[:, :k_max].astype(self.labels.dtype).T
        if self.distances is not None:
            self.distances[:, lo:lo + b] = block.distances[:, :k_max].T


def sweep(panel, folds, truth, policy="smallest_code", correct=None):
    """Tally hits at every k = 1..folds.k_max over the rows packed in a LabelPanel.

    Row j's k-th nearest cross-fold neighbour is its vote at depth k. The
    panel must hold a row and folds.k_max depths, with the rows of one fold
    contiguous (as they are when the blocks of row_blocks are packed in
    order), truth must give those rows codes below the panel's s, and a
    shadow_min vote needs the panel's distances, else InconsistentInputs.
    The vote overwrites the panel's labels and empties it. Hits are added
    per fold into `correct`, a (k_max, f) integer tally of any layout that
    holds the largest fold (a new zeroed F-ordered one of tally_type by
    default), else InconsistentInputs: sweeping every panel of a blocked
    run into one tally gives the whole accuracy matrix with one panel in
    memory. Returns a read-only AccuracyMatrix view of the tally.
    """
    check_policy(policy)
    truth = np.asarray(truth)
    rows = panel.rows[:panel.size]
    if rows.size == 0:
        raise InconsistentInputs("the panel holds no rows")
    if truth.shape[0] != folds.n or rows.max() >= folds.n or len(panel.labels) != folds.k_max:
        raise InconsistentInputs(
            f"sizes disagree: panel rows up to {rows.max()} and depth {len(panel.labels)}, "
            f"folds n={folds.n} and k_max={folds.k_max}, truth n={truth.shape[0]}")
    truth = truth[rows]
    if truth.min() < 0 or truth.max() >= panel.s:
        raise InconsistentInputs(f"truth codes leave 0..{panel.s - 1}")
    if policy == "shadow_min" and panel.distances is None:
        raise InconsistentInputs("a shadow_min vote needs a panel with distances")
    row_folds = folds.fold_of[rows]
    if np.count_nonzero(np.diff(row_folds)) + 1 != np.unique(row_folds).size:
        raise InconsistentInputs("the rows of one fold are not contiguous in the panel")
    k_max = folds.k_max
    if correct is None:
        correct = np.zeros((k_max, folds.f), dtype=tally_type(folds), order="F")
    elif correct.shape != (k_max, folds.f):
        raise InconsistentInputs(f"tally shape {correct.shape} is not {(k_max, folds.f)}")
    elif not (np.issubdtype(correct.dtype, np.integer)
              and np.iinfo(correct.dtype).max >= folds.fold_sizes.max()):
        raise InconsistentInputs(f"a {correct.dtype} tally cannot count {folds.fold_sizes.max()} rows")

    dists = panel.distances[:, :rows.size] if policy == "shadow_min" else None
    with np.errstate(over="ignore"):  # shadow sums may overflow to inf, as the oracle's do
        _accumulate(correct, panel.labels[:, :rows.size], dists, truth, row_folds, panel.s, policy)
    panel.size = 0
    return AccuracyMatrix(correct=correct.view(), fold_sizes=folds.fold_sizes.copy(),
                          k_max=k_max, f=folds.f)


def tally_type(folds):
    """Narrowest signed integer type that counts the largest fold (int8 for LOOCV)."""
    return np.min_scalar_type(-int(folds.fold_sizes.max()) - 1)


def dataset_bytes(n, d):
    """Charge for the features and labels and their copies around the run."""
    return 16 * n * d + 64 * n


def _worker_count():
    """CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class RowBlocks:
    """Build blocks of a blocked sweep (iterate it), the rows of the panel they
    fill and the number of blocks that may be built at once."""

    def __init__(self, folds, panel_rows, rows_per_block, workers):
        self.folds, self.panel_rows, self.rows_per_block = folds, panel_rows, rows_per_block
        self.workers = workers

    def __iter__(self):
        return _row_blocks(self.folds, self.rows_per_block)


def row_blocks(dataset, folds, memory_budget=DEFAULT_MEMORY_BUDGET, policy="smallest_code"):
    """Row index blocks for a blocked sweep and the width of the panel they fill.

    The only place a run's memory is priced. The budget bounds the tally
    (tally_type), select_k's float64 chunk of it and its curve, copies of
    the features (dataset_bytes), `workers` build blocks in flight
    (_row_bytes), the gathers of their columns (_gather_bytes) beyond the
    one dataset_bytes holds, and one LabelPanel with its vote
    (_panel_row_bytes), whose charge depends on the tie policy; the blocks,
    their gathers and the panel are further capped at BLOCK_BYTES,
    PANEL_SHARE of which holds the panel. workers is one per CPU
    (_worker_count), or fewer when the rest of the cap does not hold a row
    of each and the further gathers. Returns a RowBlocks: iterating it
    gives blocks in _row_blocks order, each of rows of one fold size and
    none wider than panel_rows. Raises MemoryBudgetExceeded only when one
    build row and one panel row do not fit.
    """
    n, d, s, f = dataset.n, dataset.d, dataset.s, folds.f
    if folds.n != n:
        raise InconsistentFolds(f"folds cover {folds.n} rows, dataset has {n}")
    check_policy(policy)
    k_max, tally = folds.k_max, tally_type(folds)
    chunk = min(8 * k_max * f, max(SELECT_CHUNK_BYTES, 8 * f))  # one select_k float64 chunk
    fixed = (tally.itemsize * k_max * f + chunk + CURVE_POINT_BYTES * k_max
             + dataset_bytes(n, d) + FIXED_BYTES)
    build = _row_bytes(n - int(folds.fold_sizes.min()), d)
    panel = _panel_row_bytes(k_max, s, policy, tally)
    required = fixed + build + panel
    if required > memory_budget:
        raise MemoryBudgetExceeded(required, memory_budget)
    cap = min(BLOCK_BYTES, memory_budget - fixed)
    # the panel takes its share of the cap, and leaves room for one build row
    width = min(n, max(1, min(int(cap * PANEL_SHARE), cap - build) // panel))
    # the builds in flight share the rest; dataset_bytes' copy of the
    # features is one build's gather, and each further build is charged its own
    room, gather = cap - width * panel, _gather_bytes(n, d)
    workers = min(_worker_count(), max(1, 1 + (room - build) // (build + gather)))
    room -= (workers - 1) * gather
    # blocks are made as they are used, as a list of n one-row blocks would
    # outgrow the budget
    return RowBlocks(folds, width,
                     lambda m: min(width, max(1, room // (workers * _row_bytes(m, d)))), workers)


def _row_bytes(m, d):
    """Upper bound of the bytes a block's build holds per row with m columns.

    Packing the block into a panel adds its labels' narrow copy, which
    fits in the same SORT_CELL_BYTES a column.
    """
    return SORT_CELL_BYTES * m + 8 * d + 128


def _gather_bytes(n, d):
    """Upper bound of the bytes a build holds whatever its rows: the features
    of its columns (all n in a block that spans folds), and their indices
    and labels."""
    return 8 * (d + 4) * n


def _panel_row_bytes(k_max, s, policy, tally):
    """Upper bound of the bytes a LabelPanel holds per row, its vote included.

    The k_max stored depths (a label_type(s) code, and a float64 distance
    under shadow_min), the row index, and the larger of the vote's buffers
    (counters of _stride(s) slots, two under shadow_min, and a few int64
    and bool rows) and one chunk of HIT_CHUNK_DEPTHS depths of hits with
    their per-fold sums at the tally's type.
    """
    shadow = policy == "shadow_min"
    stored = label_type(s).itemsize + 8 * shadow
    vote = 8 * (1 + shadow) * _stride(s) + 96 + 64 * shadow
    hits = min(k_max, HIT_CHUNK_DEPTHS) * (1 + 3 * tally.itemsize)
    return stored * k_max + max(vote, hits) + 64


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


def _accumulate(correct, labels, dists, truth, panel_folds, s, policy):
    """Add one panel's hits at every depth k into correct[k-1, fold].

    labels[k-1, j] is the label of panel row j's k-th nearest neighbour,
    overwritten with the code of its leader at depth k (_vote), and
    dists[k-1, j] its distance (read only under shadow_min), both (k_max, W)
    arrays. Rows of one fold must be contiguous in the panel. The hits are
    summed per fold HIT_CHUNK_DEPTHS depths at a time, so no copy of all
    the panel's hits at the tally's type exists.
    """
    # _vote's counters are freed before the hit chunks exist (_panel_row_bytes)
    target = _vote(labels, dists, truth, s, policy).astype(labels.dtype)
    starts = np.flatnonzero(np.r_[True, panel_folds[1:] != panel_folds[:-1]])
    ids = panel_folds[starts]
    for lo in range(0, len(labels), HIT_CHUNK_DEPTHS):
        hits = (labels[lo:lo + HIT_CHUNK_DEPTHS] == target).T
        if starts.size < len(hits):  # some fold has several rows here (not LOOCV)
            hits = np.add.reduceat(hits, starts, axis=0, dtype=correct.dtype)
        # fold-major: correct.T[i] is fold i's counts, contiguous in an F-ordered tally
        correct.T[ids, lo:lo + HIT_CHUNK_DEPTHS] += hits


def _vote(labels, dists, truth, s, policy):
    """Overwrite labels[k-1] with each row's leader code at depth k; returns truth's codes.

    Only the incoming label's counter changes at depth k, so the leader is
    kept or replaced by that label: O(1) work per vote. Each depth's labels
    are read into one int64 counter index, row * _stride(s) + label. Shadow
    sums add distances in ascending-neighbour order, as the oracle does, so
    the comparisons are exact.
    """
    k_max, w = labels.shape
    stride = _stride(s)
    base = np.arange(w, dtype=np.int64) * stride
    idx = np.empty(w, dtype=np.int64)
    if policy == "smallest_code":
        # key = count * stride + (stride - 1 - label): the leader has the
        # largest key, and its low bits are the leader's code stride - 1 - label
        keys = np.tile(np.arange(stride - 1, -1, -1, dtype=np.int64), w)
        lead = np.zeros(w, dtype=np.int64)
        for k in range(k_max):
            np.add(labels[k], base, out=idx)
            key = keys[idx]
            key += stride
            keys[idx] = key
            np.maximum(lead, key, out=lead)
            np.bitwise_and(lead, stride - 1, out=labels[k], casting="unsafe")
        return stride - 1 - truth
    counts = np.zeros(w * stride, dtype=np.int64)
    shadow = np.zeros(w * stride, dtype=np.float64)
    leader = base.copy()
    for k in range(k_max):
        np.add(labels[k], base, out=idx)
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
        np.subtract(leader, base, out=labels[k], casting="unsafe")
    return truth


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
