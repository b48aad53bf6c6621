"""Accuracy for every k at once from ascending cross-fold neighbor lists.

Per-row class counters (and a shadow of summed distances for tie-breaking)
are grown one neighbor at a time; after each depth k the prediction for every
row is compared against ground truth and tallied per fold. Counters are never
reset, so the whole 1..k_max range costs one traversal of each row's list.
row_blocks cuts the rows into build blocks, and the first k_max neighbours
of several built blocks are copied, depth-major, into one LabelPanel, which
the vote reads: the per-k loop runs once per panel, and neither the lists
of all rows nor their int64 labels ever exist at once.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .distance import _gather_bytes, _row_bytes, label_type
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
# and its chunks, tracemalloc measured 290-320 bytes per k at k_max =
# 999 to 5999 (numpy 2.4, Python 3.11).
CURVE_POINT_BYTES = 512
# select_k's chunks of tally rows (one row at least): one C-ordered copy at
# the tally's type, and a float64 copy of some of its rows
SELECT_CHUNK_BYTES = 1 << 20
# Folds select_k copies from the tally at once: 256 cache lines of a
# fold-major tally, each read whole where a chunk holds 64 int8 rows (up to
# 16384 folds)
SELECT_TILE_FOLDS = 256

# Cap on the build blocks in flight (_row_bytes) plus one label panel
# (_panel_row_bytes). The vote pays per numpy call, so it gains from a wide
# panel, and PANEL_SHARE of the cap holds the panel: at n=6000 (f=5, s=3)
# all 6000 rows, so the per-k loop runs once, and the build blocks share
# the rest, 35 rows each for two workers. A shadow_min panel row costs 9
# bytes a depth, not 1: 1111 panel rows and 54-row blocks in 3000-row LOOCV
# on two workers. A build is charged 40 bytes a cell (_row_bytes) but holds
# about 24, so each byte moved from the builds to the panel raises the
# peak RSS, and a larger share wants a smaller cap. At n=16000 (f=5) the
# panel has 2372 rows and the blocks 11; much narrower blocks pay again,
# for each block's O(n) gathers.
BLOCK_BYTES = 42 << 20
PANEL_SHARE = 0.7
# Narrowest panel the budget must hold, in rows (n at most). The vote costs
# a fixed number of numpy calls a depth, so narrow panels pay mostly for
# calls. ns a vote of _vote at depth 2000 against panel width (2-vCPU x86,
# numpy 2.4):
#   width                 1     16     64    128   256   512  1024  2048  4096
#   smallest_code s=3  4863    216   55.8   30.5  17.8  12.1   9.0   7.1   5.6
#   shadow_min s=20    9311    474    127   71.2  46.2  29.8  24.5  18.8  25.2
# 256 rows is the narrowest width within 4 times the cheapest width's cost,
# for s=3 and s=20 under both policies.
PANEL_FLOOR = 256
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


@dataclass(frozen=True)
class KSearchReport:
    best_k_per_fold: list
    k_star: int
    curve: list  # [{"k", "mean_accuracy", "std_accuracy"}, ...]
    evaluated_k: list
    timing: dict = field(default_factory=dict)

    def to_json(self, indent=2):
        return json.dumps(vars(self), indent=indent)


def _stride(s):
    """Counters a panel row keeps: s rounded up to a power of two, so a code is a mask away."""
    return 1 << (int(s) - 1).bit_length()


class LabelPanel:
    """The first k_max neighbours of up to `width` rows, depth-major: all the vote reads.

    labels[k-1, j] is the label of row rows[j]'s k-th nearest cross-fold
    neighbour, in label_type(s), the type a built block holds; under
    shadow_min, distances[k-1, j] is its distance, else distances is None,
    and sweep breaks vote ties by that. reserve claims the next free
    columns for a block's rows and pack copies them from the built block;
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
        self.labels[:, lo:lo + b] = block.labels[:, :k_max].T
        if self.distances is not None:
            self.distances[:, lo:lo + b] = block.distances[:, :k_max].T


def sweep(panel, folds, truth, correct=None):
    """Tally hits at every k = 1..folds.k_max over the rows packed in a LabelPanel.

    Row j's k-th nearest cross-fold neighbour is its vote at depth k. Vote
    ties go under shadow_min when the panel holds distances (its policy),
    else to the smallest code. The panel must hold a row and folds.k_max
    depths, with the rows of one fold contiguous (as they are when the
    blocks of row_blocks are packed in order), and truth must give those
    rows codes below the panel's s, else InconsistentInputs. The vote
    overwrites the panel's labels and empties it. Hits are added per fold
    into `correct`, a (k_max, f) integer tally of any layout that holds the
    largest fold (a new zeroed F-ordered one of tally_type by default), else
    InconsistentInputs: sweeping every panel of a blocked run into one tally
    gives the whole accuracy matrix with one panel in memory. Returns a
    read-only AccuracyMatrix view of the tally.
    """
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
    row_folds = folds.fold_of[rows]
    starts = np.r_[0, np.flatnonzero(np.diff(row_folds)) + 1]  # the panel's fold runs
    if np.unique(row_folds[starts]).size != starts.size:
        raise InconsistentInputs("the rows of one fold are not contiguous in the panel")
    k_max = folds.k_max
    if correct is None:
        correct = np.zeros((k_max, folds.f), dtype=tally_type(folds), order="F")
    elif correct.shape != (k_max, folds.f):
        raise InconsistentInputs(f"tally shape {correct.shape} is not {(k_max, folds.f)}")
    elif not (np.issubdtype(correct.dtype, np.integer)
              and np.iinfo(correct.dtype).max >= folds.fold_sizes.max()):
        raise InconsistentInputs(f"a {correct.dtype} tally cannot count {folds.fold_sizes.max()} rows")

    labels = panel.labels[:, :rows.size]
    dists = None if panel.distances is None else panel.distances[:, :rows.size]
    with np.errstate(over="ignore"):  # shadow sums may overflow to inf, as the oracle's do
        # labels[k-1, j] becomes the code of row j's leader at depth k; the
        # vote's counters are freed before the hit chunks exist (_panel_row_bytes)
        target = _vote(labels, dists, truth, panel.s).astype(labels.dtype)
    # fold-major: correct.T[i] is fold i's counts, contiguous in an F-ordered tally
    ids = _fold_index(row_folds[starts])
    for lo in range(0, k_max, HIT_CHUNK_DEPTHS):  # no copy of all the hits at the tally's type
        hits = (labels[lo:lo + HIT_CHUNK_DEPTHS] == target).T
        if starts.size < rows.size:  # some fold has several rows here (not LOOCV)
            hits = np.add.reduceat(hits, starts, axis=0, dtype=correct.dtype)
        correct.T[ids, lo:lo + HIT_CHUNK_DEPTHS] += hits
    panel.size = 0
    return AccuracyMatrix(correct=correct.view(), fold_sizes=folds.fold_sizes.copy(),
                          k_max=k_max, f=folds.f)


def tally_type(folds):
    """Narrowest signed integer type that counts the largest fold (int8 for LOOCV)."""
    return np.min_scalar_type(-int(folds.fold_sizes.max()) - 1)


def dataset_bytes(n, d):
    """Charge for the features, and 32 bytes a row for the labels, the fold
    indices and the row arrays the run derives from them."""
    return 8 * n * d + 32 * n


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
    (tally_type), select_k's chunks of it (_select_bytes) and its curve, the
    features and labels (dataset_bytes), `workers` build blocks in flight
    (_row_bytes) and the gathers of their columns (_gather_bytes, the
    first of them outside the cap), and one LabelPanel with its vote
    (_panel_row_bytes), whose charge depends on the tie policy; the blocks,
    their gathers and the panel are further capped at BLOCK_BYTES,
    PANEL_SHARE of which holds the panel. The panel is never narrower than
    min(n, PANEL_FLOOR) rows, the cap growing to hold them and one build
    row. workers is one per CPU (_worker_count), or fewer when the rest of
    the cap does not hold a row of each and the further gathers. Returns a
    RowBlocks: iterating it gives blocks in _row_blocks order, each of rows
    of one fold size and none wider than panel_rows. Raises
    MemoryBudgetExceeded only when one build row and a panel of
    min(n, PANEL_FLOOR) rows do not fit.
    """
    n, d, s, f = dataset.n, dataset.d, dataset.s, folds.f
    if folds.n != n:
        raise InconsistentFolds(f"folds cover {folds.n} rows, dataset has {n}")
    check_policy(policy)
    k_max, tally = folds.k_max, tally_type(folds)
    chunk = _select_bytes(k_max, f, tally)
    gather = _gather_bytes(n, d)
    fixed = (tally.itemsize * k_max * f + chunk + CURVE_POINT_BYTES * k_max
             + dataset_bytes(n, d) + gather + FIXED_BYTES)
    build = _row_bytes(n - int(folds.fold_sizes.min()), d)
    panel = _panel_row_bytes(k_max, s, policy, tally)
    floor = min(n, PANEL_FLOOR)
    required = fixed + build + floor * panel
    if required > memory_budget:
        raise MemoryBudgetExceeded(required, memory_budget)
    cap = min(max(BLOCK_BYTES, floor * panel + build), memory_budget - fixed)
    # the panel takes its share of the cap, at least floor rows, and leaves
    # room for one build row
    width = min(n, max(floor, min(int(cap * PANEL_SHARE), cap - build) // panel))
    # the builds in flight share the rest; fixed holds the first build's
    # gather, and each further build is charged its own
    room = cap - width * panel
    workers = min(_worker_count(), max(1, 1 + (room - build) // (build + gather)))
    room -= (workers - 1) * gather
    # blocks are made as they are used, as a list of n one-row blocks would
    # outgrow the budget
    return RowBlocks(folds, width,
                     lambda m: min(width, max(1, room // (workers * _row_bytes(m, d)))), workers)


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


def _fold_index(ids):
    """The tally's index of a panel's fold ids: a slice when they are one
    ascending run (LOOCV, equal folds), which adds in place where a list of
    ids gathers, adds and scatters, else the ids."""
    if (np.diff(ids) == 1).all():
        return slice(ids[0], ids[-1] + 1)
    return ids


def _vote(labels, dists, truth, s):
    """Overwrite labels[k-1] with each row's leader code at depth k; returns truth's codes.

    Ties go to the smallest code when dists is None, else under shadow_min,
    by the sums of dists[k-1, j], the distances of the labels. Only the
    incoming label's counter changes at depth k, so the leader is kept or
    replaced by that label: O(1) work per vote. Each depth's labels are read
    into one int64 counter index, row * _stride(s) + label. Shadow sums add
    distances in ascending-neighbour order, as the oracle does, so the
    comparisons are exact.
    """
    k_max, w = labels.shape
    stride = _stride(s)
    base = np.arange(w, dtype=np.int64) * stride
    idx = np.empty(w, dtype=np.int64)
    if dists is None:  # smallest_code
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


def select_k(acc, evaluated_k=None):
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

    # The tally is read in C-ordered chunks of its own type, filled one tile
    # of SELECT_TILE_FOLDS folds at a time, so that a fold-major tally is read
    # in whole cache lines. Each float64 copy of some of a chunk's rows is
    # C-ordered too, so sums run in one order whatever the layout. The first
    # max over k (ties keep the smaller k) is a running best per fold; only
    # the folds a part raises are searched for the row of their max.
    best_rows, best = np.zeros(f, dtype=np.intp), correct[0]
    sizes = acc.fold_sizes.astype(np.float64)  # a mixed-type divide holds cast buffers
    means, stds = [], []
    span, step = _chunk_rows(f, correct.itemsize), _chunk_rows(f, 8)
    staged = np.empty((min(rows, span), f), dtype=correct.dtype)
    for top in range(0, rows, span):
        chunk = staged[:rows - top]
        for j in range(0, f, SELECT_TILE_FOLDS):
            chunk[:, j:j + SELECT_TILE_FOLDS] = correct[top:top + span, j:j + SELECT_TILE_FOLDS]
        for lo in range(0, len(chunk), step):
            part = chunk[lo:lo + step]
            count = part.max(axis=0)
            raised = count > best
            if raised.any():
                best_rows[raised] = np.argmax(part.T[raised], axis=1) + top + lo
                best = np.maximum(best, count)
            per_fold = part.astype(np.float64)
            per_fold /= sizes
            mean = per_fold.mean(axis=1)
            # population std, np.std's steps done in place in per_fold
            per_fold -= mean[:, None]
            per_fold *= per_fold
            means += mean.tolist()
            stds += np.sqrt(per_fold.mean(axis=1)).tolist()
            del per_fold  # before the next part exists

    best_k_per_fold = [int(evaluated_k[r]) for r in best_rows]
    k_star = int(math.floor(sum(best_k_per_fold) / len(best_k_per_fold) + 0.5))
    k_star = max(1, min(k_star, max(evaluated_k)))
    curve = [{"k": int(k), "mean_accuracy": mean, "std_accuracy": std}
             for k, mean, std in zip(evaluated_k, means, stds)]

    return KSearchReport(best_k_per_fold=best_k_per_fold, k_star=k_star,
                         curve=curve, evaluated_k=[int(k) for k in evaluated_k])


def _chunk_rows(f, itemsize):
    """Rows of f folds at itemsize bytes that fill SELECT_CHUNK_BYTES (one row at least)."""
    return max(1, SELECT_CHUNK_BYTES // (itemsize * f))


def _select_bytes(k_max, f, tally):
    """Upper bound of the chunks select_k holds: a chunk of tally rows at the
    tally's type, a float64 part of it, and the part's raised folds at the
    tally's type."""
    span, step = min(k_max, _chunk_rows(f, tally.itemsize)), min(k_max, _chunk_rows(f, 8))
    return f * (tally.itemsize * (span + step) + 8 * step)


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
