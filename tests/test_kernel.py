"""The blocked sweep against the brute-force oracle.

The cases aim where a blocked kernel can go wrong: tied distances (integer
features), every metric and tie policy, leave-one-out and skewed folds, many
classes, and memory budgets small enough to force 1-row blocks and blocks
that span folds.
"""

import importlib
import math
import sys
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import panel_of
from knnsweep import cli
from knnsweep.cli import blocked_sweep
from knnsweep.dataset import Dataset, FoldAssignment, generate_synthetic, stratified_folds
from knnsweep.distance import (METRICS, _gather_bytes, _row_bytes, build_sorted_matrix, label_type,
                               sort_rows)
from knnsweep.errors import InconsistentFolds, InconsistentInputs, MemoryBudgetExceeded
from knnsweep.oracle import FoldDistanceCache, cross_validate
from knnsweep.sweep import (TIE_POLICIES, LabelPanel, _panel_row_bytes, _row_blocks, row_blocks,
                            select_k, sweep, tally_type)

sweep_module = importlib.import_module("knnsweep.sweep")


def workers(count):
    """Patch the CPU count row_blocks sizes the build pool by."""
    return mock.patch.object(sweep_module, "_worker_count", return_value=count)


def min_budget(ds, fa, metric="euclidean", policy="smallest_code"):
    """The smallest memory budget blocked_sweep accepts: one row per block."""
    with pytest.raises(MemoryBudgetExceeded) as exc:
        blocked_sweep(ds, fa, metric, policy, memory_budget=1)
    return exc.value.required


def make_instance(n, d, s, integer, fold_kind, f, seed):
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % s)
    if integer:
        features = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    else:
        features = rng.normal(size=(n, d))
    ds = Dataset(features=features, labels=labels, s=s,
                 class_names=[f"c{c}" for c in range(s)])
    if fold_kind == "loocv":
        fa = stratified_folds(ds, n, seed)
    elif fold_kind == "skewed":  # about 90/10, rows shuffled
        fold_of = (rng.permutation(n) >= max(1, (9 * n) // 10)).astype(np.int64)
        fa = FoldAssignment(fold_of=fold_of, f=2)
    else:
        fa = stratified_folds(ds, min(f, n), seed)
    return ds, fa


@settings(max_examples=80, deadline=None)
@given(n=st.integers(4, 40), d=st.integers(1, 3), s=st.integers(2, 20),
       integer=st.booleans(), fold_kind=st.sampled_from(["stratified", "loocv", "skewed"]),
       f=st.integers(2, 8), metric=st.sampled_from(METRICS),
       policy=st.sampled_from(TIE_POLICIES), tight_budget=st.booleans(),
       block_rows=st.sampled_from([None, 1, 2, 3, 5]),
       floor=st.sampled_from([1, sweep_module.PANEL_FLOOR]), seed=st.integers(0, 2**32 - 1))
def test_equals_oracle(n, d, s, integer, fold_kind, f, metric, policy, tight_budget,
                       block_rows, floor, seed):
    s = min(s, n)
    ds, fa = make_instance(n, d, s, integer, fold_kind, f, seed)
    # a tight budget forces 1-row blocks; a small block cap gives blocks of
    # a few rows, which span folds and split them when folds are small; a
    # one-row panel floor lets either cut the panel too
    cap = (sweep_module.BLOCK_BYTES if block_rows is None
           else block_rows * _row_bytes(n, d))
    with mock.patch.multiple(sweep_module, BLOCK_BYTES=cap, PANEL_FLOOR=floor):
        budget = min_budget(ds, fa, metric, policy) if tight_budget else 4 << 30
        acc, _ = blocked_sweep(ds, fa, metric, policy, memory_budget=budget)

    assert_equals_oracle(acc, ds, fa, metric, policy)


def assert_equals_oracle(acc, ds, fa, metric, policy):
    cache = FoldDistanceCache(ds, fa, metric)
    for k in range(1, fa.k_max + 1):
        np.testing.assert_array_equal(
            acc.correct[k - 1], cross_validate(ds, fa, k, metric, policy, cache=cache))


def overflow_instance():
    """Finite features near the float64 limit: distances and their sums overflow."""
    rng = np.random.default_rng(0)
    features = np.clip(rng.normal(size=(60, 4)), -1.7, 1.7) * 1e307
    return Dataset(features=features, labels=rng.permutation(np.arange(60) % 2), s=2,
                   class_names=["a", "b"])


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("policy", TIE_POLICIES)
def test_equals_oracle_when_distance_sums_overflow(metric, policy):
    # distances and their per-class sums overflow to inf, and tied inf sums
    # go to the smallest tied code
    ds = overflow_instance()
    fa = stratified_folds(ds, 4, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        acc, _ = blocked_sweep(ds, fa, metric, policy)
        assert_equals_oracle(acc, ds, fa, metric, policy)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("policy", TIE_POLICIES)
def test_loocv_equals_oracle_when_distance_sums_overflow(metric, policy):
    # one block spans all 60 one-row folds: its own-fold NaN cells and the
    # inf distances share one sort, and NaN must sort after inf
    ds = overflow_instance()
    fa = stratified_folds(ds, ds.n, seed=0)
    assert [b.size for b in row_blocks(ds, fa)] == [60]
    if metric == "euclidean":
        assert np.isinf(build_sorted_matrix(ds, fa, metric, rows=np.arange(60)).distances).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        acc, _ = blocked_sweep(ds, fa, metric, policy)
        assert_equals_oracle(acc, ds, fa, metric, policy)


def test_blocks_one_row_and_spanning():
    ds, fa = make_instance(10, 2, 2, True, "loocv", 0, seed=1)
    single = list(_row_blocks(fa, lambda m: 1))
    assert [b.size for b in single] == [1] * 10
    spanning = list(_row_blocks(fa, lambda m: 4))
    assert [b.size for b in spanning] == [4, 4, 2]
    assert all(np.unique(fa.fold_of[b]).size == b.size for b in spanning)
    # folds of 3 rows packed 7 to a block: the third fold is split
    fa = FoldAssignment(fold_of=np.repeat(np.arange(4), 3), f=4)
    assert [b.tolist() for b in _row_blocks(fa, lambda m: 7)] == [
        [0, 1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11]]
    # 9/1 folds: the small fold packs alone, the large one is split evenly
    fa = FoldAssignment(fold_of=np.array([0] * 9 + [1]), f=2)
    assert [b.tolist() for b in _row_blocks(fa, lambda m: 7)] == [
        [9], [0, 1, 2, 3, 4], [5, 6, 7, 8]]
    # two interleaved folds of 5 rows: each is split on its own, 3 + 2
    fa = FoldAssignment(fold_of=np.arange(10) % 2, f=2)
    assert [b.tolist() for b in _row_blocks(fa, lambda m: 3)] == [
        [0, 2, 4], [6, 8], [1, 3, 5], [7, 9]]


@pytest.mark.parametrize("n,d,s,f,metric,policy", [
    (300, 3, 3, 5, "euclidean", "smallest_code"),
    (200, 40, 2, 10, "manhattan", "smallest_code"),
    (150, 3, 20, 150, "chebyshev", "shadow_min"),
    # LOOCV below numpy's 8192-element ufunc buffer size, where a mixed-type
    # divide in select_k held cast buffers of 16 bytes a tally cell
    (91, 3, 3, 91, "euclidean", "smallest_code"),
    # at scale 4 one block of every row
    (1000, 1500, 2, 2, "euclidean", "smallest_code"),
    # LOOCV whose 2.7 MiB float copy of the tally spans three select_k chunks
    (600, 3, 3, 600, "euclidean", "smallest_code"),
])
@pytest.mark.parametrize("scale", [1, 4])
def test_traced_peak_within_budget(n, d, s, f, metric, policy, scale):
    # the budget covers the whole run: the blocks built at once, the tally
    # and select_k; two workers build concurrently whatever the CPU count
    ds = generate_synthetic(n, d, s, 1.0, seed=n)
    if s == 20:  # integer features: every row has tied distances
        ds = Dataset(features=np.round(ds.features), labels=ds.labels, s=s,
                     class_names=ds.class_names)
    fa = stratified_folds(ds, f, seed=n)
    with workers(2):
        budget = min_budget(ds, fa, metric, policy) * scale
        assert row_blocks(ds, fa, budget, policy).workers == (1 if scale == 1 else 2)
        assert_traced_peak_within(budget, ds, fa, metric, policy)


@pytest.mark.parametrize("n,d,f,metric,scale", [
    (600, 512, 10, "manhattan", 2),
    (200, 512, 200, "euclidean", 1.5),  # LOOCV: every build gathers all n rows
])
def test_traced_peak_within_budget_with_wide_gathers(n, d, f, metric, scale):
    # at d=512 a build's gather of its columns' features outweighs its rows,
    # and up to four builds run at once, each with its own gather
    ds = generate_synthetic(n, d, 3, 1.0, seed=n)
    fa = stratified_folds(ds, f, seed=n)
    with workers(4):
        budget = int(min_budget(ds, fa, metric) * scale)
        assert row_blocks(ds, fa, budget).workers > 1
        assert_traced_peak_within(budget, ds, fa, metric, "smallest_code")


def assert_traced_peak_within(budget, ds, fa, metric, policy):
    """The tracemalloc peak of select_k(blocked_sweep(...)[0]) fits the budget
    less the features, which it charges and which exist before tracing."""
    tracemalloc.start()
    try:
        select_k(blocked_sweep(ds, fa, metric, policy, memory_budget=budget)[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= budget - ds.features.nbytes


@pytest.mark.parametrize("policy", TIE_POLICIES)
@pytest.mark.parametrize("f", [5, 400])
def test_vote_footprint(policy, f):
    # row_blocks charges a panel row _panel_row_bytes: its stored depths and
    # row index, which exist before the vote, and the vote's buffers and hit
    # chunks, which must hold its traced peak; a panel of three blocks of one
    # fold, or of three blocks spanning 400 one-row folds, in uint8 or uint16
    for s in (3, 300):
        ds = generate_synthetic(400, 3, s, 1.0, seed=f)
        fa = stratified_folds(ds, f, seed=f)
        rows = np.flatnonzero(fa.fold_of == 0) if f < ds.n else np.arange(ds.n)
        panel = panel_of(fa, s, *(build_sorted_matrix(ds, fa, rows=part)
                                  for part in np.array_split(rows, 3)), policy=policy)
        stored = sum(a.nbytes for a in (panel.rows, panel.labels, panel.distances)
                     if a is not None)
        correct = np.zeros((fa.k_max, fa.f), dtype=tally_type(fa), order="F")
        tracemalloc.start()
        try:
            sweep(panel, fa, ds.labels, correct=correct)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= rows.size * _panel_row_bytes(fa.k_max, s, policy, tally_type(fa)) - stored


@pytest.fixture
def stage_calls(monkeypatch):
    """The stages blocked_sweep calls, in order: "b" a build, "v" a vote."""
    calls = []
    for name, tag in (("build_sorted_matrix", "b"), ("sweep", "v")):
        def spy(*args, _real=getattr(cli, name), _tag=tag, **kwargs):
            calls.append(_tag)
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    return calls


@pytest.mark.parametrize("policy", TIE_POLICIES)
@pytest.mark.parametrize("instance", [
    # folds of 12, 11, 11 and 11 rows, and 36/4: one panel holds rows of two fold sizes
    lambda: make_instance(45, 2, 3, True, "stratified", 4, seed=6),
    lambda: make_instance(40, 2, 3, True, "skewed", 0, seed=7),
    # LOOCV: blocks of a few rows span folds
    lambda: make_instance(40, 2, 4, True, "loocv", 0, seed=8),
    # 300 classes: a uint16 panel
    lambda: make_instance(330, 2, 300, False, "stratified", 3, seed=9),
    # distance sums overflow to inf, in four folds and in LOOCV
    lambda: (overflow_instance(), stratified_folds(overflow_instance(), 4, seed=0)),
    lambda: (overflow_instance(), stratified_folds(overflow_instance(), 60, seed=0)),
], ids=["unequal_folds", "skewed", "loocv", "uint16", "overflow", "overflow_loocv"])
def test_panel_of_several_blocks_equals_oracle(instance, policy, stage_calls):
    ds, fa = instance()
    # panels of a third of the rows, below the panel floor; blocks of two
    # rows of the smallest fold, whose rows have the most columns, and of
    # more rows of larger folds
    panel_bytes = ds.n // 3 * _panel_row_bytes(fa.k_max, ds.s, policy, tally_type(fa))
    cap = panel_bytes + 2 * _row_bytes(ds.n - int(fa.fold_sizes.min()), ds.d)
    share = (panel_bytes + 0.5) / cap
    with mock.patch.multiple(sweep_module, BLOCK_BYTES=cap, PANEL_SHARE=share, PANEL_FLOOR=1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acc, _ = blocked_sweep(ds, fa, "euclidean", policy)
    panels = "".join(stage_calls).split("v")  # the builds packed into each voted panel
    assert len(panels) > 3 and panels[-1] == "" and max(map(len, panels)) >= 3
    assert_equals_oracle(acc, ds, fa, "euclidean", policy)


@pytest.mark.parametrize("policy", TIE_POLICIES)
@pytest.mark.parametrize("fold_of, one_run", [
    (np.arange(24), True),  # LOOCV
    (np.arange(24) % 4, True),  # equal folds
    (np.repeat([0, 1, 2], [3, 2, 3]), False),  # row_blocks orders folds 1, 0, 2
], ids=["loocv", "equal_folds", "sizes_3_2_3"])
def test_slice_and_fancy_tally_updates_agree(fold_of, one_run, policy):
    # a panel whose fold ids form one ascending run adds its hits into a
    # slice of the tally, else through the list of its fold ids; either way
    # gives the same tally, to the byte, one panel of all rows or one a block
    rng = np.random.default_rng(fold_of.size)
    ds = Dataset(features=rng.integers(0, 3, size=(fold_of.size, 2)).astype(np.float64),
                 labels=rng.permutation(np.arange(fold_of.size) % 3), s=3,
                 class_names=["a", "b", "c"])
    fa = FoldAssignment(fold_of=fold_of, f=int(fold_of.max()) + 1)
    blocks = [build_sorted_matrix(ds, fa, "manhattan", rows=rows) for rows in row_blocks(ds, fa)]
    fold_index = sweep_module._fold_index
    tallies, indices = [], []
    for fancy in (False, True):
        def spy(ids, fancy=fancy):
            index = ids if fancy else fold_index(ids)
            indices.append(index)
            return index
        correct = np.zeros((fa.k_max, fa.f), dtype=tally_type(fa), order="F")
        with mock.patch.object(sweep_module, "_fold_index", spy):
            sweep(panel_of(fa, ds.s, *blocks, policy=policy), fa, ds.labels, correct)
            for block in blocks:
                sweep(panel_of(fa, ds.s, block, policy=policy), fa, ds.labels, correct)
        tallies.append(correct)
    assert isinstance(indices[0], slice) == one_run
    if one_run:
        assert all(isinstance(index, slice) for index in indices[:len(blocks) + 1])
    assert tallies[0].tobytes(order="A") == tallies[1].tobytes(order="A")
    acc, _ = blocked_sweep(ds, fa, "manhattan", policy)
    np.testing.assert_array_equal(tallies[0], 2 * acc.correct)  # each row voted twice
    assert_equals_oracle(acc, ds, fa, "manhattan", policy)


def test_panel_codes_are_narrowest_unsigned():
    assert [label_type(s) for s in (2, 3, 256, 257, 65536)] == [np.uint8] * 3 + [np.uint16] * 2


@pytest.mark.parametrize("s, code", [(3, np.uint8), (300, np.uint16)])
def test_blocks_carry_the_panel_codes(s, code):
    # a build gathers the codes a panel holds, so packing a block casts nothing
    ds = generate_synthetic(400, 2, s, 1.0, seed=s)
    fa = stratified_folds(ds, 5, seed=s)
    for rows in (np.flatnonzero(fa.fold_of == 0), np.arange(ds.n)[:7]):  # one fold, or spanning
        block = build_sorted_matrix(ds, fa, rows=rows)
        assert block.labels.dtype == label_type(ds.s) == code
        assert block.labels.dtype == LabelPanel(1, fa.k_max, ds.s).labels.dtype
        np.testing.assert_array_equal(block.labels, ds.labels[block.sources])


def test_budget_refused_only_below_one_row(toy):
    ds, fa = toy
    required = min_budget(ds, fa)
    with pytest.raises(MemoryBudgetExceeded):
        blocked_sweep(ds, fa, memory_budget=required - 1)
    acc, _ = blocked_sweep(ds, fa, memory_budget=required)
    assert acc.correct.tolist() == [[1, 2], [1, 1]]


@pytest.mark.parametrize("floor", [40, 1000])
def test_smallest_budget_holds_a_panel_floor(floor):
    # the smallest budget prices a panel of min(n, PANEL_FLOOR) rows, and no
    # budget or block cap gives a narrower one
    ds, fa = make_instance(300, 2, 3, True, "stratified", 5, seed=14)
    rows = min(ds.n, floor)
    with mock.patch.object(sweep_module, "PANEL_FLOOR", 1):
        one_row = min_budget(ds, fa)
    with mock.patch.object(sweep_module, "PANEL_FLOOR", floor):
        budget = min_budget(ds, fa)
        assert budget - one_row == (rows - 1) * _panel_row_bytes(fa.k_max, ds.s, "smallest_code",
                                                                 tally_type(fa))
        assert row_blocks(ds, fa, budget).panel_rows == rows
        with mock.patch.object(sweep_module, "BLOCK_BYTES", 1):
            assert row_blocks(ds, fa).panel_rows == rows
        acc, _ = blocked_sweep(ds, fa, memory_budget=budget)
    assert_equals_oracle(acc, ds, fa, "euclidean", "smallest_code")


def test_block_cap_below_one_row_still_runs(toy):
    ds, fa = toy
    with mock.patch.object(sweep_module, "BLOCK_BYTES", 1):
        acc, _ = blocked_sweep(ds, fa)
    assert acc.correct.tolist() == [[1, 2], [1, 1]]


def test_budget_of_one_build_row_builds_one_block_at_once():
    ds, fa = make_instance(60, 2, 3, True, "stratified", 4, seed=3)
    with workers(2), mock.patch.object(sweep_module, "PANEL_FLOOR", 1):
        budget = min_budget(ds, fa)
        assert row_blocks(ds, fa, budget).workers == 1
        acc, _ = blocked_sweep(ds, fa, memory_budget=budget)
        assert_equals_oracle(acc, ds, fa, "euclidean", "smallest_code")
        # the one-row panel takes PANEL_SHARE of what the budget adds: room
        # for a second build row but not its gather stays one at once, room
        # for both two
        build = _row_bytes(ds.n - int(fa.fold_sizes.min()), ds.d)
        for added, count in ((2 * build, 1), (2 * (build + _gather_bytes(ds.n, ds.d)), 2)):
            added = math.ceil(added / (1 - sweep_module.PANEL_SHARE))
            assert row_blocks(ds, fa, budget + added).workers == count


def many_blocks(ds, fa, block_rows, count=2, policy="smallest_code"):
    """Patch the cap and its panel share so that a panel holds a third of the
    rows, below the panel floor, and the rest holds `count` build blocks in
    flight, each of block_rows rows of the widest build, and the gathers of
    all but the first."""
    row = _row_bytes(ds.n - int(fa.fold_sizes.min()), ds.d)
    room = count * block_rows * row + (count - 1) * _gather_bytes(ds.n, ds.d)
    panel = ds.n // 3 * _panel_row_bytes(fa.k_max, ds.s, policy, tally_type(fa))
    return mock.patch.multiple(sweep_module, BLOCK_BYTES=panel + room,
                               PANEL_SHARE=(panel + 0.5) / (panel + room), PANEL_FLOOR=1)


@pytest.mark.parametrize("policy", TIE_POLICIES)
@pytest.mark.parametrize("instance", [
    # LOOCV: blocks of a few rows span folds
    lambda: make_instance(120, 2, 4, True, "loocv", 0, seed=10),
    # folds of 26 and 25 rows
    lambda: make_instance(102, 3, 3, True, "stratified", 4, seed=11),
    # 300 classes: a uint16 panel
    lambda: make_instance(330, 2, 300, False, "stratified", 3, seed=12),
], ids=["loocv", "unequal_folds", "s300"])
def test_worker_counts_give_one_tally(instance, policy):
    ds, fa = instance()
    tallies = []
    for count in (1, 2, 3):
        with workers(count), many_blocks(ds, fa, 3, count=3, policy=policy):
            blocks = row_blocks(ds, fa, policy=policy)
            assert blocks.workers == count and len(list(blocks)) > 3 * count
            acc, _ = blocked_sweep(ds, fa, "chebyshev", policy)
        tallies.append(acc.correct)
    for tally in tallies[1:]:
        assert tally.dtype == tallies[0].dtype and tally.tobytes() == tallies[0].tobytes()
    assert_equals_oracle(acc, ds, fa, "chebyshev", policy)


def test_one_pool_per_call():
    ds, fa = make_instance(90, 2, 3, False, "stratified", 5, seed=4)
    with workers(2), many_blocks(ds, fa, 2), \
            mock.patch.object(cli, "ThreadPoolExecutor", wraps=cli.ThreadPoolExecutor) as pool:
        assert len(list(row_blocks(ds, fa))) > 4
        for calls in (1, 2):
            blocked_sweep(ds, fa)
            assert pool.call_count == calls
    assert [call.args for call in pool.call_args_list] == [(2,), (2,)]


def test_stress_more_workers_than_cores():
    # eight workers on one-row blocks, switching threads every microsecond:
    # a lost reservation or a pack into another block's columns changes the tally
    ds, fa = make_instance(120, 2, 4, True, "loocv", 0, seed=13)
    with workers(1):
        serial = blocked_sweep(ds, fa, "manhattan", "shadow_min")[0].correct.tobytes()
    interval = sys.getswitchinterval()
    deadline = time.monotonic() + 5.0
    rounds = 0
    sys.setswitchinterval(1e-6)
    try:
        with workers(8), many_blocks(ds, fa, 1, count=8, policy="shadow_min"):
            blocks = row_blocks(ds, fa, policy="shadow_min")
            assert blocks.workers == 8 and len(list(blocks)) > 8 * 8
            while rounds < 10 and (rounds == 0 or time.monotonic() < deadline):
                acc, _ = blocked_sweep(ds, fa, "manhattan", "shadow_min")
                assert acc.correct.tobytes() == serial
                rounds += 1
    finally:
        sys.setswitchinterval(interval)
    assert rounds >= 1


def test_seconds_cover_the_call(toy):
    ds, fa = toy
    _, seconds = blocked_sweep(ds, fa)
    assert list(seconds) == ["distance", "sort", "sweep", "total"]
    phases = seconds["distance"] + seconds["sort"] + seconds["sweep"]
    assert 0 <= phases <= seconds["total"]
    # many blocks, two built at once: their own build times overlap, and
    # the phases are this thread's waits and votes
    ds, fa = make_instance(400, 3, 3, False, "stratified", 5, seed=5)
    with workers(2), many_blocks(ds, fa, 8):
        _, seconds = blocked_sweep(ds, fa)
    assert list(seconds) == ["distance", "sort", "sweep", "total"]
    phases = seconds["distance"] + seconds["sort"] + seconds["sweep"]
    assert min(seconds.values()) > 0 and phases <= seconds["total"]


def test_seconds_cover_slow_submits():
    # a submit waits for the GIL while the builds run; timed with the waits
    # for the builds, 2 ms submits of 50 blocks stay inside the phases
    class SlowSubmits(cli.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            time.sleep(0.002)
            return super().submit(*args, **kwargs)

    ds, fa = make_instance(400, 3, 3, False, "stratified", 5, seed=5)
    with workers(2), many_blocks(ds, fa, 8), mock.patch.object(cli, "ThreadPoolExecutor", SlowSubmits):
        assert len(list(row_blocks(ds, fa))) >= 40
        _, seconds = blocked_sweep(ds, fa)
    phases = seconds["distance"] + seconds["sort"] + seconds["sweep"]
    assert phases >= 0.95 * seconds["total"], seconds


def test_inconsistent_folds(toy):
    ds, _ = toy
    with pytest.raises(InconsistentFolds):
        blocked_sweep(ds, FoldAssignment(fold_of=np.array([0, 1, 0]), f=2))


@settings(max_examples=50, deadline=None)
@given(rows=st.integers(1, 40), cols=st.integers(1, 30),
       levels=st.integers(1, 4), with_inf=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_sort_rows_equals_stable_argsort(rows, cols, levels, with_inf, seed):
    d = np.random.default_rng(seed).integers(0, levels, size=(rows, cols)).astype(np.float64)
    if with_inf:  # overflowed distances tie too
        d[d == levels - 1] = np.inf
    order, sorted_d = sort_rows(d)
    expected = np.argsort(d, axis=1, kind="stable")
    np.testing.assert_array_equal(order, expected)
    np.testing.assert_array_equal(sorted_d, np.take_along_axis(d, expected, axis=1))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 30), f=st.integers(2, 9), integer=st.booleans(),
       metric=st.sampled_from(METRICS), data=st.data())
def test_block_rows_equal_single_row_builds(n, f, integer, metric, data):
    # a block spanning folds takes all n columns and drops each row's own
    # fold after the sort; a one-row block takes its fold's complement only
    ds, fa = make_instance(n, 2, 2, integer, "stratified", f, seed=n * f)
    size = data.draw(st.sampled_from(sorted(set(fa.fold_sizes.tolist()))))
    same_size = np.flatnonzero(fa.fold_sizes[fa.fold_of] == size).tolist()
    rows = data.draw(st.lists(st.sampled_from(same_size), min_size=1, unique=True))
    block = build_sorted_matrix(ds, fa, metric, rows=rows)
    assert block.n == len(rows) and block.rows.tolist() == rows
    assert block.valid_len.tolist() == [n - size] * len(rows)
    for j, r in enumerate(rows):
        one = build_sorted_matrix(ds, fa, metric, rows=[r])
        for name in ("distances", "labels", "sources"):
            np.testing.assert_array_equal(getattr(block, name)[j], getattr(one, name)[0])


def test_block_tallies_add_up(toy):
    ds, fa = toy
    correct = np.zeros((fa.k_max, fa.f), dtype=np.int64)
    for rows in ([3, 0], [1], [2]):
        panel = panel_of(fa, ds.s, build_sorted_matrix(ds, fa, rows=rows))
        acc = sweep(panel, fa, ds.labels, correct=correct)
        assert panel.size == 0  # the vote empties its panel
    assert acc.correct.tolist() == [[1, 2], [1, 1]]
    assert not acc.correct.flags.writeable and correct.flags.writeable


def test_tally_is_narrowest_type_that_counts_a_fold():
    ds = generate_synthetic(40, 2, 4, 0.5, seed=3)
    acc, _ = blocked_sweep(ds, stratified_folds(ds, ds.n, seed=3))  # LOOCV
    assert acc.correct.dtype == np.int8
    # two folds of 128 rows in two far-apart classes: every row is right at
    # k=1, and 128 would wrap to -128 in an int8 tally
    features = np.r_[np.arange(128.0), 1000.0 + np.arange(128.0)][:, None]
    ds = Dataset(features=features, labels=np.repeat([0, 1], 128), s=2,
                 class_names=["a", "b"])
    fa = FoldAssignment(fold_of=np.arange(256) % 2, f=2)
    acc, _ = blocked_sweep(ds, fa)
    assert acc.correct.dtype == tally_type(fa) == np.int16
    assert acc.correct[0].tolist() == [128, 128]
    block = build_sorted_matrix(ds, fa, rows=np.flatnonzero(fa.fold_of == 0))
    # the default tally
    assert sweep(panel_of(fa, ds.s, block), fa, ds.labels).correct.dtype == np.int16
    for tally in (np.zeros((fa.k_max, fa.f), dtype=np.int8),
                  np.zeros((fa.k_max, fa.f), dtype=np.float64)):
        with pytest.raises(InconsistentInputs):
            sweep(panel_of(fa, ds.s, block), fa, ds.labels, correct=tally)


def test_block_inputs_checked(toy):
    ds, fa = toy
    for rows in ([], [4], [-1], [[0, 1]], [1, 1]):  # [1, 1]: a row counted twice
        with pytest.raises(InconsistentInputs):
            build_sorted_matrix(ds, fa, rows=rows)
    block = build_sorted_matrix(ds, fa, rows=[0, 1])
    with pytest.raises(InconsistentInputs):  # a panel with nothing packed
        sweep(LabelPanel(2, fa.k_max, ds.s), fa, ds.labels)
    for panel in (LabelPanel(1, fa.k_max, ds.s), LabelPanel(2, fa.k_max + 1, ds.s)):
        with pytest.raises(InconsistentInputs):  # too few free rows, or neighbours
            panel.pack(block, panel.reserve(block.rows))
    panel = LabelPanel(3, fa.k_max, ds.s)
    with pytest.raises(InconsistentInputs):  # more rows than room
        panel.reserve([0, 1, 2, 3])
    assert (panel.reserve([1]), panel.reserve([0, 1])) == (0, 1)
    for lo in (0, 2):  # the rows reserved there are [1, 0] and [1]
        with pytest.raises(InconsistentInputs):
            panel.pack(block, lo)
    panel.pack(block, 1)
    panel = panel_of(fa, ds.s, block)
    with pytest.raises(InconsistentInputs):
        sweep(panel, fa, ds.labels, correct=np.zeros((fa.k_max + 1, fa.f), dtype=np.int64))
    other = FoldAssignment(fold_of=np.array([0, 0, 0, 1]), f=2)  # another k_max
    with pytest.raises(InconsistentInputs):
        sweep(panel, other, ds.labels)
    with pytest.raises(InconsistentInputs):  # rows of folds of 3 and 1 rows
        build_sorted_matrix(ds, other, rows=[0, 3])
    interleaved = build_sorted_matrix(ds, fa, rows=[0, 1, 2, 3])  # folds 0, 1, 0, 1
    with pytest.raises(InconsistentInputs):
        sweep(panel_of(fa, ds.s, interleaved), fa, ds.labels)
    assert sum(b.size for b in row_blocks(ds, fa)) == ds.n


def test_tally_is_fold_major():
    ds, fa = make_instance(30, 2, 3, True, "stratified", 3, seed=2)
    acc, _ = blocked_sweep(ds, fa)
    assert acc.correct.shape == (fa.k_max, 3) and acc.correct.flags.f_contiguous
    panel = panel_of(fa, ds.s, build_sorted_matrix(ds, fa, rows=np.flatnonzero(fa.fold_of == 0)))
    assert sweep(panel, fa, ds.labels).correct.flags.f_contiguous  # the default tally


@pytest.mark.parametrize("fold_kind", ["stratified", "loocv", "skewed"])
def test_tally_layout_counts_the_same(fold_kind):
    ds, fa = make_instance(40, 2, 3, True, fold_kind, 4, seed=5)
    acc, _ = blocked_sweep(ds, fa, memory_budget=min_budget(ds, fa) * 3)
    for order in ("C", "F"):
        correct = np.zeros((fa.k_max, fa.f), dtype=np.int64, order=order)
        for rows in row_blocks(ds, fa):  # one block a panel
            panel = panel_of(fa, ds.s, build_sorted_matrix(ds, fa, rows=rows))
            sweep(panel, fa, ds.labels, correct=correct)
        np.testing.assert_array_equal(correct, acc.correct)
    assert_equals_oracle(acc, ds, fa, "euclidean", "smallest_code")
