"""Command-line front end: optimize | bench | curves.

It parses and prints only: argparse refuses bad usage (exit 2), the library
checks each value it uses and main returns its error's exit code, and a
report goes to its output file or else alone on stdout. Timings wrap the
core computation only (distance, sort, sweep and select phases and their
total, or the naive total); file I/O and parsing sit outside every timed
region. A mode runs once per call, and its report's `timing` holds that
run's phases.
"""

import argparse
import json
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import generate_synthetic, load_csv, stratified_folds
from .distance import METRICS, build_sorted_matrix
from .errors import BadParams, IoError, KnnSweepError, MemoryBudgetExceeded
from .oracle import full_schedule, logarithmic_schedule, naive_search
from .sweep import (DEFAULT_MEMORY_BUDGET, TIE_POLICIES, LabelPanel, accuracy_curve_export,
                    dataset_bytes, row_blocks, select_k, sweep, tally_type)

MODES = ("sweep", "naive-full", "naive-log")
CURVE_FOLD_COUNTS = (3, 5, 10, 20)


def _parse_synthetic(spec):
    parts = spec.split(",")
    if len(parts) != 4:
        raise BadParams(f"--synthetic wants 'n,d,s,spread', got {spec!r}")
    try:
        n, d, s = int(parts[0]), int(parts[1]), int(parts[2])
        spread = float(parts[3])
    except ValueError as exc:
        raise BadParams(f"--synthetic {spec!r}: {exc}") from exc
    return n, d, s, spread


def _modes(spec):
    """argparse type of --modes: two or more distinct names from MODES."""
    modes = [m.strip() for m in spec.split(",") if m.strip()]
    if set(modes) - set(MODES) or len(modes) < 2 or len(set(modes)) != len(modes):
        raise argparse.ArgumentTypeError(
            f"want two or more distinct modes from {','.join(MODES)}, got {spec!r}")
    return modes


def _load_data(args):
    if args.synthetic is None:
        return load_csv(args.input, "label" if args.label_col is None else args.label_col)
    n, d, s, spread = _parse_synthetic(args.synthetic)
    # row_blocks' charge for the features: refuse before numpy fails to allocate them
    required = dataset_bytes(n, d)
    if min(n, d) > 0 and required > args.memory_budget:
        raise MemoryBudgetExceeded(required, args.memory_budget)
    return generate_synthetic(n, d, s, spread, args.seed)


def blocked_sweep(dataset, folds, metric="euclidean", policy="smallest_code",
                  memory_budget=DEFAULT_MEMORY_BUDGET):
    """Accuracy for every k = 1..k_max, one label panel at a time.

    Each block of row_blocks is one task on a pool of blocks.workers
    threads, one pool per call: it gets its sorted neighbour lists from
    build_sorted_matrix, in the panel's label codes, copies them into the
    panel columns this thread reserved for it in block order, and frees the
    block. At most blocks.workers tasks are pending at once. Once all tasks
    of a full panel are done, sweep votes it on this thread into one running
    tally, breaking ties by the policy the panel was made with, and only
    then is the next panel's first task submitted; the last panel is voted
    after the last block. So blocks.workers build blocks and one panel exist
    at once. The stages are called through this module's names, which
    perfbench/child.py wraps in spans. Returns (AccuracyMatrix, seconds),
    wall-clock on this thread: "distance" and "sort" split its waits for
    the builds and its submits of them in the ratio of the builds' own
    build_seconds, "sweep" is the votes, and "total" the whole call.
    """
    t_start = time.perf_counter()
    # fold-major: each panel adds one contiguous run of k_max counts per fold
    correct = np.zeros((folds.k_max, folds.f), dtype=tally_type(folds), order="F")
    blocks = row_blocks(dataset, folds, memory_budget, policy)
    panel = LabelPanel(blocks.panel_rows, folds.k_max, dataset.s, policy)
    tasks = deque()
    spent = {"wait": 0.0, "sweep": 0.0, "distance": 0.0, "sort": 0.0}

    def build(rows, lo):
        block = build_sorted_matrix(dataset, folds, metric, rows=rows)
        panel.pack(block, lo)
        return block.build_seconds

    def wait(pending, rows=None):
        """Wait until at most `pending` tasks are left, then submit the build of `rows`, if any."""
        t0 = time.perf_counter()
        while len(tasks) > pending:
            for phase, t in tasks.popleft().result().items():
                spent[phase] += t
        if rows is not None:  # a submit waits for the GIL while the builds run
            tasks.append(pool.submit(build, rows, panel.reserve(rows)))
        spent["wait"] += time.perf_counter() - t0

    def vote():
        wait(0)
        t0 = time.perf_counter()
        acc = sweep(panel, folds, dataset.labels, correct=correct)
        spent["sweep"] += time.perf_counter() - t0
        return acc

    with ThreadPoolExecutor(blocks.workers) as pool:
        for rows in blocks:
            if rows.size > panel.room:
                vote()
            wait(blocks.workers - 1, rows)
        acc = vote()
    share = spent["distance"] / ((spent["distance"] + spent["sort"]) or 1)
    return acc, {"distance": spent["wait"] * share, "sort": spent["wait"] * (1 - share),
                 "sweep": spent["sweep"], "total": time.perf_counter() - t_start}


def run_mode(mode, dataset, folds, args):
    """Run one optimization mode once; returns its KSearchReport, timing included."""
    if mode == "sweep":
        acc, seconds = blocked_sweep(dataset, folds, args.metric, args.tie_policy,
                                     args.memory_budget)
        t0 = time.perf_counter()
        report = select_k(acc)
        select = time.perf_counter() - t0
        total = seconds.pop("total") + select
        report.timing.update(seconds, select=select, total=total)
        return report
    schedule = (full_schedule(folds.k_max) if mode == "naive-full"
                else logarithmic_schedule(folds.k_max))
    return naive_search(dataset, folds, schedule, args.metric, args.tie_policy)


def _emit(path, text):
    """Write text and a newline to path; without a path, print it alone on stdout."""
    if not path:
        print(text)
        return
    try:
        Path(path).write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def cmd_optimize(args):
    dataset = _load_data(args)
    folds = stratified_folds(dataset, args.folds, args.seed)
    report = run_mode(args.mode, dataset, folds, args)

    if args.curve:  # first: a curve that cannot be written leaves no report behind
        accuracy_curve_export(report, args.curve)
    _emit(args.output, report.to_json())
    if args.output:  # else stdout holds the report alone
        print(f"k* = {report.k_star}")
        for phase, t in report.timing.items():
            print(f"  {phase}: {t:.4f}s")
    return 0


def cmd_bench(args):
    dataset = _load_data(args)
    folds = stratified_folds(dataset, args.folds, args.seed)

    results = {}
    reports = {}
    for mode in args.modes:
        report = run_mode(mode, dataset, folds, args)
        reports[mode] = report
        results[mode] = {"seconds": report.timing, "k_star": report.k_star}

    # agreement gate: a disagreement is a bug, not a benchmark result
    if "sweep" in reports and "naive-full" in reports:
        a, b = reports["sweep"], reports["naive-full"]
        if a.curve != b.curve or a.k_star != b.k_star:
            raise KnnSweepError("sweep and naive-full disagree on curve or k*")

    speedups = {}
    if "sweep" in results:
        base = results["sweep"]["seconds"]["total"]
        for mode in args.modes:
            if mode != "sweep":
                speedups[f"{mode}_vs_sweep"] = results[mode]["seconds"]["total"] / base

    _emit(args.output, json.dumps({
        "dataset": {"n": dataset.n, "d": dataset.d, "s": dataset.s, "f": folds.f},
        "modes": results,
        "speedups": speedups,
    }, indent=2))
    return 0


def cmd_curves(args):
    dataset = _load_data(args)
    # every fold count and its memory budget are checked before anything is written
    all_folds = [stratified_folds(dataset, f, args.seed) for f in CURVE_FOLD_COUNTS]
    for folds in all_folds:
        row_blocks(dataset, folds, args.memory_budget, args.tie_policy)
    outdir = Path(args.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {outdir}: {exc}") from exc

    summary = ["f,time_seconds"]
    for f, folds in zip(CURVE_FOLD_COUNTS, all_folds):
        report = run_mode("sweep", dataset, folds, args)
        accuracy_curve_export(report, outdir / f"curve_f{f}.csv")
        summary.append("%d,%.6f" % (f, report.timing["total"]))
    _emit(outdir / "summary.csv", "\n".join(summary))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="knnsweep",
        description="Find the best k for kNN classification in a single pass "
                    "over a fold-masked sorted distance matrix.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", help="CSV file with a header row")
        source.add_argument("--synthetic", metavar="N,D,S,SPREAD",
                            help="generate a Gaussian-mixture dataset instead of reading a file")
        p.add_argument("--label-col",
                       help="label column name or index of --input (default: label)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--metric", choices=METRICS, default="euclidean")
        p.add_argument("--tie-policy", choices=TIE_POLICIES, default="smallest_code")
        p.add_argument("--memory-budget", type=int, default=DEFAULT_MEMORY_BUDGET,
                       help="bound on the sweep's working memory in bytes; row blocks "
                            "shrink to fit, and the run is refused only when one "
                            "row does not fit")

    p_opt = sub.add_parser("optimize", help="run one mode and write a k-search report")
    add_common(p_opt)
    p_opt.add_argument("--folds", type=int, default=5)
    p_opt.add_argument("--mode", choices=MODES, default="sweep")
    p_opt.add_argument("--output", help="JSON report path (default: stdout)")
    p_opt.add_argument("--curve", help="also write the accuracy curve CSV here")
    p_opt.set_defaults(func=cmd_optimize)

    p_bench = sub.add_parser("bench", help="time several modes on identical inputs")
    add_common(p_bench)
    p_bench.add_argument("--folds", type=int, default=5)
    p_bench.add_argument("--modes", type=_modes, default="sweep,naive-full",
                         help="comma-separated list from: " + ",".join(MODES))
    p_bench.add_argument("--output", help="JSON result path (default: stdout)")
    p_bench.set_defaults(func=cmd_bench)

    p_curves = sub.add_parser(
        "curves", help="sweep at fold counts 3,5,10,20 and export curves + timings")
    add_common(p_curves)
    p_curves.add_argument("--output-dir", required=True)
    p_curves.set_defaults(func=cmd_curves)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.synthetic is not None and args.label_col is not None:
        parser.error("--label-col names a column of --input, and --synthetic reads no file")
    try:
        return args.func(args)
    except KnnSweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
