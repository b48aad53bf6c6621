"""Command-line front end: optimize | bench | curves.

Timings wrap the core computation only (distance, sort, sweep phases and
their total, or the naive total); file I/O and parsing sit outside every
timed region. With --repeat N each timed phase reports the minimum over N
runs.
"""

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import generate_synthetic, load_csv, stratified_folds
from .distance import DEFAULT_MEMORY_BUDGET, METRICS, build_sorted_matrix
from .errors import BadParams, IoError, KnnSweepError, ValidationError
from .oracle import full_schedule, logarithmic_schedule, naive_search
from .sweep import TIE_POLICIES, accuracy_curve_export, row_blocks, select_k, sweep

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


def _load_data(args):
    if args.input and args.synthetic:
        raise ValidationError("give either --input or --synthetic, not both")
    if args.input:
        return load_csv(args.input, args.label_col)
    if args.synthetic:
        n, d, s, spread = _parse_synthetic(args.synthetic)
        return generate_synthetic(n, d, s, spread, args.seed)
    raise ValidationError("one of --input or --synthetic is required")


def blocked_sweep(dataset, folds, metric="euclidean", policy="smallest_code",
                  memory_budget=DEFAULT_MEMORY_BUDGET):
    """Accuracy for every k = 1..k_max, one row block at a time.

    Each block of row_blocks gets its sorted neighbour lists from
    build_sorted_matrix and is tallied by sweep into one running count, so
    no more than one block's lists exist at once. The stages are called
    through this module's names, which perfbench/child.py wraps in spans.
    Returns (AccuracyMatrix, seconds): "distance", "sort" and "sweep" summed
    over the blocks, and "total" for the whole call.
    """
    t_start = time.perf_counter()
    seconds = {"distance": 0.0, "sort": 0.0, "sweep": 0.0}
    correct = np.zeros((folds.k_max, folds.f), dtype=np.int64)
    for rows in row_blocks(dataset, folds, memory_budget):
        block = build_sorted_matrix(dataset, folds, metric, memory_budget, rows=rows)
        t0 = time.perf_counter()
        acc = sweep(block, folds, dataset.labels, policy, correct=correct)
        seconds["sweep"] += time.perf_counter() - t0
        seconds["distance"] += block.build_seconds["distance"]
        seconds["sort"] += block.build_seconds["sort"]
        del block  # before the next block is built
    seconds["total"] = time.perf_counter() - t_start
    return acc, seconds


def run_mode(mode, dataset, folds, args):
    """Run one optimization mode; returns (report, phase seconds).

    Repeats the timed computation --repeat times and keeps the per-phase
    minimum; outputs are identical across repeats by determinism.
    """
    best = None
    report = None
    for _ in range(args.repeat):
        if mode == "sweep":
            acc, seconds = blocked_sweep(dataset, folds, args.metric, args.tie_policy,
                                         args.memory_budget)
            report = select_k(acc)
        else:
            schedule = (full_schedule(folds.k_max) if mode == "naive-full"
                        else logarithmic_schedule(folds.k_max))
            report = naive_search(dataset, folds, schedule,
                                  args.metric, args.tie_policy)
            seconds = {"total": report.timing["naive_total"]}
        if best is None:
            best = seconds
        else:
            best = {k: min(best[k], seconds[k]) for k in best}
    report = dataclasses.replace(report, timing=best)
    return report, best


def _write_text(path, text):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def cmd_optimize(args):
    dataset = _load_data(args)
    folds = stratified_folds(dataset, args.folds, args.seed)
    report, seconds = run_mode(args.mode, dataset, folds, args)

    payload = report.to_json()
    if args.output:
        _write_text(args.output, payload + "\n")
    else:
        print(payload)
    if args.curve:
        accuracy_curve_export(report, args.curve)

    print(f"k* = {report.k_star}")
    for phase, t in seconds.items():
        print(f"  {phase}: {t:.4f}s")
    return 0


def cmd_bench(args):
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    for m in modes:
        if m not in MODES:
            raise ValidationError(f"unknown mode {m!r}; choose from {MODES}")
    if len(modes) < 2:
        raise ValidationError("bench needs at least two modes")
    if len(set(modes)) != len(modes):
        raise ValidationError(f"bench modes must be distinct, got {args.modes!r}")

    dataset = _load_data(args)
    folds = stratified_folds(dataset, args.folds, args.seed)

    results = {}
    reports = {}
    for mode in modes:
        report, seconds = run_mode(mode, dataset, folds, args)
        reports[mode] = report
        results[mode] = {"seconds": seconds, "k_star": report.k_star}

    # agreement gate: a disagreement is a bug, not a benchmark result
    if "sweep" in reports and "naive-full" in reports:
        a, b = reports["sweep"], reports["naive-full"]
        if a.curve != b.curve or a.k_star != b.k_star:
            raise KnnSweepError("sweep and naive-full disagree on curve or k*")

    speedups = {}
    if "sweep" in results:
        base = results["sweep"]["seconds"]["total"]
        for mode in modes:
            if mode != "sweep":
                speedups[f"{mode}_vs_sweep"] = results[mode]["seconds"]["total"] / base

    payload = json.dumps({
        "dataset": {"n": dataset.n, "d": dataset.d, "s": dataset.s, "f": folds.f},
        "modes": results,
        "speedups": speedups,
    }, indent=2)
    if args.output:
        _write_text(args.output, payload + "\n")
    else:
        print(payload)
    return 0


def cmd_curves(args):
    dataset = _load_data(args)
    outdir = Path(args.output_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {outdir}: {exc}") from exc

    summary = ["f,time_seconds"]
    for f in CURVE_FOLD_COUNTS:
        folds = stratified_folds(dataset, f, args.seed)
        report, seconds = run_mode("sweep", dataset, folds, args)
        accuracy_curve_export(report, outdir / f"curve_f{f}.csv")
        summary.append("%d,%.6f" % (f, seconds["total"]))
    _write_text(outdir / "summary.csv", "\n".join(summary) + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="knnsweep",
        description="Find the best k for kNN classification in a single pass "
                    "over a fold-masked sorted distance matrix.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", help="CSV file with a header row")
        p.add_argument("--synthetic", metavar="N,D,S,SPREAD",
                       help="generate a Gaussian-mixture dataset instead of reading a file")
        p.add_argument("--label-col", default="label",
                       help="label column name or index (default: label)")
        p.add_argument("--folds", type=int, default=5)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--metric", choices=METRICS, default="euclidean")
        p.add_argument("--tie-policy", choices=TIE_POLICIES, default="smallest_code")
        p.add_argument("--memory-budget", type=int, default=DEFAULT_MEMORY_BUDGET,
                       help="bound on the sweep's working memory in bytes; row blocks "
                            "shrink to fit, and the run is refused only when one "
                            "row does not fit")
        p.add_argument("--repeat", type=int, default=1,
                       help="repeat timed phases N times, report the minimum")

    p_opt = sub.add_parser("optimize", help="run one mode and write a k-search report")
    add_common(p_opt)
    p_opt.add_argument("--mode", choices=MODES, default="sweep")
    p_opt.add_argument("--output", help="JSON report path (default: stdout)")
    p_opt.add_argument("--curve", help="also write the accuracy curve CSV here")
    p_opt.set_defaults(func=cmd_optimize)

    p_bench = sub.add_parser("bench", help="time several modes on identical inputs")
    add_common(p_bench)
    p_bench.add_argument("--modes", default="sweep,naive-full",
                         help="comma-separated list from: " + ",".join(MODES))
    p_bench.add_argument("--output", help="JSON result path (default: stdout)")
    p_bench.set_defaults(func=cmd_bench)

    p_curves = sub.add_parser(
        "curves", help="sweep at fold counts 3,5,10,20 and export curves + timings")
    add_common(p_curves)
    p_curves.add_argument("--output-dir", required=True)
    p_curves.set_defaults(func=cmd_curves)

    return parser


def check_args(args):
    """Reject option values argparse accepts but the run cannot use."""
    if args.seed < 0:
        raise BadParams(f"--seed must be >= 0, got {args.seed}")
    if args.repeat < 1:
        raise BadParams(f"--repeat must be >= 1, got {args.repeat}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_args(args)
        return args.func(args)
    except KnnSweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
