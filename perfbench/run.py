"""knnsweep benchmark: what a user of `knnsweep optimize` waits for and pays in memory.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark writes the workload's CSV (perfbench/workloads.json, generated
from --seed) under .perfbench_out/, then runs the package from the
checkout's src/ in child processes, one at a time:

* set-up: several children are spawned and timed until `knnsweep.cli` is
  imported; setup_s is their median.
* --trace 0: one child makes a warm-up call on a small input, then calls
  `knnsweep.cli.main(["optimize", "--input", CSV, "--mode", "sweep", ...])`
  in-process until --seconds have passed. optimize_s is the median call;
  peak_rss_mb is the child's ru_maxrss from os.wait4.
* --trace 1: the same child alternates untraced calls with traced ones
  (spans around the package functions the CLI calls; tracemalloc on inside
  the build and sweep spans) and gives the per-layer metrics; the spans go
  to .perfbench_out/.

Every run checks its outputs: each call's report minus `timing` must equal
the first, and, once per run and outside the child, the curve must equal the
brute-force oracle's at a fixed set of k. A failed check counts against
`failed`. The last stdout line is the JSON result.
"""

import argparse
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import verify
import workloads
from spans import Tracer, with_self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
MIB = 1 << 20

SETUP_CHILDREN = 4  # plus the workload child: set-up is the median of 5 spawns
MIN_CALLS = 2
WARM_N = 120
RUN_DEADLINE_S = 170

END_TO_END = {
    "optimize_s": "s",
    "votes_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    "dataset.load_csv_s": "s",
    "dataset.folds_s": "s",
    "distance.distance_matrix_s": "s",
    "distance.pairs": "count",
    "distance.build_s": "s",
    "distance.build_distance_s": "s",
    "distance.build_sort_s": "s",
    "distance.build_untimed_s": "s",
    "distance.stored_mb": "MiB",
    "distance.padding_frac": "ratio",
    "distance.build_peak_mb": "MiB",
    "distance.budget_ratio": "ratio",
    "distance.tied_rows_frac": "ratio",
    "sweep.sweep_s": "s",
    "sweep.votes": "count",
    "sweep.ns_per_vote": "ns",
    "sweep.peak_mb": "MiB",
    "sweep.select_k_s": "s",
    "sweep.curve_points": "count",
    "oracle.verify_s": "s",
    "oracle.k_checked": "count",
    "oracle.mismatches": "count",
    "cli.unaccounted_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run; it exits non-zero without a result."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment():
    """Library versions, machine size and the commit measured (when a git checkout)."""
    import numpy
    import scipy

    record = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / MIB,
        "git_head": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            record["git_head"] = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10, check=True).stdout.strip()
            record["git_dirty"] = bool(subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=10, check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return record


class Child:
    """One child process running child.py; set-up is timed up to its ready line."""

    def __init__(self, job, deadline):
        self.deadline = deadline
        self.buffer = bytearray()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(ROOT), json.dumps(job)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, bufsize=0)
        try:
            if self.read() != {"ready": True}:
                raise BenchError("child sent no ready line")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def read(self):
        """The child's next protocol line, decoded; waits no later than the deadline."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise BenchError("child did not answer before the run's deadline")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise BenchError("child exited without answering (see its stderr)")
            self.buffer += chunk
        line, _, rest = self.buffer.partition(b"\n")
        self.buffer = bytearray(rest)
        return json.loads(line)

    def finish(self):
        """Reap the child; returns its peak RSS in MiB."""
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.proc.returncode != 0:
            raise BenchError(f"child exited with code {self.proc.returncode}")
        return usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux

    def kill(self):
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run_child(job, deadline):
    """Run one job to completion; returns (result, set-up seconds, peak RSS MiB)."""
    child = Child(job, deadline)
    try:
        result = child.read() if job["mode"] != "setup" else None
    except BaseException:
        child.kill()
        raise
    return result, child.setup_s, child.finish()


def cli_argv(spec, seed, csv_path, report_path):
    return ["optimize", "--input", str(csv_path), "--mode", "sweep",
            "--folds", str(spec["f"]), "--seed", str(seed), "--metric", spec["metric"],
            "--tie-policy", spec["policy"], "--output", str(report_path)]


def layer_metrics(spans, untraced_median):
    """Per-layer metrics: the median over traced calls of each span or attribute."""
    spans = with_self_times(spans)

    def med(name, value=lambda s: s["duration"]):
        values = [value(s) for s in spans if s["name"] == name]
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else 0.0

    def attr(key):
        return lambda s: s["attrs"].get(key)

    build_untimed = lambda s: s["duration"] - s["attrs"].get("distance_s", 0.0) \
        - s["attrs"].get("sort_s", 0.0)
    build_peak = med("distance.build", attr("peak_bytes"))
    sweep_s = med("sweep.sweep")
    votes = med("sweep.sweep", attr("votes"))
    return {
        "dataset.load_csv_s": med("dataset.load_csv"),
        "dataset.folds_s": med("dataset.folds"),
        "distance.distance_matrix_s": med("distance.distance_matrix"),
        "distance.pairs": med("distance.distance_matrix", attr("pairs")),
        "distance.build_s": med("distance.build"),
        "distance.build_distance_s": med("distance.build", attr("distance_s")),
        "distance.build_sort_s": med("distance.build", attr("sort_s")),
        "distance.build_untimed_s": med("distance.build", build_untimed),
        "distance.stored_mb": med("distance.build", attr("stored_bytes")) / MIB,
        "distance.padding_frac": med("distance.build", attr("padding_frac")),
        "distance.build_peak_mb": build_peak / MIB,
        "distance.budget_ratio": (med("distance.build", attr("estimate_bytes")) / build_peak
                                  if build_peak else 0.0),
        "distance.tied_rows_frac": med("distance.build", attr("tied_rows_frac")),
        "sweep.sweep_s": sweep_s,
        "sweep.votes": votes,
        "sweep.ns_per_vote": sweep_s * 1e9 / votes if votes else 0.0,
        "sweep.peak_mb": med("sweep.sweep", attr("peak_bytes")) / MIB,
        "sweep.select_k_s": med("sweep.select_k"),
        "sweep.curve_points": med("sweep.select_k", attr("curve_points")),
        "oracle.verify_s": med("oracle.verify"),
        "oracle.k_checked": med("oracle.verify", attr("k_checked")),
        "oracle.mismatches": med("oracle.verify", attr("mismatches")),
        "cli.unaccounted_s": med("cli.main", lambda s: s["self"]),
        "trace.overhead_s": med("cli.main") - untraced_median,
    }, spans


def run(args):
    table = workloads.load_table()
    if args.workload not in table:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    if not (ROOT / "src" / "knnsweep" / "__init__.py").is_file():
        raise BenchError(f"no knnsweep package under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    spec = table[args.workload]
    mode = "trace" if args.trace else "measure"
    run_id = f"{args.workload}-seed{args.seed}-{mode}-{os.getpid()}"
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_{mode}"
    csv_path = OUT_DIR / f"{tag}.csv"
    warm_path = OUT_DIR / f"{tag}_warm.csv"
    report_path = OUT_DIR / f"{tag}_report.json"

    sha256 = workloads.write_workload(spec, args.seed, csv_path)
    warm_spec = dict(spec, n=WARM_N, f=min(spec["f"], WARM_N))
    workloads.write_workload(warm_spec, args.seed, warm_path)
    env = environment()
    n = spec["n"]
    k_max = n - math.ceil(n / spec["f"])  # stratified round-robin folds differ by <= 1 row
    print(f"workload {args.workload}: n={n} d={spec['d']} s={spec['s']} f={spec['f']} "
          f"metric={spec['metric']} policy={spec['policy']} k_max={k_max} "
          f"seed={args.seed} sha256={sha256}")
    print(f"why: {spec['why']}")
    print("env: " + json.dumps(env))

    setups = [run_child({"mode": "setup"}, deadline)[1] for _ in range(SETUP_CHILDREN)]
    job = {"mode": mode, "run_id": run_id, "seconds": args.seconds, "min_calls": MIN_CALLS,
           "argv": cli_argv(spec, args.seed, csv_path, report_path),
           "warm_argv": cli_argv(warm_spec, args.seed, warm_path, report_path),
           "report": str(report_path), "csv": str(csv_path), "metric": spec["metric"]}
    result, setup_s, peak_rss_mb = run_child(job, deadline)
    setups.append(setup_s)
    for err in result["errors"]:
        print("call error: " + err.rstrip(), file=sys.stderr)

    # the oracle runs here, after the child has exited, so its memory is not
    # part of the child's peak RSS
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer(run_id, "run")
    k_checked = mismatches = 0
    if result["report"] is not None:
        with tracer.span("oracle.verify") as record:
            k_checked, mismatches = verify.oracle_mismatches(
                result["report"], csv_path, spec, args.seed)
        record["attrs"].update(k_checked=k_checked, mismatches=mismatches)
    attempted, failed = result["attempted"], result["failed"]
    if mismatches:  # every call that matched the first report shares its error
        failed = attempted
    correct = failed == 0 and k_checked > 0

    untraced = result["samples"]["untraced"]
    optimize_s = statistics.median(untraced) if untraced else 0.0
    metrics = {
        "optimize_s": optimize_s,
        "votes_per_s": n * k_max / optimize_s if optimize_s else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    reported, units = metrics, END_TO_END
    if args.trace:
        reported, spans = layer_metrics(result["spans"] + tracer.spans, optimize_s)
        units = PER_LAYER

    print(f"calls: attempted={attempted} failed={failed} untraced_samples={len(untraced)} "
          f"traced_samples={len(result['samples']['traced'])} setup_samples={len(setups)} "
          f"oracle_k_checked={k_checked} oracle_mismatches={mismatches}")
    for name, value in reported.items():
        print(f"{name} = {value:.6g} {units[name]}")
    # error_rate is failed/attempted of the result line; it is printed but is
    # not an end-to-end metric, because those must never read 0 (a relative
    # spread around a zero median is undefined)
    print(f"error_rate = {failed / attempted:.6g} ratio")

    record = {"run_id": run_id, "workload": args.workload, "spec": spec, "seed": args.seed,
              "sha256": sha256, "env": env, "samples": result["samples"],
              "setup_samples": setups, "attempted": attempted, "failed": failed,
              "end_to_end": metrics}
    if args.trace:
        record.update(per_layer=reported, spans=spans)
    (OUT_DIR / f"{tag}_run.json").write_text(json.dumps(record, indent=1) + "\n")

    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in reported.items()}}


def main(argv=None):
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
