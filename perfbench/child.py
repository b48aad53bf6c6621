"""Workload child: imports knnsweep from the checkout, then runs one job.

Usage: python child.py ROOT JOB_JSON

The child talks to its parent over the file descriptor that was its stdout;
the package's own prints go to /dev/null. The first protocol line,
{"ready": true}, is written as soon as `knnsweep.cli` is imported: the parent
times set-up up to it. The last line is the job's result.

Jobs (JOB_JSON["mode"]):
  setup    exit right after the ready line.
  measure  one warm-up call on a small input, then timed in-process
           `knnsweep.cli.main(argv)` calls until `seconds` have passed (at
           least `min_calls`). Each call's report, minus `timing`, must equal
           the first good one, or the call counts as failed.
  trace    as measure, but every second call is traced: spans around the
           package functions that `knnsweep.cli` calls, and tracemalloc on
           inside the build and sweep spans.
           Afterwards a standalone `distance_matrix(X, X, metric)` is timed.
"""

import json
import os
import sys
import time
import traceback


def send(proto, payload):
    proto.write(json.dumps(payload) + "\n")
    proto.flush()


def import_cli(root):
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import knnsweep.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"knnsweep was imported from {cli.__file__}, not from {src}")
    return cli


# knnsweep.cli name -> (span name, track memory); the calls `cli.run_mode("sweep")`
# makes, in order
TRACED_CALLS = {
    "load_csv": ("dataset.load_csv", False),
    "stratified_folds": ("dataset.folds", False),
    "build_sorted_matrix": ("distance.build", True),
    "sweep": ("sweep.sweep", True),
    "select_k": ("sweep.select_k", False),
}


def tied_rows(matrix):
    """Rows whose valid sorted distances hold two equal neighbours."""
    import numpy as np

    d = matrix.distances
    equal = d[:, 1:] == d[:, :-1]
    equal &= np.arange(d.shape[1] - 1)[None, :] < (matrix.valid_len - 1)[:, None]
    return int(np.count_nonzero(equal.any(axis=1)))


def traced_call(cli, tracer, argv, count_ties):
    """One `cli.main(argv)` call with spans around the calls it makes.

    Returns (traced wall seconds, exit code). Derived counts are attached to
    the spans after the call returns, outside every span.
    """
    from knnsweep.distance import estimate_footprint

    originals = {name: getattr(cli, name) for name in TRACED_CALLS}
    results = {}

    def wrap(name):
        def wrapper(*args, **kwargs):
            span_name, track_memory = TRACED_CALLS[name]
            with tracer.span(span_name, track_memory) as record:
                out = originals[name](*args, **kwargs)
            results[name] = (record, out)
            return out
        return wrapper

    for name in TRACED_CALLS:
        setattr(cli, name, wrap(name))
    try:
        with tracer.span("cli.main") as top:
            rc = cli.main(argv)
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)

    if "build_sorted_matrix" in results:
        record, m = results["build_sorted_matrix"]
        stored_cells = m.distances.size
        record["attrs"].update(
            distance_s=m.build_seconds["distance"], sort_s=m.build_seconds["sort"],
            stored_bytes=sum(a.nbytes for a in (m.distances, m.labels, m.sources, m.valid_len)),
            padding_frac=(stored_cells - int(m.valid_len.sum())) / stored_cells,
            estimate_bytes=estimate_footprint(m.n, m.f), n=m.n)
        if count_ties:
            record["attrs"]["tied_rows_frac"] = tied_rows(m) / m.n
        if "sweep" in results:
            results["sweep"][0]["attrs"]["votes"] = m.n * results["sweep"][1].k_max
    if "select_k" in results:
        record, report = results["select_k"]
        record["attrs"]["curve_points"] = len(report.curve)
    return top["end"] - top["start"], rc


def run_calls(cli, job, proto):
    from verify import read_report

    tracer = None
    if job["mode"] == "trace":
        from spans import Tracer
        tracer = Tracer(job["run_id"], "child")

    cli.main(job["warm_argv"])
    samples = {"untraced": [], "traced": []}
    first = None
    attempted = failed = 0
    errors = []
    start = time.perf_counter()
    while attempted < job["min_calls"] or time.perf_counter() - start < job["seconds"]:
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        if os.path.exists(job["report"]):
            os.remove(job["report"])
        try:
            if traced:
                seconds, rc = traced_call(cli, tracer, job["argv"],
                                          count_ties=not samples["traced"])
            else:
                t0 = time.perf_counter()
                rc = cli.main(job["argv"])
                seconds = time.perf_counter() - t0
            report = read_report(job["report"]) if rc == 0 else None
        except Exception:  # a raising call is a failed operation, not a crash
            rc, report = None, None
            errors.append(traceback.format_exc())
        if report is None:
            failed += 1
            if rc is not None:
                errors.append(f"call {attempted}: exit code {rc}")
        elif first is not None and report != first:
            failed += 1
            errors.append(f"call {attempted}: report differs from the first")
        else:
            first = first or report
            samples["traced" if traced else "untraced"].append(seconds)

    result = {"samples": samples, "attempted": attempted, "failed": failed,
              "errors": errors[:5], "report": first}
    if tracer is not None:
        from knnsweep.dataset import load_csv
        from knnsweep.distance import distance_matrix

        features = load_csv(job["csv"], "label").features
        n = features.shape[0]
        with tracer.span("distance.distance_matrix", pairs=n * n):
            distance_matrix(features, features, job["metric"])
        result["spans"] = tracer.spans
    send(proto, result)


def main():
    root, job = sys.argv[1], json.loads(sys.argv[2])
    proto = os.fdopen(os.dup(1), "w")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)  # sys.stdout writes to fd 1, now /dev/null
    os.close(devnull)

    cli = import_cli(root)
    send(proto, {"ready": True})
    if job["mode"] != "setup":
        run_calls(cli, job, proto)
    proto.close()


if __name__ == "__main__":
    main()
