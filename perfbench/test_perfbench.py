"""Tests of the benchmark harness itself.

Run with `python3 -m pytest perfbench`. Each end-to-end test copies the
harness and the package into a temporary checkout and runs the tiny `smoke`
workload there, so it takes seconds.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from spans import with_self_times

REPO = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())

# every end-to-end figure the benchmark promises, printed as "name = value unit"
PROMISED_END_TO_END = {"optimize_s": "s", "votes_per_s": "1/s", "peak_rss_mb": "MiB",
                       "setup_s": "s", "error_rate": "ratio"}


def make_checkout(tmp_path, with_package=True):
    root = tmp_path / "checkout"
    shutil.copytree(REPO / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(REPO / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_package:
        shutil.copytree(REPO / "src" / "knnsweep", root / "src" / "knnsweep",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


def corrupt_reports(root, condition, edit):
    """Make the checkout's `knnsweep.cli.main` edit its report when condition(call number) holds."""
    with open(root / "src" / "knnsweep" / "cli.py", "a", encoding="utf-8") as fh:
        fh.write(f"""

_real_main = main
_calls = [0]


def main(argv=None):
    rc = _real_main(argv)
    _calls[0] += 1
    if {condition}:
        path = argv[argv.index("--output") + 1]
        with open(path) as fh:
            report = json.load(fh)
        {edit}
        with open(path, "w") as fh:
            json.dump(report, fh)
    return rc
""")


def bench(root, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def printed_metrics(stdout):
    """name -> (value, unit) from the human-readable `name = value unit` lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[1] == "=":
            out[parts[0]] = (float(parts[2]), parts[3])
    return out


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(tmp_path, trace):
    proc = bench(make_checkout(tmp_path), trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    printed = printed_metrics(proc.stdout)
    expected = dict(run.PER_LAYER if trace else run.END_TO_END, error_rate="ratio")
    assert {name: unit for name, (_, unit) in printed.items()} == expected
    assert printed["error_rate"][0] == 0
    if trace:
        assert printed["oracle.k_checked"][0] > 0
        assert printed["distance.tied_rows_frac"][0] == 1.0  # integer features tie
    else:
        assert PROMISED_END_TO_END.items() <= {n: u for n, (_, u) in printed.items()}.items()
        assert all(printed[name][0] > 0 for name in run.END_TO_END)


def test_changed_report_counts_as_failed_call(tmp_path):
    root = make_checkout(tmp_path)
    # call 1 is the warm-up; call 3 is the second timed call
    corrupt_reports(root, "_calls[0] == 3", 'report["k_star"] += 1')
    proc = bench(root, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 1 and result["correct"] is False
    assert printed_metrics(proc.stdout)["error_rate"][0] == pytest.approx(
        1 / result["attempted"], rel=1e-5)


def test_oracle_mismatch_fails_every_call(tmp_path):
    root = make_checkout(tmp_path)
    corrupt_reports(root, "True", 'report["curve"][0]["mean_accuracy"] += 0.5')
    proc = bench(root, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == result["attempted"] and result["correct"] is False
    assert printed_metrics(proc.stdout)["error_rate"][0] == 1.0


def test_without_package_exits_nonzero_without_result(tmp_path):
    proc = bench(make_checkout(tmp_path, with_package=False), 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_seed_gives_byte_identical_csv(tmp_path):
    spec = workloads.load_table()["ties_loocv"]
    first = workloads.write_workload(spec, 5, tmp_path / "a.csv")
    assert workloads.write_workload(spec, 5, tmp_path / "b.csv") == first
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert workloads.write_workload(spec, 6, tmp_path / "c.csv") != first


@pytest.mark.parametrize("name", ["large_n", "wide_d", "ties_loocv"])
def test_recorded_seed0_digest(tmp_path, name):
    spec = workloads.load_table()[name]
    assert workloads.write_workload(spec, 0, tmp_path / "w.csv") == spec["sha256_seed0"]


def test_benchmark_json_shape():
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCHMARK["workloads"])
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names)) and all(name_re.fullmatch(n) for n in names)
    assert all(unit_re.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
               for m in metrics)
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in BENCHMARK["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCHMARK["per_layer"])
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in BENCHMARK["end_to_end"])}]


def test_benchmark_json_matches_harness():
    table = workloads.load_table()
    for w in BENCHMARK["workloads"]:
        assert w["why"] == table[w["name"]]["why"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_self_time_subtracts_children():
    spans = [
        {"id": "a.0", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "a.1", "parent": "a.0", "start": 1.0, "end": 4.0},
        {"id": "a.2", "parent": "a.0", "start": 5.0, "end": 7.0},
        {"id": "a.3", "parent": "a.2", "start": 5.5, "end": 6.0},
    ]
    self_time = {s["id"]: s["self"] for s in with_self_times(spans)}
    assert self_time == {"a.0": 5.0, "a.1": 3.0, "a.2": 1.5, "a.3": 0.5}
