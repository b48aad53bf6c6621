import importlib
import itertools
import json
import re
import time

import pytest

from knnsweep import cli
from knnsweep.cli import main
from knnsweep.dataset import generate_synthetic, stratified_folds
from knnsweep.distance import estimate_footprint
from knnsweep.errors import InconsistentInputs, MemoryBudgetExceeded
from knnsweep.sweep import row_blocks

sweep_module = importlib.import_module("knnsweep.sweep")

TOY_CSV = "x,label\n0,A\n1,A\n2,B\n10,B\n"


def run(args):
    return main(args)


def usage_error(args):
    """argparse's exit code for args, which it must refuse."""
    with pytest.raises(SystemExit) as exc:
        run(args)
    return exc.value.code


def strip_timing(report_path):
    payload = json.loads(report_path.read_text())
    payload.pop("timing", None)
    return payload


@pytest.fixture
def toy_csv(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text(TOY_CSV, encoding="utf-8")
    return p


class TestOptimize:
    def test_toy_sweep_report(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["optimize", "--input", str(toy_csv), "--folds", "2",
                    "--seed", "0", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"best_k_per_fold", "k_star", "curve",
                                "evaluated_k", "timing"}
        assert 1 <= payload["k_star"] <= 2
        assert list(payload["timing"]) == ["distance", "sort", "sweep", "total"]
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[0].startswith("k* =")
        assert [line.split(":")[0].strip() for line in stdout[1:]] == list(payload["timing"])

    def test_synthetic_separable_curve(self, tmp_path):
        out = tmp_path / "report.json"
        curve = tmp_path / "curve.csv"
        code = run(["optimize", "--synthetic", "100,2,2,0.01", "--folds", "5",
                    "--seed", "1", "--output", str(out), "--curve", str(curve)])
        assert code == 0
        lines = curve.read_text().splitlines()
        assert lines[0] == "k,mean_accuracy,std_accuracy"
        k1 = lines[1].split(",")
        assert k1[0] == "1" and float(k1[1]) >= 0.99

    def test_naive_modes(self, toy_csv, tmp_path):
        for mode in ("naive-full", "naive-log"):
            out = tmp_path / f"{mode}.json"
            assert run(["optimize", "--input", str(toy_csv), "--folds", "2",
                        "--mode", mode, "--output", str(out)]) == 0
            payload = json.loads(out.read_text())
            assert "k_star" in payload
            assert list(payload["timing"]) == ["total"]

    def test_bad_fold_count_exit_code(self, toy_csv, capsys):
        code = run(["optimize", "--input", str(toy_csv), "--folds", "1"])
        assert code == 7  # BadFoldCount
        assert "error:" in capsys.readouterr().err

    def test_memory_budget_exit_code(self, toy_csv):
        code = run(["optimize", "--input", str(toy_csv), "--folds", "2",
                    "--memory-budget", "8"])
        assert code == 11  # MemoryBudgetExceeded

    def test_synthetic_over_budget_exits_before_generating(self, capsys):
        t0 = time.perf_counter()
        assert run(["optimize", "--synthetic", "10000000000,4,3,1.0"]) == 11  # MemoryBudgetExceeded
        assert time.perf_counter() - t0 < 1.0
        assert "budget" in capsys.readouterr().err

    def test_infinite_synthetic_spread_exit_code(self, capsys):
        assert run(["optimize", "--synthetic", "20,2,2,inf", "--folds", "2"]) == 9  # BadParams
        assert "spread" in capsys.readouterr().err

    def test_missing_input_spec(self):
        assert usage_error(["optimize", "--folds", "2"]) == 2

    def test_both_input_specs(self, toy_csv):
        assert usage_error(["optimize", "--input", str(toy_csv),
                            "--synthetic", "20,2,2,0.5"]) == 2

    def test_unreadable_input_exit_codes(self, tmp_path, capsys):
        assert run(["optimize", "--input", str(tmp_path / "missing.csv")]) == 16  # IoError
        assert run(["optimize", "--input", str(tmp_path)]) == 16
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes("x,label\n0,A\n1,\u00e9\n".encode("latin-1"))
        assert run(["optimize", "--input", str(latin1)]) == 3  # ParseError
        assert "UTF-8" in capsys.readouterr().err

    def test_negative_seed_exit_code(self, toy_csv, capsys):
        assert run(["optimize", "--input", str(toy_csv), "--folds", "2",
                    "--seed", "-1"]) == 9  # BadParams
        assert "seed" in capsys.readouterr().err

    def test_repeat_is_not_an_option(self, toy_csv):
        # argparse exits with usage code 2 on an unknown flag
        with pytest.raises(SystemExit) as exc:
            run(["optimize", "--input", str(toy_csv), "--folds", "2", "--repeat", "3"])
        assert exc.value.code == 2

    def test_stdout_report_is_one_document(self, tmp_path, capsys):
        argv = ["optimize", "--synthetic", "60,2,3,1.0", "--folds", "3"]
        assert run(argv) == 0
        printed = json.loads(capsys.readouterr().out)
        out = tmp_path / "r.json"
        assert run(argv + ["--output", str(out)]) == 0
        printed.pop("timing")
        assert printed == strip_timing(out)

    def test_stages_called_through_cli_names(self, tmp_path, monkeypatch):
        # perfbench/child.py wraps these knnsweep.cli attributes in spans and
        # reads the attributes below from their results and estimate_footprint
        for name in ("load_csv", "stratified_folds", "select_k"):
            assert callable(getattr(cli, name))
        assert callable(estimate_footprint)
        calls = []
        for name in ("build_sorted_matrix", "sweep"):
            def counted(*args, _real=getattr(cli, name), _name=name, **kwargs):
                calls.append((_name, _real(*args, **kwargs)))
                return calls[-1][1]
            monkeypatch.setattr(cli, name, counted)
        out = tmp_path / "r.json"
        # a budget that leaves panels of 25 rows and blocks of 4
        assert run(["optimize", "--synthetic", "60,3,3,0.8", "--folds", "5",
                    "--seed", "4", "--memory-budget", "117000", "--output", str(out)]) == 0
        # one or more builds packed into each panel, then its vote
        shape = "".join("b" if name == "build_sorted_matrix" else "v" for name, _ in calls)
        assert re.fullmatch(r"(b+v)+", shape) and shape.count("v") > 1 and "bbv" in shape
        for name, result in calls:
            if name == "sweep":
                assert result.k_max == 60 - 12  # the folds' k_max: five folds of 12 rows
                continue
            for attr in ("distances", "labels", "sources", "valid_len", "build_seconds",
                         "n", "f"):
                assert hasattr(result, attr), attr
            assert len(result.valid_len) == len(result.distances) == result.n
            assert set(result.build_seconds) == {"distance", "sort"}

    @pytest.mark.parametrize("count", [1, 2])
    def test_failing_build_task_exit_code(self, monkeypatch, capsys, count):
        # a build that raises on a pool thread exits as it would on one thread
        real, calls = cli.build_sorted_matrix, itertools.count(1)

        def third_fails(*args, **kwargs):
            if next(calls) == 3:  # one atomic step, whichever thread calls
                raise InconsistentInputs("the third block")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "build_sorted_matrix", third_fails)
        monkeypatch.setattr(sweep_module, "_worker_count", lambda: count)
        assert run(["optimize", "--synthetic", "60,3,3,0.8", "--folds", "5",
                    "--memory-budget", "117000"]) == 13  # InconsistentInputs
        assert "the third block" in capsys.readouterr().err
        builds = next(calls) - 1
        assert 3 <= builds <= 2 + count  # a build already in flight may finish

    def test_curve_written_before_the_report(self, tmp_path, capsys):
        # a curve that cannot be written fails the call before any report exists
        argv = ["optimize", "--synthetic", "30,2,2,1.0", "--folds", "2",
                "--curve", str(tmp_path / "missing" / "c.csv")]
        assert run(argv) == 16  # IoError
        assert capsys.readouterr().out == ""
        out = tmp_path / "r.json"
        assert run(argv + ["--output", str(out)]) == 16
        assert not out.exists()
        assert capsys.readouterr().out == ""

    def test_label_col_only_with_input(self, toy_csv, tmp_path):
        assert usage_error(["optimize", "--synthetic", "20,2,2,0.5", "--label-col", "y"]) == 2
        out = tmp_path / "r.json"
        assert run(["optimize", "--input", str(toy_csv), "--label-col", "label", "--folds", "2",
                    "--output", str(out)]) == 0
        assert run(["optimize", "--input", str(toy_csv), "--label-col", "x", "--folds", "2",
                    "--output", str(out)]) == 3  # ParseError: "label" is now a feature

    def test_determinism_excluding_timing(self, tmp_path):
        outs = []
        curves = []
        for i in (0, 1):
            out = tmp_path / f"r{i}.json"
            curve = tmp_path / f"c{i}.csv"
            assert run(["optimize", "--synthetic", "60,3,3,0.8", "--folds", "5",
                        "--seed", "42", "--output", str(out),
                        "--curve", str(curve)]) == 0
            outs.append(out)
            curves.append(curve)
        assert strip_timing(outs[0]) == strip_timing(outs[1])
        assert curves[0].read_bytes() == curves[1].read_bytes()


class TestBench:
    def test_sweep_vs_naive(self, tmp_path):
        out = tmp_path / "bench.json"
        code = run(["bench", "--synthetic", "60,2,3,0.8", "--folds", "3",
                    "--seed", "2", "--modes", "sweep,naive-full,naive-log",
                    "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["dataset"] == {"n": 60, "d": 2, "s": 3, "f": 3}
        assert payload["modes"]["sweep"]["k_star"] == payload["modes"]["naive-full"]["k_star"]
        assert payload["speedups"]["naive-full_vs_sweep"] > 0
        for mode in ("sweep", "naive-full", "naive-log"):
            assert payload["modes"][mode]["seconds"]["total"] > 0

    def test_single_mode_rejected(self):
        assert usage_error(["bench", "--synthetic", "20,2,2,0.5", "--modes", "sweep"]) == 2

    def test_duplicate_modes_rejected(self, capsys):
        assert usage_error(["bench", "--synthetic", "20,2,2,0.5",
                            "--modes", "sweep,sweep"]) == 2
        assert "distinct" in capsys.readouterr().err

    def test_unknown_mode_rejected(self):
        assert usage_error(["bench", "--synthetic", "20,2,2,0.5",
                            "--modes", "sweep,turbo"]) == 2


class TestCurves:
    def test_four_fold_counts(self, tmp_path):
        outdir = tmp_path / "curves"
        code = run(["curves", "--synthetic", "100,2,3,0.8", "--seed", "3",
                    "--output-dir", str(outdir)])
        assert code == 0
        for f in (3, 5, 10, 20):
            lines = (outdir / f"curve_f{f}.csv").read_text().splitlines()
            assert lines[0] == "k,mean_accuracy,std_accuracy"
            assert len(lines) > 1
        summary = (outdir / "summary.csv").read_text().splitlines()
        assert summary[0] == "f,time_seconds"
        assert [row.split(",")[0] for row in summary[1:]] == ["3", "5", "10", "20"]

    def test_too_many_folds_writes_nothing(self, tmp_path, toy_csv):
        # 4 rows take f=3 but not f=5: refused before the f=3 curve is written
        outdir = tmp_path / "c3"
        assert run(["curves", "--input", str(toy_csv), "--output-dir", str(outdir)]) == 8
        assert not list(outdir.glob("*.csv"))

    def test_over_budget_fold_count_writes_nothing(self, tmp_path):
        # a budget that fits f=3 but not f=20 is refused before the f=3 curve is written
        dataset = generate_synthetic(100, 2, 3, 0.8, 3)
        need = []
        for f in (3, 20):
            with pytest.raises(MemoryBudgetExceeded) as info:
                row_blocks(dataset, stratified_folds(dataset, f, 3), 0)
            need.append(info.value.required)
        assert need[0] < need[1]
        outdir = tmp_path / "c4"
        assert run(["curves", "--synthetic", "100,2,3,0.8", "--seed", "3",
                    "--memory-budget", str(need[0]), "--output-dir", str(outdir)]) == 11
        assert not list(outdir.glob("*.csv"))

    def test_folds_is_not_an_option(self, tmp_path):
        # curves sweeps its own fold counts
        outdir = tmp_path / "c5"
        assert usage_error(["curves", "--synthetic", "60,2,3,1.0", "--folds", "7",
                            "--output-dir", str(outdir)]) == 2
        assert not outdir.exists()

    def test_small_n_many_folds(self, tmp_path):
        outdir = tmp_path / "c2"
        assert run(["curves", "--synthetic", "100,1,2,0.5", "--seed", "0",
                    "--output-dir", str(outdir)]) == 0
