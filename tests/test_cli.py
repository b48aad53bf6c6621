import json

import pytest

from knnsweep import cli
from knnsweep.cli import main
from knnsweep.distance import estimate_footprint

TOY_CSV = "x,label\n0,A\n1,A\n2,B\n10,B\n"


def run(args):
    return main(args)


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
        assert {"distance", "sort", "sweep", "total"} <= set(payload["timing"])
        assert "k* =" in capsys.readouterr().out

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
            assert "k_star" in json.loads(out.read_text())

    def test_bad_fold_count_exit_code(self, toy_csv, capsys):
        code = run(["optimize", "--input", str(toy_csv), "--folds", "1"])
        assert code == 7  # BadFoldCount
        assert "error:" in capsys.readouterr().err

    def test_memory_budget_exit_code(self, toy_csv):
        code = run(["optimize", "--input", str(toy_csv), "--folds", "2",
                    "--memory-budget", "8"])
        assert code == 11  # MemoryBudgetExceeded

    def test_infinite_synthetic_spread_exit_code(self, capsys):
        assert run(["optimize", "--synthetic", "20,2,2,inf", "--folds", "2"]) == 9  # BadParams
        assert "spread" in capsys.readouterr().err

    def test_missing_input_spec(self):
        assert run(["optimize", "--folds", "2"]) == 2

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
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("repeat", ["0", "-2"])
    def test_nonpositive_repeat_exit_code(self, toy_csv, repeat):
        assert run(["optimize", "--input", str(toy_csv), "--folds", "2",
                    "--repeat", repeat]) == 9  # BadParams

    def test_repeat_keeps_report(self, tmp_path):
        outs = []
        for repeat in ("1", "3"):
            out = tmp_path / f"r{repeat}.json"
            assert run(["optimize", "--synthetic", "60,3,3,0.8", "--folds", "5",
                        "--seed", "4", "--repeat", repeat, "--output", str(out)]) == 0
            outs.append(out)
        assert strip_timing(outs[0]) == strip_timing(outs[1])
        timing = json.loads(outs[1].read_text())["timing"]
        assert list(timing) == ["distance", "sort", "sweep", "total"]

    def test_stages_called_through_cli_names(self, tmp_path, monkeypatch):
        # perfbench/child.py wraps these knnsweep.cli attributes in spans and
        # reads the attributes below from their results and estimate_footprint
        for name in ("load_csv", "stratified_folds", "select_k"):
            assert callable(getattr(cli, name))
        assert callable(estimate_footprint)
        calls, results = [], []
        for name in ("build_sorted_matrix", "sweep"):
            real = getattr(cli, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                results.append(_real(*args, **kwargs))
                return results[-1]
            monkeypatch.setattr(cli, name, counted)
        out = tmp_path / "r.json"
        assert run(["optimize", "--synthetic", "60,3,3,0.8", "--folds", "5",
                    "--seed", "4", "--memory-budget", "150000", "--output", str(out)]) == 0
        assert len(calls) > 2 and calls == ["build_sorted_matrix", "sweep"] * (len(calls) // 2)
        for block, acc in zip(results[::2], results[1::2]):
            for attr in ("distances", "labels", "sources", "valid_len", "build_seconds",
                         "n", "f"):
                assert hasattr(block, attr), attr
            assert acc.k_max == block.k_max

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
        assert run(["bench", "--synthetic", "20,2,2,0.5", "--modes", "sweep"]) == 2

    def test_duplicate_modes_rejected(self, capsys):
        assert run(["bench", "--synthetic", "20,2,2,0.5", "--modes", "sweep,sweep"]) == 2
        assert "distinct" in capsys.readouterr().err

    def test_unknown_mode_rejected(self):
        assert run(["bench", "--synthetic", "20,2,2,0.5",
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

    def test_small_n_many_folds(self, tmp_path):
        outdir = tmp_path / "c2"
        assert run(["curves", "--synthetic", "100,1,2,0.5", "--seed", "0",
                    "--output-dir", str(outdir)]) == 0
