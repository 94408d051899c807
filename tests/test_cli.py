"""End-to-end command-line behavior: flag/config/environment precedence,
every subcommand's output shape, and the documented exit codes."""

import json

import pytest

from polyak_opt.baselines import run_baseline
from polyak_opt.cli import main
from polyak_opt.config import resolve_dataset
from polyak_opt.data import load_libsvm, synth_dataset
from polyak_opt.losses import LossSpec
from polyak_opt.traces import CSV_HEADER, parse_trace_csv, trace_to_csv

# +-1 labels, so the default logistic family accepts it
SMALL = "synth:separable:n=8,d=4,seed=3"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--dataset", SMALL, "--method", "taps", "--epochs", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--dataset", SMALL, "--method", "sp",
            "--epochs", "2", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["epoch"] for r in rows] == [1, 2]
        assert rows[0]["aux_value"] is not None

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("run", "--dataset", SMALL, "--method", "motaps", "--epochs", "5",
                "--seed", "4", "--lambda", "0.2")
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"dataset = {SMALL}\nmethod = sp\nepochs = 3\n", encoding="utf-8"
        )
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0 and len(out.strip().splitlines()) == 4
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--epochs", "1")
        assert code == 0 and len(out.strip().splitlines()) == 2

    def test_oracle_fills_distance_column(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"dataset = {SMALL}\nfamily = squared\nsigma = 0.1\noracle = closed\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys, "run", "--config", str(cfg), "--method", "taps", "--epochs", "2",
        )
        assert code == 0
        records = parse_trace_csv(out)
        assert all(r.dist_to_opt is not None for r in records)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_abort_flushes_partial_trace(self, tmp_path, capsys):
        data_file = tmp_path / "explode.txt"
        data_file.write_text("1 1:1.0\n1 1:1.0\n", encoding="utf-8")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"dataset = {data_file}\nfamily = squared\nmethod = sp\n"
            "gamma = 6.0\nepochs = 400\n",
            encoding="utf-8",
        )
        trace = tmp_path / "trace.csv"
        code = main(["run", "--config", str(cfg), "--out", str(trace)])
        err = capsys.readouterr().err
        assert code == 3
        assert "numeric abort" in err
        records = parse_trace_csv(trace.read_text(encoding="utf-8"))
        assert 0 < len(records) < 400

    def test_unknown_method_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--dataset", SMALL, "--method", "newton"
        )
        assert code == 2
        assert "error" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "--config", "/nonexistent/exp.cfg")
        assert code == 2 and "error" in err

    def test_nan_label_is_parse_error(self, tmp_path, capsys):
        data_file = tmp_path / "nan.txt"
        data_file.write_text("1 1:1.0\nnan 1:0.5\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--dataset", str(data_file))
        assert code == 2
        assert "line 2" in err and "nan" in err
        assert out == ""

    def test_logistic_rejects_zero_one_labels(self, tmp_path, capsys):
        data_file = tmp_path / "zero_one.txt"
        data_file.write_text("1 1:1.0 2:0.5\n0 1:-0.5 2:1.0\n", encoding="utf-8")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"dataset = {data_file}\nfamily = logistic\nsigma = 0.1\noracle = closed\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--epochs", "2")
        assert code == 2
        assert "row 2" in err and "label 0.0" in err
        assert out == ""

    def test_explicit_baseline_gamma_is_honoured(self, tmp_path, capsys):
        data = resolve_dataset(SMALL)

        def expected(gamma):
            return trace_to_csv(run_baseline(
                "sag", LossSpec("logistic"), data, 2, 0, None, gamma=gamma,
                sgd_schedule="inverse",
            ))

        args = ("run", "--dataset", SMALL, "--method", "sag", "--epochs", "2")
        # 0.9 is also the config default: set explicitly it must still be used
        code, out, _ = run_cli(capsys, *args, "--gamma", "0.9")
        assert code == 0 and out == expected(0.9)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("gamma = 0.9\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, *args, "--config", str(cfg))
        assert code == 0 and out == expected(0.9)
        code, out, _ = run_cli(capsys, *args)
        assert code == 0 and out == expected(None) != expected(0.9)


class TestGrid:
    def write_cfg(self, tmp_path, gammas, gamma_taus, method="taps"):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            f"dataset = {SMALL}\nmethod = {method}\nepochs = 3\n"
            f"gamma_grid = {gammas}\ngamma_tau_grid = {gamma_taus}\n",
            encoding="utf-8",
        )
        return cfg

    def test_csv_shape_and_best_line(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "0.5,1.0", "0.1,0.2")
        code, out, _ = run_cli(capsys, "grid", "--config", str(cfg))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "gamma,gamma_tau,final_grad_norm,final_loss"
        assert len(lines) == 1 + 4 + 1
        assert lines[-1].startswith("# best gamma=")

    def test_json_cells(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "0.5,1.0", "0.1")
        code, out, _ = run_cli(
            capsys, "grid", "--config", str(cfg), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["cells"]) == 2
        assert set(payload["best"]) == {"gamma", "gamma_tau"}

    def test_single_cell_matches_run(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "0.8", "0.1")
        code, out, _ = run_cli(capsys, "grid", "--config", str(cfg))
        assert code == 0
        cell_grad = float(out.strip().splitlines()[1].split(",")[2])
        code, out, _ = run_cli(
            capsys, "run", "--dataset", SMALL, "--method", "taps",
            "--epochs", "3", "--gamma", "0.8",
        )
        assert code == 0
        assert parse_trace_csv(out)[-1].grad_norm == cell_grad

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_cell_reported_as_inf(self, tmp_path, capsys):
        data_file = tmp_path / "explode.txt"
        data_file.write_text("1 1:1.0\n1 1:1.0\n", encoding="utf-8")
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            f"dataset = {data_file}\nfamily = squared\nmethod = sp\n"
            "epochs = 400\ngamma_grid = 0.9,6.0\ngamma_tau_grid = 0.1\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "grid", "--config", str(cfg))
        assert code == 0
        rows = out.strip().splitlines()[1:3]
        assert rows[1].split(",")[2] == "inf"
        assert rows[0].split(",")[2] != "inf"
        assert "best gamma=0.9" in out

    def test_rejects_baseline_methods(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "0.5", "0.1", method="sgd")
        code, _, err = run_cli(capsys, "grid", "--config", str(cfg))
        assert code == 2 and "error" in err

    def test_thread_flag_beats_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POLYAK_OPT_THREADS", "not-a-number")
        cfg = self.write_cfg(tmp_path, "0.5", "0.1")
        code, _, err = run_cli(capsys, "grid", "--config", str(cfg))
        assert code == 2
        code, out, _ = run_cli(
            capsys, "grid", "--config", str(cfg), "--threads", "1"
        )
        assert code == 0 and out.strip().splitlines()[-1].startswith("# best")

    def test_environment_threads_used(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POLYAK_OPT_THREADS", "2")
        cfg = self.write_cfg(tmp_path, "0.5,1.0", "0.1")
        code, out, _ = run_cli(capsys, "grid", "--config", str(cfg))
        assert code == 0 and len(out.strip().splitlines()) == 4


class TestCompare:
    def test_long_format_with_headers(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(
            f"dataset = {SMALL}\nfamily = squared\nsigma = 0.1\nepochs = 2\n"
            "methods = sp,sag\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "compare", "--config", str(cfg))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# sp gamma=1.0"
        assert lines[1].startswith("# sag gamma=")
        assert float(lines[1].split("gamma=")[1]) > 0.0
        assert lines[2] == "method," + CSV_HEADER
        body = lines[3:]
        assert len(body) == 4
        assert [row.split(",")[0] for row in body] == ["sp", "sp", "sag", "sag"]

    def test_requires_two_methods(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(f"dataset = {SMALL}\nmethods = sp\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "compare", "--config", str(cfg))
        assert code == 2 and "error" in err

    def test_default_method_list_runs(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(
            f"dataset = {SMALL}\nfamily = squared\nsigma = 0.1\nepochs = 1\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "compare", "--config", str(cfg))
        assert code == 0
        methods = [l.split()[1] for l in out.splitlines() if l.startswith("# ")]
        assert methods == ["sp", "taps", "motaps", "sgd", "sag", "svrg"]


class TestVerify:
    def test_passes_and_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--sizes", "4:3", "--seed", "1")
        assert code == 0
        assert "FAIL" not in out
        for suite in (
            "growth", "projection", "sgd_equivalence", "invariance", "gradient_check",
        ):
            assert f"PASS  {suite}" in out

    def test_fault_injection_fails_targeted_suites(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--sizes", "4:3", "--inject-fault"
        )
        assert code == 1
        assert "FAIL  sgd_equivalence" in out
        assert "FAIL  gradient_check" in out
        assert "PASS  growth" in out
        assert "PASS  projection" in out

    def test_bad_sizes_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--sizes", "4x3")
        assert code == 2 and "error" in err


class TestGen:
    def test_round_trips_through_libsvm(self, tmp_path, capsys):
        spec = "synth:underparam:n=6,d=3,noise=0.4,seed=9"
        out_file = tmp_path / "gen.txt"
        assert main(["gen", "--dataset", spec, "--out", str(out_file)]) == 0
        expected, _ = synth_dataset(9, 6, 3, "underparam", noise=0.4)
        assert load_libsvm(out_file) == expected

    def test_stdout_output(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--dataset", "synth:separable:n=3,d=2")
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_requires_synthetic_spec(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--dataset", "real.txt")
        assert code == 2 and "error" in err


class TestParser:
    def test_missing_subcommand_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
