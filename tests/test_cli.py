"""End-to-end command-line behavior: flag/config precedence, every
subcommand's output shape, and the documented exit codes."""

import dataclasses
import gzip
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polyak_opt import cli
from polyak_opt.baselines import run_baseline
from polyak_opt.cli import main
from polyak_opt.config import ExperimentConfig, dump_config, resolve_dataset
from polyak_opt.data import load_libsvm, normalize_samples, serialize_libsvm, synth_dataset
from polyak_opt.losses import LossSpec
from polyak_opt.polyak import NumericError, lambda_max
from polyak_opt.traces import CSV_HEADER, parse_trace_csv, trace_to_csv

# +-1 labels, so the default logistic family accepts it
SMALL = "synth:separable:n=8,d=4,seed=3"
# +-1 labels, and row 2 has a square norm that overflows
OVERFLOW_ROW = "1 1:0.5 3:2\n-1 2:1e300\n1\n"


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

    def test_negative_zero_target_is_kept(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--dataset", SMALL, "--method", "taps", "--tau", "-0.0", "--epochs", "2",
        )
        assert code == 0
        records = parse_trace_csv(out)
        assert [math.copysign(1.0, r.tau) for r in records] == [-1.0, -1.0]

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

    def test_budget_below_one_is_config_error(self, tmp_path, capsys):
        # a budget of -3 would certify w = 0 and put every sp target at f_i(0)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"dataset = {SMALL}\nbudget = -3\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "run", "--config", str(cfg), "--method", "sp", "--oracle", "iter", "--sigma", "0.01",
        )
        assert code == 2 and "budget must be >= 1, got -3" in err and out == ""

    def test_infinite_mu_is_config_error(self, tmp_path, capsys):
        # at mu = inf the decreasing schedule's gamma is 0 after step 0, so
        # the run would exit 0 with every epoch's record the same
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("schedule = motaps_decreasing\nmu = inf\nmethod = motaps\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--dataset", "synth:separable:n=20,d=3")
        assert code == 2 and "finite mu > 0" in err and out == ""

    @pytest.mark.parametrize("argv", [
        ("run", "--method", "taps", "--tau", "nan"),
        ("run", "--method", "motaps", "--tau=-inf"),
        ("run", "--method", "sp", "--fi-star", "inf"),
        ("compare", "--tau", "nan"),
        ("grid", "--method", "taps", "--tau", "inf"),
        ("run", "--method", "taps", "--tau", "-inf"),
        ("grid", "--method", "sp", "--fi-star", "-nan"),
    ])
    def test_non_finite_target_is_config_error(self, capsys, argv):
        # unchecked, run would exit 3 on a numeric abort and compare 0
        # with nan in the taps and motaps columns
        code, out, err = run_cli(capsys, *argv, "--dataset", SMALL, "--epochs", "1")
        name = "fi_star" if "--fi-star" in argv else "tau"
        assert code == 2 and out == ""
        assert err.startswith(f"error: {name} must be finite, got ") and err.count("\n") == 1

    def test_negative_value_after_its_flag(self, capsys):
        # argparse's own negative-number test reads -1e-3 as a flag
        argv = ("run", "--dataset", SMALL, "--method", "taps", "--epochs", "2")
        joined = run_cli(capsys, *argv, "--tau=-1e-3")
        assert joined[0] == 0
        assert run_cli(capsys, *argv, "--tau", "-1e-3") == joined
        assert run_cli(capsys, *argv, "--tau", "-0.001") == joined

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

    def test_lambda_max_is_config_error(self, capsys):
        # SMALL has n = 8, and lambda must lie in [0, lambda_max(8)) = [0, 17/19)
        args = ("run", "--dataset", SMALL, "--method", "motaps", "--epochs", "2")
        code, out, err = run_cli(capsys, *args, "--lambda", repr(lambda_max(8)))
        assert code == 2
        assert "lambda_max" in err and out == ""
        code, out, _ = run_cli(capsys, *args, "--lambda", "0.89")
        assert code == 0 and out.startswith(CSV_HEADER)

    @pytest.mark.parametrize("argv", [
        ("--dataset", "synth:separable:n=x,d=4"),
        ("--dataset", "synth:separable:n=0,d=4"),
        ("--dataset", "synth:bogus:n=8,d=4"),
        ("--dataset", SMALL, "--sigma", "-1"),
        # sigma**2 overflows in the oracle's batch_eval, and mid-run without an oracle
        ("--dataset", SMALL, "--sigma", "1e308", "--oracle", "iter"),
        ("--dataset", SMALL, "--sigma", "1e308"),
        ("--dataset", SMALL, "--gamma-tau", "2"),
        ("--dataset", SMALL, "--epochs", "0"),
        # step settings are checked whichever method runs
        ("--dataset", SMALL, "--method", "sgd", "--gamma-tau", "2"),
        ("--dataset", SMALL, "--method", "sag", "--lambda", "1.5"),
    ])
    def test_bad_settings_are_config_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, "run", *argv)
        assert code == 2 and err.startswith("error: ") and out == ""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_monomial_overflow_is_numeric_abort(self, tmp_path, capsys):
        # |t - 1e100|^4 overflows a Python float power once row 1 is sampled
        data_file = tmp_path / "huge.txt"
        data_file.write_text("1e100 1:1.0\n1 1:2.0\n", encoding="utf-8")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"dataset = {data_file}\nfamily = monomial\npower_r = 2.0\nmethod = sp\n"
            "epochs = 3\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 3 and "numeric abort" in err
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER and len(lines) < 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_sgd_is_numeric_abort(self, tmp_path, capsys):
        # a constant step of 10 on f(w) = (w - 1)^2 / 2 multiplies w - 1 by -9
        data_file = tmp_path / "explode.txt"
        data_file.write_text("1 1:1.0\n1 1:1.0\n", encoding="utf-8")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"dataset = {data_file}\nfamily = squared\nsgd_schedule = constant\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(
            capsys, "run", "--config", str(cfg), "--method", "sgd", "--gamma", "10",
            "--epochs", "400",
        )
        assert code == 3 and "numeric abort" in err
        records = parse_trace_csv(out)
        assert 0 < len(records) < 400
        assert not any(math.isnan(r.full_loss) for r in records)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numeric_abort_stderr_is_one_line(self, tmp_path, capsys):
        # the overflows on the way to the abort raise no numpy warning
        data_file = tmp_path / "two.txt"
        data_file.write_text("1 1:1.0\n-1 1:1.0\n", encoding="utf-8")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"dataset = {data_file}\nfamily = squared\nsgd_schedule = constant\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(
            capsys, "run", "--config", str(cfg), "--method", "sgd", "--gamma", "10",
            "--epochs", "400",
        )
        with np.errstate(all="ignore"), pytest.raises(NumericError) as info:
            run_baseline("sgd", LossSpec("squared"), load_libsvm(data_file), 400, 0,
                         gamma=10.0, sgd_schedule="constant")
        abort = info.value
        assert code == 3
        assert err == f"error: numeric abort at sample {abort.sample_index}: {abort}\n"
        assert out == trace_to_csv(abort.records) and 0 < len(abort.records) < 400

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_monomial_label_baseline_is_numeric_abort(self, tmp_path, capsys):
        # (t - 1e200)^2 overflows on the first visit to row 1
        data_file = tmp_path / "huge.txt"
        data_file.write_text("1e200 1:1.0\n1 1:2.0\n", encoding="utf-8")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"dataset = {data_file}\nfamily = monomial\nepochs = 3\n", encoding="utf-8")
        for method in ("sgd", "sag", "svrg"):
            code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--method", method)
            assert code == 3 and "numeric abort" in err
            lines = out.splitlines()
            assert lines[0] == CSV_HEADER and len(lines) < 4

    def test_normalize_runs_on_the_normalized_samples(self, tmp_path, capsys):
        raw, normalized = tmp_path / "raw.svm", tmp_path / "normalized.svm"
        raw.write_text("+1 1:3.0 2:4.0\n-1 2:0.5 3:-2.0\n+1 1:-1.5 3:0.25\n-1\n", encoding="utf-8")
        normalized.write_text(serialize_libsvm(normalize_samples(load_libsvm(raw))), encoding="utf-8")
        args = ("run", "--method", "motaps", "--epochs", "4", "--seed", "2", "--sigma", "0.01")
        outputs = []
        for extra in (("--dataset", str(raw), "--normalize"), ("--dataset", str(normalized)),
                      ("--dataset", str(raw))):
            code, out, _ = run_cli(capsys, *args, *extra)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] != outputs[2]

    def test_empty_dataset_is_config_error(self, tmp_path, capsys):
        data_file = tmp_path / "empty.txt"
        data_file.write_text("# no samples\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--dataset", str(data_file))
        assert code == 2 and "no samples" in err

    @pytest.mark.parametrize("method, settings", [
        ("sag", ""),
        ("svrg", ""),
        ("sgd", "sgd_schedule = inverse\n"),
        ("sgd", "sgd_schedule = paper_literal\n"),
        ("sgd", "sgd_schedule = constant\n"),
    ])
    def test_step_from_zero_l_max_is_config_error(self, tmp_path, capsys, method, settings):
        # rows with no features and sigma = 0: L_max = 0 gives no step size
        data_file = tmp_path / "flat.txt"
        data_file.write_text("1\n-1\n1\n", encoding="utf-8")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"dataset = {data_file}\n{settings}", encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--method", method,
                                 "--epochs", "2")
        assert code == 2 and err.startswith("error: L_max = 0.0") and out == ""

    @pytest.mark.parametrize("text, l_max", [
        # row 2's square norm, 1e600, overflows; its step 1/(2 L_max) = 0 would make sag a no-op
        (OVERFLOW_ROW, "inf (a row's square norm overflows)"),
        # a square norm of 1e-320 gives L_max = 2.5e-321 and a step 1/(2 L_max) = inf
        ("-1 1:1e-160\n1\n", "2.5e-321 (its reciprocal overflows)"),
    ], ids=["inf", "subnormal"])
    @pytest.mark.parametrize("argv", [("run", "--method", "sgd"), ("run", "--method", "sag"),
                                      ("compare",)])
    def test_step_from_overflowing_l_max_is_config_error(self, tmp_path, capsys, argv, text, l_max):
        data_file = tmp_path / "rows.txt"
        data_file.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, *argv, "--dataset", str(data_file), "--epochs", "2")
        assert code == 2 and out == ""
        assert err.startswith(f"error: L_max = {l_max} gives no step size") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_certificate_raises_no_warning(self, tmp_path, capsys):
        # the iter oracle overflows on that row too; the run then aborts
        data_file = tmp_path / "wide.txt"
        data_file.write_text(OVERFLOW_ROW, encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--dataset", str(data_file), "--method", "sp",
                               "--oracle", "iter", "--epochs", "2")
        assert code == 3 and err == "error: numeric abort at sample 1: gradient norm overflow at sample 1\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("text, oracle", [
        # the closed form divides by s * s = 0 for the singular value 1e-300,
        # which would leave sp with non-finite targets
        ("1\n1 2:1e-300\n", "closed"),
        # w_star is finite, but the squared losses at it overflow
        ("1e308 1:1\n-1e308 1:1\n", "iter"),
    ], ids=["singular_value", "label"])
    @pytest.mark.parametrize("command", ["run", "grid", "compare"])
    def test_non_finite_certificate_is_config_error(self, tmp_path, capsys, command, text, oracle):
        data_file = tmp_path / "rows.txt"
        data_file.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--dataset", str(data_file), "--family", "squared",
                                 "--oracle", oracle, "--epochs", "1", "--methods", "sp,taps")
        assert (code, out) == (2, "")
        assert err == (f"error: oracle = {oracle} gives non-finite optimal losses on {data_file}; "
                       "set oracle = none\n")

    @pytest.mark.parametrize("argv", [("run", "--method", "sp"), ("compare", "--methods", "sp,taps")])
    def test_unwritable_out_after_an_abort_is_one_error_line(self, tmp_path, capsys, argv):
        # the run aborts on the overflowing row, and --out names a directory:
        # the trace is written before the abort message, so the failed write
        # is the only line
        data_file = tmp_path / "wide.txt"
        data_file.write_text(OVERFLOW_ROW, encoding="utf-8")
        code, out, err = run_cli(capsys, *argv, "--dataset", str(data_file), "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"

    @pytest.mark.parametrize("method", ["sgd", "sag", "svrg", "adam"])
    def test_explicit_step_runs_at_zero_l_max(self, tmp_path, capsys, method):
        data_file = tmp_path / "flat.txt"
        data_file.write_text("1\n-1\n1\n", encoding="utf-8")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"dataset = {data_file}\nsgd_schedule = constant\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--method", method,
                               "--epochs", "2", "--gamma", "0.5")
        assert code == 0
        assert [r.grad_norm for r in parse_trace_csv(out)] == [0.0, 0.0]

    @pytest.mark.parametrize("command", ["run", "grid", "compare", "verify"])
    def test_negative_seed_is_config_error(self, capsys, command):
        extra = () if command == "verify" else ("--dataset", SMALL, "--epochs", "1")
        code, out, err = run_cli(capsys, command, "--seed", "-1", *extra)
        assert code == 2 and err == "error: seed must be >= 0, got -1\n" and out == ""

    def test_internal_value_error_is_not_a_config_error(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "run_epochs", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["run", "--dataset", SMALL, "--method", "sp", "--epochs", "1"])


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
        cfg = self.write_cfg(tmp_path, "0.5,1.0", "0.1,0.2", method="motaps")
        code, out, _ = run_cli(capsys, "grid", "--config", str(cfg))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "gamma,gamma_tau,final_grad_norm,final_loss"
        assert len(lines) == 1 + 4 + 1
        assert lines[-1].startswith("# best gamma=")

    def test_methods_without_gamma_tau_sweep_gamma_only(self, tmp_path, capsys):
        # taps never reads gamma_tau: one row per gamma, at the configured
        # gamma_tau, whose grid is still checked
        cfg = self.write_cfg(tmp_path, "0.5,1.0", "0.1,0.2")
        code, out, _ = run_cli(capsys, "grid", "--config", str(cfg), "--gamma-tau", "0.3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 2 + 1
        assert [line.split(",")[:2] for line in lines[1:3]] == [["0.5", "0.3"], ["1.0", "0.3"]]
        cfg = self.write_cfg(tmp_path, "0.5,1.0", "0.1,1.5")
        code, out, err = run_cli(capsys, "grid", "--config", str(cfg))
        assert code == 2 and "gamma_tau" in err and out == ""

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

    def test_bad_step_setting_is_config_error(self, tmp_path, capsys):
        # the grid overrides gamma per cell, but a bad configured gamma is
        # still rejected rather than ignored
        cfg = self.write_cfg(tmp_path, "0.5", "0.1")
        code, out, err = run_cli(capsys, "grid", "--config", str(cfg), "--gamma", "-1")
        assert code == 2 and "gamma" in err and out == ""

    def test_benchmark_calls_with_threads_flag(self, tmp_path, capsys):
        # the benchmark's dense-grid calls: --threads is accepted and ignored
        common = ["--dataset", "synth:separable:n=100,d=20,seed=3", "--threads", "1"]
        grid, compare = tmp_path / "grid.csv", tmp_path / "compare.csv"
        assert main(["grid", "--method", "motaps", "--epochs", "2", "--out", str(grid), *common]) == 0
        assert main(["compare", "--epochs", "2", "--out", str(compare), *common]) == 0
        lines = grid.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 49 + 1 and lines[-1].startswith("# best")
        rows = [line.split(",", 1)[0] for line in compare.read_text(encoding="utf-8").splitlines()
                if not line.startswith(("#", "method,"))]
        assert sorted(set(rows)) == sorted(["sp", "taps", "motaps", "sgd", "sag", "svrg"])
        assert len(rows) == 6 * 2

    def test_threads_key_is_unknown(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "0.5", "0.1")
        cfg.write_text(cfg.read_text(encoding="utf-8") + "threads = 2\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "grid", "--config", str(cfg))
        assert code == 2 and "unknown key 'threads'" in err and out == ""


def write_sparse(path, seed, n=12, d=40, k=4):
    """A LIBSVM file of n rows with k nonzeros each and labels -1 or +1;
    the first row is empty."""
    rng = np.random.default_rng(seed)
    lines = []
    for r in range(n):
        cols = np.sort(rng.choice(d, 0 if r == 0 else k, replace=False))
        pairs = [f"{j + 1}:{v!r}" for j, v in zip(cols.tolist(), rng.standard_normal(cols.size).tolist())]
        lines.append(" ".join([str(rng.choice([-1, 1]))] + pairs))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# dataset, settings, gamma grid, gamma_tau grid
GRID_CASES = {
    "sp-dense": ("dense", "method = sp\n", "0.5,1.0", "0.1"),
    "spsmax-cap-dense": ("dense", "method = spsmax\nstep_cap = 0.3\n", "0.5,1.0,1.5", "0.1"),
    "taps-dense": ("dense", "method = taps\ntau = 0.05\n", "0.5,1.0", "0.1,0.5"),
    "motaps-dense": ("dense", "method = motaps\nlambda = 0.2\n", "0.4,0.9,1.1", "0.001,0.1,0.9"),
    "sp-sparse": ("sparse", "method = sp\nsigma = 0.01\n", "0.5,1.0", "0.1"),
    "spsmax-cap-sparse": ("sparse", "method = spsmax\nsigma = 0.01\nstep_cap = 0.3\n", "0.5,1.0", "0.1"),
    "taps-sparse": ("sparse", "method = taps\nsigma = 0.01\ntau = 0.05\n", "0.5,1.0", "0.1,0.5"),
    "motaps-sparse": ("sparse", "method = motaps\nsigma = 0.01\n", "0.4,0.9,1.1", "0.001,0.1,0.9"),
    # gamma = 0.95 and 1.1 take steps with 1 - gamma*c*sigma <= 0 here, which
    # fold the lazy scale into the weights mid-epoch
    "sp-sparse-fold": ("fold", "method = sp\nsigma = 0.5\nseed = 2\n", "0.5,0.95,1.1", "0.1"),
    "motaps-beta-sparse": ("sparse", "method = motaps\nsigma = 0.01\nbeta = 0.5\n", "0.4,0.9", "0.1,0.5"),
    "sp-beta-dense": ("dense", "method = sp\nbeta = 0.3\n", "0.5,1.0", "0.1"),
    "motaps-decreasing": (
        "sparse", "method = motaps\nsigma = 0.01\nschedule = motaps_decreasing\nmu = 0.5\n",
        "0.5,1.0", "0.1,0.5",
    ),
    "sp-divergent": ("explode", "method = sp\nfamily = squared\n", "0.9,6.0,1.5", "0.1"),
    # the certificate's per-sample losses are the sp target, as in run
    "sp-oracle-dense": ("dense", "method = sp\nsigma = 0.1\noracle = closed\n", "0.1,0.5,1.0", "0.1"),
    "spsmax-oracle-sparse": (
        "sparse", "method = spsmax\nsigma = 0.05\nstep_cap = 0.3\noracle = closed\n", "0.5,1.0", "0.1",
    ),
}


class TestGridMatchesRun:
    """Every cell of a grid is the last record of ``run`` at its gamma and
    gamma_tau, exactly; a cell whose run aborts is inf."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("case", list(GRID_CASES))
    def test_every_cell_equals_run(self, tmp_path, capsys, case):
        kind, settings, gammas, gamma_taus = GRID_CASES[case]
        if kind == "dense":
            dataset = SMALL
        elif kind == "explode":
            dataset = tmp_path / "explode.txt"
            dataset.write_text("1 1:1.0\n1 1:1.0\n", encoding="utf-8")
        else:
            dataset = write_sparse(tmp_path / "sparse.txt", seed=5 if kind == "fold" else 3)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"dataset = {dataset}\nepochs = {400 if kind == 'explode' else 4}\n{settings}"
            f"gamma_grid = {gammas}\ngamma_tau_grid = {gamma_taus}\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "grid", "--config", str(cfg))
        if "motaps_decreasing" in settings:
            # the schedule sets gamma and gamma_tau itself: every cell would
            # be the same run, so grid refuses it
            assert code == 2 and "schedule = constant" in err and out == ""
            runs = {run_cli(capsys, "run", "--config", str(cfg), "--gamma", gamma,
                            "--gamma-tau", gamma_tau)[1]
                    for gamma in gammas.split(",") for gamma_tau in gamma_taus.split(",")}
            assert len(runs) == 1
            return
        assert code == 0
        cells = [line.split(",") for line in out.splitlines()[1:] if not line.startswith("#")]
        # only motaps reads gamma_tau; the others sweep gamma alone
        swept = len(gamma_taus.split(",")) if "motaps" in settings else 1
        assert len(cells) == len(gammas.split(",")) * swept
        aborted = 0
        for gamma, gamma_tau, grad_norm, loss in cells:
            code, out, _ = run_cli(
                capsys, "run", "--config", str(cfg), "--gamma", gamma, "--gamma-tau", gamma_tau
            )
            if code == 3:
                aborted += 1
                assert grad_norm == loss == "inf"
            else:
                assert code == 0
                last = parse_trace_csv(out)[-1]
                assert (last.grad_norm, last.full_loss) == (float(grad_norm), float(loss))
        assert aborted == (1 if kind == "explode" else 0)


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

    def test_json_format_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--dataset", SMALL, "--epochs", "1",
                                 "--format", "json")
        assert code == 2 and out == ""
        assert err == "error: compare writes csv only, got format = json\n"

    def test_requires_two_methods(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(f"dataset = {SMALL}\nmethods = sp\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "compare", "--config", str(cfg))
        assert code == 2 and "error" in err

    def test_unknown_method_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(f"dataset = {SMALL}\nepochs = 1\nmethods = sp,nosuch\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "compare", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == "error: unknown method 'nosuch'\n"

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

    def test_sp_rows_match_run(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(f"dataset = {SMALL}\nepochs = 3\nmethods = sp,taps\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "compare", "--config", str(cfg))
        assert code == 0
        sp_rows = [line[len("sp,"):] for line in out.splitlines() if line.startswith("sp,")]
        code, out, _ = run_cli(
            capsys, "run", "--config", str(cfg), "--method", "sp", "--gamma", "1.0"
        )
        assert code == 0
        assert len(sp_rows) == 3 and sp_rows == out.splitlines()[1:]

    def test_adam_rows_match_run(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(f"dataset = {SMALL}\nepochs = 3\nmethods = sp,adam\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "compare", "--config", str(cfg))
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["# sp gamma=1.0", "# adam alpha=0.001"]
        adam_rows = [line[len("adam,"):] for line in lines if line.startswith("adam,")]
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--method", "adam")
        assert code == 0
        assert len(adam_rows) == 3 and adam_rows == out.splitlines()[1:]

    def test_numeric_abort_keeps_other_methods(self, tmp_path, capsys, monkeypatch):
        real = cli.run_baseline

        def abort_sag(method, *args, **kwargs):
            records = real(method, *args, **kwargs)
            if method != "sag":
                return records
            err = NumericError("injected", sample_index=0)
            err.records = records[:1]
            raise err

        monkeypatch.setattr(cli, "run_baseline", abort_sag)
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(
            f"dataset = {SMALL}\nepochs = 2\nmethods = sp,sag,svrg\n", encoding="utf-8"
        )
        out_file = tmp_path / "cmp.csv"
        code, _, err = run_cli(capsys, "compare", "--config", str(cfg), "--out", str(out_file))
        assert code == 3
        assert "warning: sag aborted: injected" in err
        lines = out_file.read_text(encoding="utf-8").splitlines()
        assert lines[3] == "method," + CSV_HEADER
        assert [row.split(",")[0] for row in lines[4:]] == ["sp", "sp", "sag", "svrg", "svrg"]

    def test_overflowing_sigma_is_config_error(self, capsys):
        # the motaps rule of thumb needs 0.25*sigma*e^sigma: at 1000 e^sigma
        # overflows, at 706 only the product does
        for sigma in ("1000", "706"):
            code, out, err = run_cli(
                capsys, "compare", "--dataset", SMALL, "--sigma", sigma, "--epochs", "1"
            )
            assert code == 2 and f"sigma = {float(sigma)!r}" in err and out == ""

    def test_step_from_zero_l_max_is_config_error(self, tmp_path, capsys):
        # rows with no features and sigma = 0: L_max = 0 gives no step size,
        # and compare takes these steps from L_max whatever gamma says
        data_file = tmp_path / "flat.txt"
        data_file.write_text("1\n-1\n1\n", encoding="utf-8")
        cfg = tmp_path / "cmp.cfg"
        for method in ("sag", "svrg", "sgd"):
            cfg.write_text(f"dataset = {data_file}\nepochs = 1\nmethods = sp,{method}\n"
                           "gamma = 0.5\nsgd_schedule = constant\n", encoding="utf-8")
            code, out, err = run_cli(capsys, "compare", "--config", str(cfg))
            assert code == 2 and err.startswith("error: L_max = 0.0") and out == ""
            assert "compare takes" in err and "leave it out of methods, or use run with gamma" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_baselines_warn_and_exit_3(self, tmp_path, capsys):
        data_file = tmp_path / "huge.txt"
        data_file.write_text("1e200 1:1.0\n1 1:2.0\n", encoding="utf-8")
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(
            f"dataset = {data_file}\nfamily = monomial\nepochs = 3\nmethods = sgd,svrg\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "compare", "--config", str(cfg))
        assert code == 3
        assert "warning: sgd aborted" in err and "warning: svrg aborted" in err
        assert out.splitlines()[2] == "method," + CSV_HEADER


class TestVerify:
    def test_passes_and_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--sizes", "4:3", "--seed", "1")
        assert code == 0
        assert "FAIL" not in out
        for suite in (
            "growth", "projection", "sgd_equivalence", "invariance", "gradient_check",
        ):
            assert f"PASS  {suite}" in out

    def test_ill_conditioned_sp_seed_passes(self, capsys):
        # seed 609 draws an sp trace whose aux_value (about 212) amplifies a
        # 1e-14 difference in w past the 1e-10 trace tolerance
        code, out, _ = run_cli(capsys, "verify", "--seed", "609")
        assert code == 0 and "FAIL" not in out

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

    def test_sizes_below_one_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--sizes", "0:3")
        assert code == 2 and out == ""
        assert err == "error: bad --sizes '0:3'; expected n:d pairs like 5:3,20:8\n"


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

    def test_separable_noise_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--dataset", "synth:separable:n=5,d=3,noise=0.7")
        assert code == 2 and out == ""
        assert err == "error: synth:separable:n=5,d=3,noise=0.7: noise=0.7 applies to underparam mode only\n"
        code, out, _ = run_cli(capsys, "gen", "--dataset", "synth:separable:n=5,d=3,noise=0")
        assert code == 0
        assert out == serialize_libsvm(synth_dataset(0, 5, 3, "separable")[0])

    @pytest.mark.parametrize("noise", ["nan", "inf", "1e308"])
    def test_non_finite_label_is_config_error(self, capsys, noise):
        # 1e308 times a normal draw above 1.8 overflows, silently
        spec = f"synth:underparam:n=20,d=2,noise={noise}"
        for argv in (("gen",), ("run", "--family", "squared", "--oracle", "iter")):
            code, out, err = run_cli(capsys, *argv, "--dataset", spec)
            assert (code, out, err) == (2, "", f"error: {spec}: non-finite label\n")

    def test_requires_synthetic_spec(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--dataset", "real.txt")
        assert code == 2 and "error" in err


class TestUnreadableInput:
    """A file that cannot be read as what its flag asks for exits 2 with one
    ``error:`` line naming it, and no traceback."""

    @staticmethod
    def assert_names(err, path):
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and str(path) in lines[0]

    @pytest.mark.parametrize("corrupt", [
        lambda b: b[: len(b) // 2],  # truncated: EOFError
        lambda b: b[:10] + b"\xff" * 20,  # invalid deflate block: zlib.error
        lambda b: b[:-5] + bytes([b[-5] ^ 1]) + b[-4:],  # CRC mismatch: gzip.BadGzipFile
    ], ids=["truncated", "bad-block", "bad-crc"])
    def test_corrupt_gzip_dataset(self, tmp_path, capsys, corrupt):
        data_file = tmp_path / "small.svm.gz"
        data_file.write_bytes(corrupt(gzip.compress(serialize_libsvm(resolve_dataset(SMALL)).encode())))
        code, out, err = run_cli(capsys, "run", "--dataset", str(data_file), "--method", "sp")
        assert code == 2 and out == ""
        self.assert_names(err, data_file)

    @pytest.mark.parametrize("flag", ["--dataset", "--config", "--out"])
    def test_directory_in_place_of_a_file(self, tmp_path, capsys, flag):
        args = {"--dataset": SMALL, "--method": "sp", "--epochs": "1", flag: str(tmp_path)}
        code, out, err = run_cli(capsys, "run", *(x for kv in args.items() for x in kv))
        assert code == 2 and out == ""
        self.assert_names(err, tmp_path)

    def test_dataset_that_is_not_utf8(self, tmp_path, capsys):
        data_file = tmp_path / "latin1.svm"
        data_file.write_bytes("+1 1:0.5  # \u00e9chantillon\n-1 2:1.0\n".encode("latin-1"))
        code, out, err = run_cli(capsys, "run", "--dataset", str(data_file), "--method", "sp")
        assert code == 2 and out == ""
        self.assert_names(err, data_file)
        assert "is not UTF-8 text" in err

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("epochs = 2  # \u00e9poques\n".encode("latin-1"))
        code, out, err = run_cli(capsys, "run", "--config", str(cfg), "--dataset", SMALL)
        assert code == 2 and out == ""
        self.assert_names(err, cfg)


class TestParser:
    def test_missing_subcommand_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_flags_are_config_keys(self):
        # every config field has exactly one flag, its key with '-' for '_',
        # and a flag's value is read as the config file reads that key
        flags = set(vars(cli.build_parser().parse_args(["run"]))) - {"command", "config", "threads"}
        assert flags == {f.name for f in dataclasses.fields(ExperimentConfig)}
        cfg = ExperimentConfig(
            dataset=SMALL, normalize=True, family="squared", sigma=0.25, power_r=2.0,
            method="motaps", gamma=0.5, gamma_tau=0.2, lam=0.3, beta=0.1, step_cap=4.0,
            schedule="motaps_decreasing", mu=0.05, epochs=7, seed=2, tau=-0.5, fi_star=0.125,
            oracle="iter", budget=9, out="t.csv", format="json", methods="sp,sgd",
            gamma_grid="0.5,1", gamma_tau_grid="0.1", sgd_schedule="constant",
        )
        argv = ["run"]
        for line in dump_config(cfg).splitlines():
            key, value = line.split(" = ", 1)
            argv += ["--" + key.replace("_", "-")] + ([] if key == "normalize" else [value])
        assert cli._resolve_config(cli.build_parser().parse_args(argv)) == (cfg, flags)

    @pytest.mark.parametrize("flag, value, message", [
        ("--gamma", "x", "bad value for gamma: 'x'"),
        ("--epochs", "1.5", "bad value for epochs: '1.5'"),
        ("--format", "xml", "format must be one of ('csv', 'json'), got 'xml'"),
        ("--oracle", "exact", "oracle must be one of ('none', 'closed', 'iter'), got 'exact'"),
    ])
    def test_bad_flag_value_is_one_error_line(self, capsys, flag, value, message):
        # the config file's message, not argparse's usage block
        code, out, err = run_cli(capsys, "run", "--dataset", SMALL, flag, value)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_every_key_is_a_flag(self, tmp_path, capsys):
        # least squares runs from flags alone as it does from a config file
        (tmp_path / "ls.cfg").write_text("family = squared\noracle = closed\n", encoding="utf-8")
        common = ["--dataset", "synth:underparam:n=12,d=3,seed=1", "--epochs", "3", "--method", "taps"]
        by_flag = run_cli(capsys, "run", *common, "--family", "squared", "--oracle", "closed")
        by_file = run_cli(capsys, "run", *common, "--config", str(tmp_path / "ls.cfg"))
        assert by_flag == by_file and by_flag[0] == 0

    def test_flag_prefix_shared_by_two_keys_is_ambiguous(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--gamma-t", "0.1"])
        assert exc.value.code == 2
        assert "ambiguous option: --gamma-t could match --gamma-tau, --gamma-tau-grid" in capsys.readouterr().err


def test_run_imports_numpy_alone():
    # importing scipy would about double the start-up time of every command
    script = (
        "import os, sys\n"
        "import polyak_opt\n"
        "from polyak_opt import cli\n"
        "code = cli.main(['run', '--dataset', 'synth:separable:n=20,d=5', '--method', 'motaps',\n"
        "                 '--epochs', '2', '--out', os.devnull])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert done.stdout == "0 []\n"


def test_outputs_do_not_follow_numpy_simd_dispatch():
    # numpy picks its exp/log loops by CPU feature, and its AVX-512 loops
    # round differently from libm; with every phi, phi' and Hessian weight
    # taken through libm, a certificate and a run print the same bytes with
    # numpy's AVX2 and AVX-512 dispatch off (an unknown name is ignored)
    spec = "synth:separable:n=100,d=20,seed=3"
    script = (
        "from numpy._core._multiarray_umath import __cpu_features__ as cpu\n"
        "from polyak_opt import cli\n"
        "from polyak_opt.config import resolve_dataset\n"
        "from polyak_opt.losses import LossSpec, optimum_oracle\n"
        "print(any(cpu.get(k) for k in ('X86_V4', 'AVX512_SKX')))\n"
        f"cert = optimum_oracle(LossSpec('logistic', sigma=0.01), resolve_dataset({spec!r}))\n"
        "print(cert.w_star.tobytes().hex())\n"
        f"cli.main(['run', '--dataset', {spec!r}, '--method', 'sp', '--sigma', '0.01',\n"
        "          '--oracle', 'iter', '--epochs', '20'])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    off = {**env, "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
    children = [subprocess.Popen([sys.executable, "-c", script], env=e, text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                for e in (env, off)]
    (default, err), (plain, err_off) = (child.communicate(timeout=120) for child in children)
    assert [child.returncode for child in children] == [0, 0], err + err_off
    avx512, default = default.split("\n", 1)
    assert plain.split("\n", 1)[1] == default, f"default child AVX-512 on: {avx512}"
