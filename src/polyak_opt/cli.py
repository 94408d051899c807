"""Command-line experiment runner.

Subcommands: ``run`` (one method, one trace file), ``grid`` (γ × γ_τ sweep
with a best-cell summary), ``compare`` (several methods on one dataset in a
long-format trace), ``verify`` (the randomized property suites), and ``gen``
(write a synthetic dataset as a LIBSVM file).

Settings resolve as defaults < ``--config`` file < explicit flags. Thread
count resolves as ``--threads`` < ``POLYAK_OPT_THREADS`` < config, with 0
meaning the executor default. Exit codes: 0 success, 1 failed verification,
2 bad configuration or input, 3 numeric abort (partial trace still
written). Only a ``ConfigError``, a ``ParseError`` or a missing file is
reported as exit 2; every other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .baselines import BASELINES, run_baseline
from .config import (
    ConfigError,
    ExperimentConfig,
    make_hyper,
    make_loss_spec,
    parse_float_list,
    parse_updates,
    resolve_dataset,
    with_updates,
)
from .data import ParseError, normalize_samples, serialize_libsvm
from .losses import UnsupportedFamilyError, optimum_oracle, smoothness_constants
from .polyak import METHODS, NumericError, check_lambda, rule_of_thumb, run_epochs
from .traces import CSV_HEADER, trace_to_csv, trace_to_json
from .verify import format_report, run_all

_OVERRIDE_FIELDS = (
    "dataset",
    "normalize",
    "method",
    "gamma",
    "gamma_tau",
    "lam",
    "beta",
    "epochs",
    "seed",
    "sigma",
    "tau",
    "fi_star",
    "out",
    "format",
    "oracle",
    "threads",
)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="config file (flat key = value)")
    p.add_argument("--dataset", metavar="PATH", help="LIBSVM path or synth:<mode>:n=..,d=..")
    p.add_argument(
        "--normalize",
        action="store_const",
        const=True,
        default=None,
        help="scale every sample to unit norm before running",
    )
    p.add_argument("--method", help=f"one of {', '.join(METHODS + BASELINES)}")
    p.add_argument("--gamma", type=float)
    p.add_argument("--gamma-tau", type=float, dest="gamma_tau")
    p.add_argument("--lambda", type=float, dest="lam")
    p.add_argument("--beta", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--fi-star", type=float, dest="fi_star")
    p.add_argument("--out", metavar="PATH", help="output file; omit for stdout")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--oracle", choices=("none", "closed", "iter"))
    p.add_argument("--threads", type=int, metavar="N")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyak-opt",
        description="Stochastic Polyak-step methods, baselines, and their verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("run", "run one method and write its per-epoch trace"),
        ("grid", "sweep the gamma x gamma_tau grid and report the best cell"),
        ("compare", "run several methods with their standard settings on one dataset"),
    ):
        _add_common_flags(sub.add_parser(name, help=doc))
    ver = sub.add_parser("verify", help="run the property suites")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--sizes", help="problem sizes as n:d pairs, e.g. 5:3,20:8")
    ver.add_argument(
        "--inject-fault",
        action="store_true",
        help="corrupt one gradient formula to demonstrate the suites fail",
    )
    gen = sub.add_parser("gen", help="write a synthetic dataset as a LIBSVM file")
    gen.add_argument("--dataset", required=True, help="synth:<mode>:n=..,d=..[,noise=..][,seed=..]")
    gen.add_argument("--out", metavar="PATH", help="output file; omit for stdout")
    return parser


def _resolve_config(args: argparse.Namespace) -> tuple[ExperimentConfig, set[str]]:
    """The settings, and the names of the fields the config file or a flag
    set (whatever value they set them to)."""
    file_updates = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_updates = parse_updates(fh.read())
    flag_updates = {
        name: getattr(args, name)
        for name in _OVERRIDE_FIELDS
        if getattr(args, name, None) is not None
    }
    cfg = with_updates(with_updates(ExperimentConfig(), file_updates), flag_updates)
    if "threads" not in flag_updates and "POLYAK_OPT_THREADS" in os.environ:
        raw = os.environ["POLYAK_OPT_THREADS"]
        try:
            cfg = dataclasses.replace(cfg, threads=int(raw))
        except ValueError:
            raise ConfigError(f"POLYAK_OPT_THREADS must be an integer, got {raw!r}") from None
    return cfg, set(file_updates) | set(flag_updates)


def _load(cfg: ExperimentConfig, methods):
    """The dataset and loss spec for running ``methods``. The dataset must
    not be empty, motaps needs lambda < lambda_max(n), and a logistic loss
    needs labels in {-1, +1}: a 0/1 file would run with its 0 rows as
    constant log 2 terms."""
    data = resolve_dataset(cfg.dataset)
    if data.n == 0:
        raise ConfigError(f"{cfg.dataset} holds no samples")
    if cfg.normalize:
        data = normalize_samples(data)
    if "motaps" in methods:
        try:
            check_lambda(cfg.lam, data.n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    spec = make_loss_spec(cfg)
    if spec.family == "logistic":
        bad = np.flatnonzero(np.abs(data.labels) != 1.0)
        if bad.size:
            raise ConfigError(
                f"logistic loss needs labels -1 or +1; row {int(bad[0]) + 1} "
                f"of {cfg.dataset} has label {float(data.labels[bad[0]])!r}"
            )
    return data, spec


def _unsupported_as_config_error(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with an operation the configured loss family
    does not define (UnsupportedFamilyError) reported as a ConfigError."""
    try:
        return fn(*args, **kwargs)
    except UnsupportedFamilyError as exc:
        raise ConfigError(str(exc)) from None


def _certificate(cfg: ExperimentConfig, spec, data):
    if cfg.oracle == "none":
        return None
    budget = cfg.budget if cfg.oracle == "iter" else None
    return _unsupported_as_config_error(optimum_oracle, spec, data, budget=budget)


def _run_method(method, cfg, spec, data, cert, gamma_set):
    """One full run of a Polyak method or baseline, returning its records.

    When an oracle certificate is present it supplies the per-sample
    targets for sp/spsmax (overriding the scalar ``fi_star``). For
    baselines, a ``gamma`` that neither the config file nor a flag set
    (``gamma_set`` false) is treated as unset, so sag/svrg fall back to
    their standard 1/(2 L_max)."""
    if method in METHODS:
        fi_star = cfg.fi_star
        if cert is not None and method in ("sp", "spsmax"):
            fi_star = cert.fi_star
        return run_epochs(
            method, spec, data, make_hyper(cfg), cfg.epochs, cfg.seed, cert,
            fi_star=fi_star, tau=cfg.tau,
        )
    if method in BASELINES:
        gamma = cfg.gamma if gamma_set else None
        return _unsupported_as_config_error(
            run_baseline, method, spec, data, cfg.epochs, cfg.seed, cert,
            gamma=gamma, sgd_schedule=cfg.sgd_schedule,
        )
    raise ConfigError(f"unknown method {method!r}")


def _emit(text: str, out: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    cfg, explicit = _resolve_config(args)
    data, spec = _load(cfg, [cfg.method])
    cert = _certificate(cfg, spec, data)
    code = 0
    try:
        records = _run_method(cfg.method, cfg, spec, data, cert, "gamma" in explicit)
    except NumericError as err:
        records = err.records
        print(f"error: numeric abort at sample {err.sample_index}: {err}", file=sys.stderr)
        code = 3
    if cfg.format == "json":
        _emit(trace_to_json(records), cfg.out)
    else:
        _emit(trace_to_csv(records), cfg.out)
    return code


def _grid_cell(cfg, spec, data, gamma, gamma_tau):
    """Final (grad_norm, loss) of one grid cell; divergence maps to inf."""
    try:
        hyper = make_hyper(cfg, gamma=gamma, gamma_tau=gamma_tau)
        rec = run_epochs(
            cfg.method, spec, data, hyper, cfg.epochs, cfg.seed,
            fi_star=cfg.fi_star, tau=cfg.tau,
        )[-1]
    except (NumericError, FloatingPointError, OverflowError):
        return math.inf, math.inf
    if not (np.isfinite(rec.full_loss) and np.isfinite(rec.grad_norm)) or rec.full_loss > 1e12:
        return math.inf, math.inf
    return rec.grad_norm, rec.full_loss


def cmd_grid(args) -> int:
    cfg, _ = _resolve_config(args)
    if cfg.method not in METHODS:
        raise ConfigError(f"grid sweeps a Polyak method, got {cfg.method!r}")
    data, spec = _load(cfg, [cfg.method])
    gammas = parse_float_list(cfg.gamma_grid)
    gamma_taus = parse_float_list(cfg.gamma_tau_grid)
    cells = [(g, gt) for g in gammas for gt in gamma_taus]
    workers = cfg.threads if cfg.threads > 0 else None
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda c: _grid_cell(cfg, spec, data, *c), cells))
    best_idx = min(
        range(len(cells)), key=lambda k: (results[k][0], cells[k][0], cells[k][1])
    )
    bg, bgt = cells[best_idx]
    summary = f"best gamma={bg!r} gamma_tau={bgt!r} final_grad_norm={results[best_idx][0]!r}"
    if cfg.format == "json":
        rows = [
            {"gamma": g, "gamma_tau": gt, "final_grad_norm": gn, "final_loss": fl}
            for (g, gt), (gn, fl) in zip(cells, results)
        ]
        _emit(json.dumps({"cells": rows, "best": {"gamma": bg, "gamma_tau": bgt}}, indent=2) + "\n", cfg.out)
    else:
        lines = ["gamma,gamma_tau,final_grad_norm,final_loss"]
        lines += [f"{g!r},{gt!r},{gn!r},{fl!r}" for (g, gt), (gn, fl) in zip(cells, results)]
        lines.append(f"# {summary}")
        _emit("\n".join(lines) + "\n", cfg.out)
    if cfg.out:
        print(summary)
    return 0


def _compare_settings(method: str, cfg, spec, data):
    """Standard per-method settings for side-by-side runs: SP and TAPS take
    the unit step with zero targets, SAG/SVRG take 1/(2 L_max) from the
    measured smoothness, MOTAPS takes the regularization rule of thumb, and
    SGD keeps its configured schedule."""
    if method in ("sp", "spsmax"):
        return {"gamma": 1.0}, f"# {method} gamma=1.0"
    if method == "taps":
        return {"gamma": 1.0}, f"# taps gamma=1.0 tau={cfg.tau!r}"
    if method == "motaps":
        g, gt = rule_of_thumb(spec.sigma)
        return {"gamma": g, "gamma_tau": gt}, f"# motaps gamma={g!r} gamma_tau={gt!r} lambda={cfg.lam!r}"
    if method in ("sag", "svrg"):
        _, l_max = smoothness_constants(spec, data)
        g = 1.0 / (2.0 * l_max)
        return {"gamma": g}, f"# {method} gamma={g!r}"
    if method == "sgd":
        return {}, f"# sgd schedule={cfg.sgd_schedule}"
    if method == "adam":
        return {}, "# adam alpha=0.001"
    raise ConfigError(f"unknown method {method!r}")


def cmd_compare(args) -> int:
    cfg, _ = _resolve_config(args)
    methods = [m.strip() for m in cfg.methods.split(",") if m.strip()]
    if len(methods) < 2:
        raise ConfigError("compare needs at least two methods")
    data, spec = _load(cfg, methods)
    cert = _certificate(cfg, spec, data)
    plain = dataclasses.replace(make_hyper(cfg), gamma=1.0)

    def one(method):
        overrides, header = _unsupported_as_config_error(
            _compare_settings, method, cfg, spec, data
        )
        base = dict(fi_star=0.0 if method in ("sp", "spsmax") else cfg.fi_star)
        try:
            if method in METHODS:
                hyper = dataclasses.replace(plain, **overrides)
                records = run_epochs(
                    method, spec, data, hyper, cfg.epochs, cfg.seed, cert,
                    tau=cfg.tau, **base,
                )
            else:
                records = _unsupported_as_config_error(
                    run_baseline, method, spec, data, cfg.epochs, cfg.seed, cert,
                    gamma=overrides.get("gamma"), sgd_schedule=cfg.sgd_schedule,
                )
            return header, records, None
        except NumericError as err:
            return header, err.records, err

    workers = cfg.threads if cfg.threads > 0 else None
    with ThreadPoolExecutor(max_workers=workers) as pool:
        outcomes = list(pool.map(one, methods))

    code = 0
    lines = []
    body = []
    for method, (header, records, err) in zip(methods, outcomes):
        lines.append(header)
        if err is not None:
            print(f"warning: {method} aborted: {err}", file=sys.stderr)
            code = 3
        for rec in records:
            row = trace_to_csv([rec]).splitlines()[1]
            body.append(f"{method},{row}")
    lines.append("method," + CSV_HEADER)
    lines += body
    _emit("\n".join(lines) + "\n", cfg.out)
    return code


def cmd_verify(args) -> int:
    sizes = None
    if args.sizes:
        try:
            sizes = [tuple(int(x) for x in pair.split(":")) for pair in args.sizes.split(",")]
            if any(len(p) != 2 or p[0] < 1 or p[1] < 1 for p in sizes):
                raise ValueError
        except ValueError:
            raise ConfigError(f"bad --sizes {args.sizes!r}; expected n:d pairs like 5:3,20:8")
    reports, ok = run_all(seed=args.seed, sizes=sizes, inject_fault=args.inject_fault)
    print(format_report(reports))
    return 0 if ok else 1


def cmd_gen(args) -> int:
    if not args.dataset.startswith("synth:"):
        raise ConfigError("gen needs a synth:<mode>:... dataset spec")
    data = resolve_dataset(args.dataset)
    _emit(serialize_libsvm(data), args.out or "")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "grid": cmd_grid,
    "compare": cmd_compare,
    "verify": cmd_verify,
    "gen": cmd_gen,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
