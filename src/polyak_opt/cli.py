"""Command-line experiment runner.

Subcommands: ``run`` (one method, one trace file), ``grid`` (a γ × γ_τ
sweep for motaps and a γ sweep for the methods that do not read γ_τ, with
a best-cell summary; the motaps sweep at β = 0 on data whose rows are all
full runs as one batch, and every other sweep as one run per cell),
``compare`` (several methods on one dataset in a long-format trace),
``verify`` (the randomized property suites), and ``gen`` (write a
synthetic dataset as a LIBSVM file).

Settings resolve as defaults < ``--config`` file < explicit flags. The
flags of ``run``, ``grid`` and ``compare`` are built from the config
table: one per key, ``--`` and the key with ``-`` for ``_``, and its text
is read by ``config._coerce`` as a config file's value is, so a bad value
is one ``error:`` line whether it comes from a file or a flag. Every
command runs in one thread; ``--threads N`` is still accepted for old
scripts and ignored. Exit codes: 0 success, 1 failed verification, 2 bad
configuration or input, 3 numeric abort (partial trace still written,
before the abort message).
Only a ``ConfigError``, a ``ParseError`` or an ``OSError`` (a file that
is missing, a directory, or cannot be read or written) is reported as exit
2; every other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import config
from .baselines import BASELINES, FlatDataError, check_l_max, run_baseline
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
from .polyak import METHODS, NumericError, check_lambda, rule_of_thumb, run_epochs, run_grid
from .traces import CSV_HEADER, trace_to_csv, trace_to_json
from .verify import format_report, run_all


# argparse takes a token that starts with '-' for a flag unless this pattern
# matches it, and its own pattern misses -1e-3, -inf and -nan
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


# help for the common flags that have any; every other flag is named by its key
_HELP = {
    "dataset": "LIBSVM path or synth:<mode>:n=..,d=..",
    "normalize": "scale every sample to unit norm before running",
    "method": f"one of {', '.join(METHODS + BASELINES)}",
    "out": "output file; omit for stdout",
    "format": f"one of {', '.join(config._FORMATS)}",
    "oracle": f"one of {', '.join(config._ORACLES)}",
}


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    """``--config``, ``--threads`` and one flag per config key, spelled as
    the key with ``-`` for ``_``. A flag keeps its value as text, which
    ``_resolve_config`` reads as the config file reads it."""
    p._negative_number_matcher = _NEGATIVE_NUMBER
    p.add_argument("--config", metavar="PATH", help="config file (flat key = value)")
    for name, key in config._KEY_OF.items():
        flag, text = "--" + key.replace("_", "-"), _HELP.get(key)
        if isinstance(config._FIELDS[name].default, bool):
            p.add_argument(flag, dest=name, action="store_const", const="true", help=text)
        else:
            p.add_argument(flag, dest=name, metavar=key.upper(), help=text)
    p.add_argument("--threads", type=int, metavar="N",
                   help="ignored: every command runs in one thread")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyak-opt",
        description="Stochastic Polyak-step methods, baselines, and their verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("run", "run one method and write its per-epoch trace"),
        ("grid", "sweep the gamma (x gamma_tau for motaps) grid and report the best cell"),
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
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{args.config} is not UTF-8 text: {exc.reason}") from None
        file_updates = parse_updates(text)
    flag_updates = {
        name: config._coerce(config._KEY_OF[name], raw)
        for name, raw in vars(args).items()
        if name in config._FIELDS and raw is not None
    }
    cfg = with_updates(with_updates(ExperimentConfig(), file_updates), flag_updates)
    return cfg, set(file_updates) | set(flag_updates)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def _load(cfg: ExperimentConfig, methods):
    """The dataset and loss spec for running ``methods``. The seed must be
    >= 0, tau and fi_star finite and the step settings valid whichever
    method runs, the dataset must not be empty, motaps needs
    lambda < lambda_max(n), and a logistic loss labels in {-1, +1}: a 0/1
    file would run its 0 rows as constant log 2s."""
    _check_seed(cfg.seed)
    for key, value in (("tau", cfg.tau), ("fi_star", cfg.fi_star)):
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    make_hyper(cfg)
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
    """``fn(*args, **kwargs)``, with an UnsupportedFamilyError (the loss
    family does not define it) or FlatDataError reported as a ConfigError."""
    try:
        return fn(*args, **kwargs)
    except (UnsupportedFamilyError, FlatDataError) as exc:
        raise ConfigError(str(exc)) from None


def _certificate(cfg: ExperimentConfig, spec, data):
    """The optimum certificate ``cfg.oracle`` asks for (None for none), and
    the sp target of ``cfg.method``: the certificate's per-sample optimal
    losses for sp and spsmax where there is one, else ``cfg.fi_star``. The
    oracle runs with numpy's floating-point warnings off, and non-finite
    optimal losses are a ConfigError. They come from a squared certificate
    on data at the edge of the float range: its closed form divides by
    each singular value's square, which is 0 below about 1e-162, and its
    losses overflow on labels near 1e308."""
    if cfg.oracle == "none":
        return None, cfg.fi_star
    budget = cfg.budget if cfg.oracle == "iter" else None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cert = _unsupported_as_config_error(optimum_oracle, spec, data, budget=budget)
    if not np.isfinite(cert.fi_star).all():
        raise ConfigError(f"oracle = {cfg.oracle} gives non-finite optimal losses on {cfg.dataset}; "
                          "set oracle = none")
    return cert, cert.fi_star if cfg.method in ("sp", "spsmax") else cfg.fi_star


def _trace(method, cfg, spec, data, cert, *, fi_star, gamma=None, gamma_tau=None):
    """One run of ``method`` on ``data``: ``(records, None)``, or the records
    completed before a numeric abort and its NumericError.

    A Polyak method takes the step settings of ``cfg`` with ``gamma`` and
    ``gamma_tau`` on top where given, and ``fi_star`` as its sp target. A
    baseline takes ``gamma`` as its step; None means its standard
    1/(2 L_max). numpy's overflow and invalid-value warnings are silenced:
    a run that overflows ends as a NumericError, reported once by the
    caller."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if method in METHODS:
                hyper = make_hyper(cfg, gamma=gamma, gamma_tau=gamma_tau)
                return run_epochs(
                    method, spec, data, hyper, cfg.epochs, cfg.seed, cert,
                    fi_star=fi_star, tau=cfg.tau,
                ), None
            if method in BASELINES:
                return _unsupported_as_config_error(
                    run_baseline, method, spec, data, cfg.epochs, cfg.seed, cert,
                    gamma=gamma, sgd_schedule=cfg.sgd_schedule,
                ), None
    except NumericError as err:
        return err.records, err
    raise ConfigError(f"unknown method {method!r}")


def _emit(text: str, out: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    """A ``gamma`` that neither the config file nor a flag set is left
    unset, so sag/svrg fall back to their standard step."""
    cfg, explicit = _resolve_config(args)
    data, spec = _load(cfg, [cfg.method])
    cert, fi_star = _certificate(cfg, spec, data)
    gamma = cfg.gamma if "gamma" in explicit else None
    records, err = _trace(cfg.method, cfg, spec, data, cert, fi_star=fi_star, gamma=gamma)
    _emit(trace_to_json(records) if cfg.format == "json" else trace_to_csv(records), cfg.out)
    if err is not None:  # after the trace, so that a failed write is the only message
        print(f"error: numeric abort at sample {err.sample_index}: {err}", file=sys.stderr)
    return 0 if err is None else 3


def cmd_grid(args) -> int:
    cfg, _ = _resolve_config(args)
    if cfg.method not in METHODS:
        raise ConfigError(f"grid sweeps a Polyak method, got {cfg.method!r}")
    if cfg.schedule != "constant":
        raise ConfigError(f"grid needs schedule = constant: {cfg.schedule} sets gamma and "
                          "gamma_tau itself, so every cell would be the same run")
    data, spec = _load(cfg, [cfg.method])
    gammas = parse_float_list(cfg.gamma_grid)
    gamma_taus = parse_float_list(cfg.gamma_tau_grid)
    for g in gammas:
        for gt in gamma_taus:
            make_hyper(cfg, gamma=g, gamma_tau=gt)
    if cfg.method != "motaps":  # only motaps reads gamma_tau: one cell per gamma
        gamma_taus = [cfg.gamma_tau]
    cells = [(g, gt) for g in gammas for gt in gamma_taus]
    _, fi_star = _certificate(cfg, spec, data)
    with np.errstate(over="ignore", invalid="ignore"):
        finals = run_grid(cfg.method, spec, data, make_hyper(cfg), cells, cfg.epochs, cfg.seed,
                          fi_star=fi_star, tau=cfg.tau)
    results = []
    for rec in finals:
        # an abort, a non-finite value or a blown-up loss is divergence
        if rec is not None and math.isfinite(rec.grad_norm) and -math.inf < rec.full_loss <= 1e12:
            results.append((rec.grad_norm, rec.full_loss))
        else:
            results.append((math.inf, math.inf))
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
        try:
            g, gt = rule_of_thumb(spec.sigma)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return {"gamma": g, "gamma_tau": gt}, f"# motaps gamma={g!r} gamma_tau={gt!r} lambda={cfg.lam!r}"
    if method in ("sag", "svrg", "sgd"):
        l_max = check_l_max(smoothness_constants(spec, data)[1], f"compare takes {method}'s step from "
                            "it: leave it out of methods, or use run with gamma (and for sgd "
                            "sgd_schedule = constant)")
    if method in ("sag", "svrg"):
        g = 1.0 / (2.0 * l_max)
        return {"gamma": g}, f"# {method} gamma={g!r}"
    if method == "sgd":
        return {}, f"# sgd schedule={cfg.sgd_schedule}"
    if method == "adam":
        return {}, "# adam alpha=0.001"
    raise ConfigError(f"unknown method {method!r}")


def cmd_compare(args) -> int:
    cfg, _ = _resolve_config(args)
    if cfg.format != "csv":
        raise ConfigError(f"compare writes csv only, got format = {cfg.format}")
    methods = [m.strip() for m in cfg.methods.split(",") if m.strip()]
    if len(methods) < 2:
        raise ConfigError("compare needs at least two methods")
    data, spec = _load(cfg, methods)
    cert, _ = _certificate(cfg, spec, data)
    settings = [
        _unsupported_as_config_error(_compare_settings, m, cfg, spec, data) for m in methods
    ]
    aborts = []
    lines = [header for _, header in settings] + ["method," + CSV_HEADER]
    for method, (overrides, _) in zip(methods, settings):
        fi_star = 0.0 if method in ("sp", "spsmax") else cfg.fi_star
        records, err = _trace(method, cfg, spec, data, cert, fi_star=fi_star, **overrides)
        if err is not None:
            aborts.append(f"warning: {method} aborted: {err}")
        lines += [f"{method},{row}" for row in trace_to_csv(records).splitlines()[1:]]
    _emit("\n".join(lines) + "\n", cfg.out)
    for line in aborts:  # as in cmd_run, after the trace
        print(line, file=sys.stderr)
    return 3 if aborts else 0


def cmd_verify(args) -> int:
    _check_seed(args.seed)
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
    except (ConfigError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
