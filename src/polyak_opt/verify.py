"""Randomized property suites over the surrogate-objective oracles.

Five suites, each summarized by its worst-case violation:

* growth                the gradient-growth condition: exact equality for
                        sp/taps, the (1−λ)(2n+1) bound for motaps.
* projection            closed-form hyperplane projection against a dense
                        KKT solve, and the joint (w, α_i) projection
                        against the generic stacked-space projection.
* sgd_equivalence       single steps and whole traces of the methods
                        against explicit SGD on the surrogate components.
* invariance            h = mean(components); invariance of the sp
                        surrogate under positive per-sample loss scaling;
                        tracker-mean consistency along real runs.
* gradient_check        analytic stacked gradients against central finite
                        differences of the surrogate values.

Every suite judges its checks by one rule: a check fails unless its
deviation is at most its tolerance, so a NaN deviation fails the suite
(and shows as ``worst=nan``).

``run_all`` executes them deterministically from a seed; with
``inject_fault=True`` it deliberately corrupts one gradient formula
(``aux.inject_tau_gradient_fault``) to demonstrate the suites can fail.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import aux
from .data import Dataset
from .losses import LossSpec, loss_grad_i
from .polyak import (
    HyperParams,
    TrackerState,
    lambda_max,
    motaps_step,
    run_epochs,
    taps_step,
)

DEFAULT_SIZES = ((3, 2), (10, 4), (25, 6))


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one property suite."""

    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""


class _Tally:
    """Verdict of one suite: a check fails unless ``dev <= tol`` (so NaN
    fails); ``worst`` is the largest deviation seen, NaN once any is NaN,
    and ``detail`` names where it came from."""

    def __init__(self, name: str, tolerance: float):
        self.name, self.tolerance = name, tolerance
        self.worst, self.detail, self.failed = 0.0, "", False

    def note(self, dev, what: str, tol: float | None = None) -> None:
        if not math.isnan(self.worst) and not dev <= self.worst:
            self.worst, self.detail = dev, what
        self.failed = self.failed or not dev <= (self.tolerance if tol is None else tol)

    def report(self) -> SuiteReport:
        return SuiteReport(self.name, not self.failed, self.worst, self.tolerance, self.detail)


def _dataset(rng: np.random.Generator, n: int, d: int, labels: str) -> Dataset:
    x = rng.standard_normal((n, d))
    y = rng.choice([-1.0, 1.0], size=n) if labels == "signs" else rng.standard_normal(n)
    return Dataset(x, y)


def _random_specs(rng: np.random.Generator):
    sigmas = (0.0, float(rng.uniform(0.01, 1.0)))
    return [
        (LossSpec("logistic", sigma=s), "signs") for s in sigmas
    ] + [
        (LossSpec("squared", sigma=s), "reals") for s in sigmas
    ]


# ---------------------------------------------------------------------------


def growth_suite(rng: np.random.Generator, sizes) -> SuiteReport:
    tally = _Tally("growth", 1e-12)
    for n, d in sizes:
        for spec, kind in _random_specs(rng):
            data = _dataset(rng, n, d, kind)
            for _ in range(20):
                w = rng.standard_normal(d)
                alpha = rng.standard_normal(n)
                tau = float(rng.standard_normal())
                fi_stars = np.abs(rng.standard_normal(n)) * 0.1
                _, _, r_sp = aux.growth_check("sp", w, spec, data, fi_stars=fi_stars)
                _, _, r_taps = aux.growth_check(
                    "taps", TrackerState(w, alpha, float(np.mean(alpha)), tau), spec, data
                )
                what = f"equality at n={n} d={d} {spec.family}"
                tally.note(abs(r_sp - 1.0), what)
                tally.note(abs(r_taps - 1.0), what)
        # the motaps side is an inequality; sweep λ up to and including the cap
        data = _dataset(rng, n, d, "signs")
        spec = LossSpec("logistic", sigma=0.1)
        for lam in (0.0, 0.3, 0.7 * lambda_max(n), lambda_max(n)):
            for _ in range(85):
                alpha = rng.standard_normal(n)
                state = TrackerState(
                    rng.standard_normal(d),
                    alpha,
                    float(np.mean(alpha)),
                    float(rng.standard_normal()),
                )
                _, _, ratio = aux.growth_check("motaps", state, spec, data, HyperParams(lam=lam))
                tally.note(ratio - 1.0, f"bound at n={n} λ={lam:.3g}")
    return tally.report()


def projection_suite(rng: np.random.Generator, sizes) -> SuiteReport:
    tally = _Tally("projection", 1e-8)
    for _, d in sizes:
        for _ in range(50):
            x0 = rng.standard_normal(d)
            a = rng.standard_normal(d)
            b = float(rng.standard_normal())
            closed = aux.project_hyperplane(x0, a, b)
            kkt = aux.kkt_projection(x0, a, b)
            tally.note(float(np.max(np.abs(closed - kkt))), f"hyperplane d={d}")
            tally.note(abs(float(a @ closed) - b), f"hyperplane d={d}")
    for n, d in sizes:
        spec = LossSpec("logistic", sigma=0.2)
        data = _dataset(rng, n, d, "signs")
        for _ in range(30):
            w = rng.standard_normal(d)
            i = int(rng.integers(n))
            alpha_i = float(rng.standard_normal())
            w_plus, a_plus = aux.joint_projection_taps(w, alpha_i, spec, data, i)
            fi, g = loss_grad_i(spec, data, w, i)
            stacked = aux.project_hyperplane(
                np.append(w, alpha_i),
                np.append(g, -1.0),
                float(g @ w) - fi,  # linearized f_i(w_t) + <g, x − w_t> = α at x
            )
            what = f"joint projection n={n} d={d}"
            tally.note(float(np.max(np.abs(w_plus - stacked[:d]))), what)
            tally.note(abs(a_plus - stacked[d]), what)
    return tally.report()


def sgd_equivalence_suite(rng: np.random.Generator, sizes) -> SuiteReport:
    step_tol = 1e-12
    tally = _Tally("sgd_equivalence", 1e-10)  # the trace tolerance
    for n, d in sizes:
        spec = LossSpec("logistic", sigma=0.3)
        data = _dataset(rng, n, d, "signs")
        # single steps against the step functions, every branch
        for _ in range(20):
            w = rng.standard_normal(d)
            alpha = rng.standard_normal(n)
            tau = float(rng.standard_normal())
            gamma = float(rng.uniform(0.1, 1.0))
            gamma_tau = float(rng.uniform(0.05, 0.9))
            lam = float(rng.uniform(0.0, lambda_max(n)))
            i = int(rng.integers(n + 1))
            st = TrackerState(w.copy(), alpha.copy(), float(np.mean(alpha)), tau)
            out = taps_step(st, spec, data, i, gamma)
            vw, valpha = aux.sgd_view_taps_step(w, alpha, spec, data, i, gamma, tau)
            what = f"taps single step i={i} n={n}"
            tally.note(float(np.max(np.abs(out.state_after.w - vw))), what, step_tol)
            tally.note(float(np.max(np.abs(out.state_after.alpha - valpha))), what, step_tol)

            mst = TrackerState(w.copy(), alpha.copy(), float(np.mean(alpha)), tau)
            mout = motaps_step(mst, spec, data, i, gamma, gamma_tau, lam)
            mw, malpha, mtau = aux.sgd_view_motaps_step(
                w, alpha, tau, spec, data, i, gamma, gamma_tau, lam
            )
            what = f"motaps single step i={i} n={n}"
            tally.note(float(np.max(np.abs(mout.state_after.w - mw))), what, step_tol)
            tally.note(float(np.max(np.abs(mout.state_after.alpha - malpha))), what, step_tol)
            tally.note(abs(mout.state_after.tau - mtau), what, step_tol)
        # short whole traces, every method
        for method, hyper in (
            ("sp", HyperParams(gamma=0.7)),
            ("taps", HyperParams(gamma=0.8)),
            ("motaps", HyperParams(gamma=0.6, gamma_tau=0.2, lam=0.2)),
        ):
            ref = run_epochs(method, spec, data, hyper, epochs=3, seed=11, tau=0.05)
            view = aux.run_epochs_sgd_view(method, spec, data, hyper, epochs=3, seed=11, tau=0.05)
            for a_rec, b_rec in zip(ref, view):
                for field in ("full_loss", "grad_norm", "aux_value", "growth_ratio", "tau", "alpha_bar"):
                    va, vb = getattr(a_rec, field), getattr(b_rec, field)
                    if va is None and vb is None:
                        continue
                    tally.note(abs(va - vb), f"{method} trace field {field} n={n}")
    return tally.report()


def invariance_suite(rng: np.random.Generator, sizes) -> SuiteReport:
    value_tol = 1e-12  # the two value identities
    tally = _Tally("invariance", 1e-9)  # tracker-mean consistency along runs
    for n, d in sizes:
        data = _dataset(rng, n, d, "reals")
        # sp surrogate unchanged under f_i -> c_i f_i (realized through the
        # monomial per-sample scales with sigma = 0)
        base_scales = np.abs(rng.standard_normal(n)) + 0.5
        factors = np.abs(rng.standard_normal(n)) * 3.0 + 0.1
        spec_a = LossSpec("monomial", power_r=1.0, scales=base_scales)
        spec_b = LossSpec("monomial", power_r=1.0, scales=base_scales * factors)
        for _ in range(20):
            w = rng.standard_normal(d)
            ha = aux.aux_value_sp(w, w, spec_a, data, np.zeros(n))
            hb = aux.aux_value_sp(w, w, spec_b, data, np.zeros(n))
            scale = max(abs(ha.h_value), 1e-30)
            tally.note(abs(ha.h_value - hb.h_value) / scale, f"scaling invariance n={n}", value_tol)
        # h equals the mean of its components for every surrogate
        spec = LossSpec("logistic", sigma=0.1)
        sdata = _dataset(rng, n, d, "signs")
        for _ in range(20):
            w = rng.standard_normal(d)
            alpha = rng.standard_normal(n)
            tau = float(rng.standard_normal())
            for ev in (
                aux.aux_value_sp(w, w, spec, sdata, np.zeros(n)),
                aux.aux_value_taps(w, alpha, w, spec, sdata, tau),
                aux.aux_value_motaps(w, alpha, tau, w, spec, sdata, 0.25),
            ):
                scale = max(abs(ev.h_value), 1e-30)
                dev = abs(ev.h_value - float(np.mean(ev.component_values))) / scale
                tally.note(dev, f"component mean n={n}", value_tol)
        # the incrementally maintained tracker mean stays glued to mean(alpha)
        # across hundreds of raw steps (no epoch-end recompute here)
        tstate = TrackerState(np.zeros(d), np.zeros(n), 0.0, 0.1)
        mstate = TrackerState(np.zeros(d), np.zeros(n), 0.0, 0.1)
        for _ in range(300):
            i = int(rng.integers(n + 1))
            tstate = taps_step(tstate, spec, sdata, i, 0.8).state_after
            mstate = motaps_step(mstate, spec, sdata, i, 0.8, 0.3, 0.2).state_after
            for label, state in (("taps", tstate), ("motaps", mstate)):
                dev = abs(state.alpha_bar - float(np.mean(state.alpha)))
                tally.note(dev, f"{label} tracker mean n={n}")
    return tally.report()


def gradient_check_suite(rng: np.random.Generator, sizes) -> SuiteReport:
    tally = _Tally("gradient_check", 1e-5)
    for n, d in sizes:
        for spec, kind in ((LossSpec("logistic", sigma=0.2), "signs"), (LossSpec("squared"), "reals")):
            data = _dataset(rng, n, d, kind)
            w_t = rng.standard_normal(d)
            w = rng.standard_normal(d)
            alpha = rng.standard_normal(n)
            tau = float(rng.standard_normal())
            fi_stars = rng.standard_normal(n) * 0.1
            lam = 0.3

            cases = (
                (
                    "sp",
                    np.array(w),
                    lambda z: aux.aux_value_sp(z[:d], w_t, spec, data, fi_stars).h_value,
                    lambda z: aux.mean_grad_sp(z[:d], w_t, spec, data, fi_stars),
                ),
                (
                    "taps",
                    np.concatenate([w, alpha]),
                    lambda z: aux.aux_value_taps(z[:d], z[d:], w_t, spec, data, tau).h_value,
                    lambda z: aux.mean_grad_taps(z[:d], z[d:], w_t, spec, data, tau),
                ),
                (
                    "motaps",
                    np.concatenate([w, alpha, [tau]]),
                    lambda z: aux.aux_value_motaps(
                        z[:d], z[d:-1], float(z[-1]), w_t, spec, data, lam
                    ).h_value,
                    lambda z: aux.mean_grad_motaps(
                        z[:d], z[d:-1], float(z[-1]), w_t, spec, data, lam
                    ),
                ),
            )
            for name, z0, value, grad in cases:
                ana = grad(z0)
                num = np.empty_like(ana)
                for k in range(len(z0)):
                    h = 1e-6 * max(1.0, abs(z0[k]))
                    zp, zm = z0.copy(), z0.copy()
                    zp[k] += h
                    zm[k] -= h
                    num[k] = (value(zp) - value(zm)) / (2.0 * h)
                dev = float(np.max(np.abs(num - ana))) / max(1.0, float(np.max(np.abs(ana))))
                tally.note(dev, f"{name} gradient {spec.family} n={n}")
    return tally.report()


# ---------------------------------------------------------------------------


SUITES = (
    growth_suite,
    projection_suite,
    sgd_equivalence_suite,
    invariance_suite,
    gradient_check_suite,
)


def run_all(seed: int = 0, sizes=None, inject_fault: bool = False):
    """Run every suite; returns (reports, all_passed). Deterministic per seed."""
    sizes = tuple(sizes) if sizes else DEFAULT_SIZES
    guard = aux.inject_tau_gradient_fault() if inject_fault else nullcontext()
    reports = []
    with guard:
        for suite in SUITES:
            reports.append(suite(np.random.default_rng(seed), sizes))
    return reports, all(r.passed for r in reports)


def format_report(reports) -> str:
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        where = f"  ({r.detail})" if r.detail and not r.passed else ""
        lines.append(f"{status}  {r.name:<16} worst={r.worst:.3e}  tol={r.tolerance:.0e}{where}")
    return "\n".join(lines)
