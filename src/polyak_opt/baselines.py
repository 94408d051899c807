"""Reference optimizers the Polyak-family methods are compared against:
plain SGD with a step schedule, SAG, SVRG, and Adam.

SGD is the Polyak kernel's data step with coefficient 1, O(nnz_i) on a
sparse row; ``sgd_step`` is one such step. SAG, SVRG and Adam are steps
of ``run_baseline`` alone, their state local arrays of the run. SAG and
SVRG use the GLM structure ∇f_i(w) = φ′_i(x_iᵀw)·x_i + σw: SAG stores one
φ′ scalar per sample instead of an n×d gradient table, with the σw term
taken from the current iterate, and SVRG's variance-reduced direction
collapses to a φ′ difference on x_i plus σ(w − w_ref).

``run_baseline`` runs every baseline through the Polyak drivers' epoch
loop and record builder, so traces for one seed are directly comparable.
SVRG counts every snapshot's full gradient as one extra data pass. A step
whose sampled loss or φ′ is not finite raises ``NumericError``, as a
Polyak step does.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset, InputError
from .losses import (
    LossSpec,
    OptimumCertificate,
    _phi_of,
    full_grad,
    loss_grad_i,
    smoothness_constants,
)
from .polyak import HyperParams, NumericError, _check_run, _draw_list, _epoch_loop, _Kernel, _make_record, _one_step
from .traces import TraceRecord

BASELINES = ("sgd", "sag", "svrg", "adam")

SGD_SCHEDULES = ("paper_literal", "inverse", "constant")


def _check_finite(i: int, fi: float, dval: float = 0.0) -> None:
    """NumericError unless the loss and φ′ values sampled at i are finite."""
    if not (math.isfinite(fi) and math.isfinite(dval)):
        raise NumericError(f"non-finite loss/gradient at sample {i}", sample_index=i)


class FlatDataError(InputError):
    """A step size taken from L_max = 0 (σ = 0 and every row zero or with a
    square norm that underflows), from L_max = inf (a row's square norm
    overflows) or from an L_max so small that 1/L_max overflows."""


def check_l_max(l_max: float, advice: str = "set gamma, and for sgd use sgd_schedule = constant") -> float:
    """``l_max``, or a FlatDataError ending in ``advice`` where no step size can come from it."""
    if not 0.0 < l_max < math.inf or math.isinf(1.0 / l_max):
        why = ("every row is zero or has a square norm that underflows, and sigma = 0" if l_max == 0.0 else
               "a row's square norm overflows" if l_max == math.inf else "its reciprocal overflows")
        raise FlatDataError(f"L_max = {l_max!r} ({why}) gives no step size; {advice}")
    return l_max


def sgd_stepsize(schedule: str, t: int, l_max: float, gamma: float) -> float:
    """Step size at (1-based) step t.

    "paper_literal" is γ_t = L_max/t exactly as printed in the source
    experiments, which grows with the smoothness constant; "inverse" is the
    dimensionally conventional γ_t = 1/(L_max·t) and is the default for
    comparisons. Both are kept rather than silently picking one.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if schedule == "paper_literal":
        return l_max / t
    if schedule == "inverse":
        return 1.0 / (l_max * t)
    if schedule == "constant":
        return gamma
    raise ValueError(f"unknown sgd schedule {schedule!r}")


def sgd_step(
    spec: LossSpec,
    data: Dataset,
    w: np.ndarray,
    i: int,
    t: int,
    schedule: str = "inverse",
    l_max: float = 1.0,
    gamma: float = 0.1,
) -> np.ndarray:
    """w − γ_t ∇f_i(w) with γ_t from sgd_stepsize, as one draw of the
    Polyak kernel; a non-finite f_i(w) or φ′ raises NumericError. As in
    ``run_baseline``, a schedule other than "constant" needs an L_max that
    ``check_l_max`` accepts, and a γ_t that is not finite and > 0 is a
    ValueError."""
    if schedule != "constant":
        check_l_max(l_max)
    hyper = HyperParams(gamma=sgd_stepsize(schedule, t, l_max, gamma))
    return _one_step("sgd", spec, data, w, i, hyper).state_after


def run_baseline(
    method: str,
    spec: LossSpec,
    data: Dataset,
    epochs: int,
    seed: int,
    certificate: OptimumCertificate | None = None,
    *,
    gamma: float | None = None,
    sgd_schedule: str = "inverse",
    alpha: float = 0.001,
    inner_len: int | None = None,
) -> list[TraceRecord]:
    """Run a baseline for whole epochs from w⁰ = 0 and return its trace.

    γ defaults to 1/(2 L_max) for sag/svrg and is the constant-schedule step
    for sgd; svrg's inner length defaults to 2n. ``gamma`` (where given) and
    adam's ``alpha`` must be finite and > 0, and ``inner_len`` >= 1. A step
    size taken from an L_max that ``check_l_max`` rejects is a
    FlatDataError. ``passes`` counts sampled steps as 1/n each plus one
    full pass per svrg snapshot (including the initial one).
    Surrogate-specific trace fields stay empty. A numeric abort raises
    NumericError with the completed records attached.
    """
    meth = _check_run(method, BASELINES, data, epochs)
    if gamma is not None and not (gamma > 0.0 and math.isfinite(gamma)):
        raise ValueError("gamma must be finite and > 0")
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError("alpha must be finite and > 0")
    if inner_len is not None and inner_len < 1:
        raise ValueError("inner_len must be >= 1")
    if sgd_schedule not in SGD_SCHEDULES:
        raise ValueError(f"unknown sgd schedule {sgd_schedule!r}")
    n, dim = data.n, data.dim
    _, l_max = smoothness_constants(spec, data)
    if meth == "sgd" and sgd_schedule != "constant":
        check_l_max(l_max)
    if gamma is None and meth != "adam":
        gamma = 1.0 / (2.0 * check_l_max(l_max))
    if inner_len is None:
        inner_len = 2 * n

    w = np.zeros(dim)
    rows, sigma, phi = data.rows, spec.sigma, _phi_of(spec, data)
    kernel = None if meth != "sgd" else _Kernel(
        "sgd", spec, data, w, HyperParams(gamma=gamma), schedule=(sgd_schedule, l_max))
    # sag: φ′ at each sample's last visit (0 before it) and Σ_i dvals[i]·x_i
    dvals, grad_sum = np.zeros(n), np.zeros(dim)
    # svrg: the snapshot and its full gradient (w is rebound, never written)
    w_ref, mu_ref = w, full_grad(spec, data, w) if meth == "svrg" else None
    # adam: the exponential first and second gradient moments
    m, v = np.zeros(dim), np.zeros(dim)

    def run(draws, t):
        nonlocal w, w_ref, mu_ref, m, v, grad_sum
        for t, i in enumerate(_draw_list(draws), t + 1):  # t: steps taken, this one included
            if meth == "adam":  # bias-corrected, β1 = 0.9, β2 = 0.999, ε = 1e-8
                fi, g = loss_grad_i(spec, data, w, i)
                _check_finite(i, fi)
                m = 0.9 * m + (1.0 - 0.9) * g
                v = 0.999 * v + (1.0 - 0.999) * g * g
                m_hat = m / (1.0 - 0.9**t)
                v_hat = v / (1.0 - 0.999**t)
                w = w - alpha * m_hat / (np.sqrt(v_hat) + 1e-8)
                continue
            idx, x = rows[i]
            full = x.size == dim  # a full row's indices are 0 .. d-1: no gather or scatter
            fi, dval = phi(float(x.dot(w if full else w[idx])), i)
            _check_finite(i, fi, dval)
            if meth == "sag":  # refresh sample i's entry, move along the table mean
                if full:
                    grad_sum += (dval - dvals[i]) * x
                else:
                    grad_sum[idx] += (dval - dvals[i]) * x
                dvals[i] = dval
                direction = grad_sum / n
                if sigma != 0.0:
                    direction = direction + sigma * w
            else:  # ∇f_i(w) − ∇f_i(w_ref) + mu_ref
                _, dval_ref = phi(float(x.dot(w_ref if full else w_ref[idx])), i)
                direction = mu_ref.copy()
                if full:
                    direction += (dval - dval_ref) * x
                else:
                    direction[idx] += (dval - dval_ref) * x
                if sigma != 0.0:
                    direction = direction + sigma * (w - w_ref)
            w = w - gamma * direction
            if meth == "svrg" and t % inner_len == 0:
                w_ref, mu_ref = w, full_grad(spec, data, w)

    def end_epoch(epoch, t):
        # svrg takes a snapshot at the start and after every inner_len steps
        full_passes = 1 + t // inner_len if meth == "svrg" else 0
        current = w if kernel is None else kernel.fold()
        return _make_record(meth, spec, data, current, certificate, epoch, t / n + full_passes)

    return _epoch_loop(seed, n, epochs, run if kernel is None else kernel.run, end_epoch)
