"""Reference optimizers the Polyak-family methods are compared against:
plain SGD with a step schedule, SAG, SVRG, and Adam.

The GLM structure ∇f_i(w) = φ′_i(x_iᵀw)·x_i + σw is exploited throughout:
SAG stores one φ′ scalar per sample instead of an n×d gradient table (the
σw term is regenerated analytically from the current iterate), and SVRG's
variance-reduced direction collapses to a φ′ difference on x_i plus
σ(w − w_ref).

SGD is the Polyak kernel's data step with coefficient 1, O(nnz_i) on a
sparse row. ``run_baseline`` runs every baseline through the Polyak
drivers' epoch loop and record builder, so traces for one seed are directly
comparable. SVRG counts every snapshot's full gradient as one extra data
pass. A step whose sampled loss or φ′ is not finite raises
``NumericError``, as a Polyak step does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .losses import (
    LossSpec,
    OptimumCertificate,
    _scalar_phi,
    full_grad,
    loss_grad_i,
    smoothness_constants,
)
from .polyak import _check_finite, _check_index, _check_run, _epoch_loop, _Kernel, _make_record
from .traces import TraceRecord

BASELINES = ("sgd", "sag", "svrg", "adam")

SGD_SCHEDULES = ("paper_literal", "inverse", "constant")


class FlatDataError(ValueError):
    """A step size taken from L_max = 0 (every row zero and σ = 0)."""


def check_l_max(l_max: float, advice: str = "set gamma, and for sgd use sgd_schedule = constant") -> float:
    """``l_max``, or a FlatDataError ending in ``advice`` where no step size can come from it."""
    if not l_max > 0.0:
        raise FlatDataError(f"L_max = {l_max!r} (every row is zero and sigma = 0) gives no step size; {advice}")
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
    """w − γ_t ∇f_i(w) with γ_t from sgd_stepsize, as one call of the
    Polyak kernel's data step; a non-finite f_i(w) or φ′ raises
    NumericError."""
    _check_index(i, data.n)
    kernel = _Kernel(spec, data, np.array(w, dtype=np.float64))
    kernel.sgd(i, sgd_stepsize(schedule, t, l_max, gamma))
    return kernel.fold()


@dataclass
class SagTable:
    """Stored per-sample gradients in scalar form.

    ``dvals[i]`` is the φ′ value of the last visit to sample i (0.0 before
    the first visit), so the stored gradient is dvals[i]·x_i; ``grad_sum``
    maintains Σ_i dvals[i]·x_i incrementally. The σw term is excluded from
    the table and added from the current iterate at step time.
    """

    dvals: np.ndarray
    grad_sum: np.ndarray
    initialized: np.ndarray

    @classmethod
    def zeros(cls, n: int, dim: int) -> "SagTable":
        return cls(np.zeros(n), np.zeros(dim), np.zeros(n, dtype=bool))

    def check_sum(self, data: Dataset, tol: float = 1e-9) -> float:
        """Relative drift of grad_sum against a fresh Σ dvals[i]·x_i;
        raises above ``tol``."""
        fresh = data.X.T @ self.dvals
        scale = max(float(np.linalg.norm(fresh)), 1.0)
        err = float(np.linalg.norm(self.grad_sum - fresh)) / scale
        if err > tol:
            raise ArithmeticError(f"SAG table drifted: relative error {err:.3e}")
        return err


def sag_step(
    w: np.ndarray, table: SagTable, spec: LossSpec, data: Dataset, i: int, gamma: float
) -> np.ndarray:
    """Refresh sample i's stored gradient, then move along the table mean
    plus the analytic regularizer: w − γ(grad_sum/n + σw). Mutates the table;
    a non-finite φ_i or φ′_i raises NumericError first."""
    idx, x = data.rows[i]
    phi, dval = _scalar_phi(spec, data, float(x @ w[idx]), i)
    _check_finite(i, phi, dval)
    table.grad_sum[idx] += (dval - table.dvals[i]) * x
    table.dvals[i] = dval
    table.initialized[i] = True
    direction = table.grad_sum / data.n
    if spec.sigma != 0.0:
        direction = direction + spec.sigma * w
    return w - gamma * direction


@dataclass
class SvrgSnapshot:
    """Reference point with its full gradient and the inner-step count."""

    w_ref: np.ndarray
    mu_ref: np.ndarray
    inner_count: int = 0


def make_snapshot(spec: LossSpec, data: Dataset, w: np.ndarray) -> SvrgSnapshot:
    return SvrgSnapshot(np.array(w, dtype=np.float64), full_grad(spec, data, w))


def svrg_step(
    w: np.ndarray,
    snap: SvrgSnapshot,
    spec: LossSpec,
    data: Dataset,
    i: int,
    gamma: float,
    inner_len: int,
):
    """One variance-reduced step; returns (w', snap') where snap' is a fresh
    snapshot at w' (one full gradient) once inner_len inner steps are done.

    The direction ∇f_i(w) − ∇f_i(w_ref) + mu_ref reduces to a φ′ difference
    on x_i plus σ(w − w_ref) under the GLM structure. A non-finite φ_i or
    φ′_i at w raises NumericError.
    """
    if inner_len < 1:
        raise ValueError("inner_len must be >= 1")
    idx, x = data.rows[i]
    phi, dval = _scalar_phi(spec, data, float(x @ w[idx]), i)
    _check_finite(i, phi, dval)
    _, dval_ref = _scalar_phi(spec, data, float(x @ snap.w_ref[idx]), i)
    direction = snap.mu_ref.copy()
    direction[idx] += (dval - dval_ref) * x
    if spec.sigma != 0.0:
        direction = direction + spec.sigma * (w - snap.w_ref)
    w_new = w - gamma * direction
    snap.inner_count += 1
    if snap.inner_count >= inner_len:
        return w_new, make_snapshot(spec, data, w_new)
    return w_new, snap


@dataclass
class AdamMoments:
    """Exponential first/second gradient moments."""

    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, dim: int) -> "AdamMoments":
        return cls(np.zeros(dim), np.zeros(dim))


def adam_step(
    w: np.ndarray,
    moments: AdamMoments,
    grad: np.ndarray,
    t: int,
    alpha: float = 0.001,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """Bias-corrected Adam update at (1-based) step t; returns (w', moments')."""
    if t < 1:
        raise ValueError("t must be >= 1")
    m = beta1 * moments.m + (1.0 - beta1) * grad
    v = beta2 * moments.v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return w - alpha * m_hat / (np.sqrt(v_hat) + eps), AdamMoments(m, v)


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
    for sgd; svrg's inner length defaults to 2n. A step size taken from
    L_max = 0 is a FlatDataError. ``passes`` counts sampled steps as 1/n
    each plus one full pass per svrg snapshot (including the initial one).
    Surrogate-specific trace fields stay empty. A numeric abort raises
    NumericError with the completed records attached.
    """
    meth = _check_run(method, BASELINES, data, epochs)
    n, dim = data.n, data.dim
    _, l_max = smoothness_constants(spec, data)
    if meth == "sgd" and sgd_schedule != "constant":
        check_l_max(l_max)
    if gamma is None and meth != "adam":
        gamma = 1.0 / (2.0 * check_l_max(l_max))
    if inner_len is None:
        inner_len = 2 * n

    w = np.zeros(dim)
    kernel = _Kernel(spec, data, w) if meth == "sgd" else None
    table = SagTable.zeros(n, dim) if meth == "sag" else None
    snap = make_snapshot(spec, data, w) if meth == "svrg" else None
    moments = AdamMoments.zeros(dim) if meth == "adam" else None

    def step(i, t):
        nonlocal w, snap, moments
        if kernel is not None:
            kernel.sgd(i, sgd_stepsize(sgd_schedule, t + 1, l_max, gamma))
        elif table is not None:
            w = sag_step(w, table, spec, data, i, gamma)
        elif snap is not None:
            w, snap = svrg_step(w, snap, spec, data, i, gamma, inner_len)
        else:
            fi, g = loss_grad_i(spec, data, w, i)
            _check_finite(i, fi)
            w, moments = adam_step(w, moments, g, t + 1, alpha=alpha)

    def end_epoch(epoch, t):
        # svrg takes a snapshot at the start and after every inner_len steps
        full_passes = 1 + t // inner_len if meth == "svrg" else 0
        current = w if kernel is None else kernel.fold()
        return _make_record(meth, spec, data, current, certificate, epoch, t / n + full_passes)

    return _epoch_loop(seed, n, epochs, step, end_epoch)
