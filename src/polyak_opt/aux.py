"""Reformulated objectives behind the Polyak-family methods, plus the
numerical oracles that certify them.

Each method is online SGD on a time-indexed surrogate h_t built from the
losses at the current anchor point w_t:

* sp      h_{i,t}(w)     = ½ (f_i(w) − f_i*)² / ‖∇f_i(w_t)‖²
* taps    h_{i,t}(w,α)   = ½ (f_i(w) − α_i)² / (‖∇f_i(w_t)‖²+1), plus an
          (n+1)-th component (n/2)(ᾱ−τ)² that couples the trackers.
* motaps  the taps components scaled by (1−λ), with the coupling component
          (1−λ)n/2 (ᾱ−τ)² + λ/2 τ² that also learns τ.

This module evaluates those objectives and their stacked gradients
(``aux_value_*`` / ``mean_grad_*``), checks the gradient-growth bounds that
drive the convergence analysis (``growth_check``: equality for sp/taps,
G = (1−λ)(2n+1) for motaps), provides least-norm projection oracles that
re-derive the step formulas (``project_hyperplane`` / ``kkt_projection`` /
``joint_projection_taps``), and runs the methods *as* explicit SGD on the
surrogate components (``run_epochs_sgd_view``) so the equivalence can be
asserted trace against trace.

``component_grad_sqnorms`` always measures gradients stacked over every
variable the method updates (w, α, τ), with zeros in untouched blocks.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .losses import LossSpec, OptimumCertificate, batch_eval, loss_grad_i
from .polyak import (
    METHODS,
    ZERO_GRAD_SQNORM,
    HyperParams,
    MotapsState,
    TapsState,
    _check_run,
    _make_record,
    _stepsizes_at,
    fi_star_array,
    sample_indices,
)
from .traces import TraceRecord


@dataclass(frozen=True)
class AuxEval:
    """Surrogate objective evaluated at one point.

    ``h_value`` is the mean of ``component_values``; ``growth_lhs`` is the
    mean of the stacked component gradient square-norms and ``growth_rhs``
    is 2G·h_value for the method's growth constant G.
    """

    h_value: float
    component_values: np.ndarray
    component_grad_sqnorms: np.ndarray
    growth_lhs: float
    growth_rhs: float


def growth_ratio(lhs: float, rhs: float) -> float:
    """lhs/rhs with the 0/0 case (exact stationarity) defined as 1."""
    if rhs == 0.0:
        return 1.0 if lhs == 0.0 else math.inf
    return lhs / rhs


# ---------------------------------------------------------------------------
# fault injection (self-test of the verification suites)

_TAU_TERM_SIGN = 1.0


@contextmanager
def inject_tau_gradient_fault():
    """Flip the sign of the λτ term in the τ-gradient of the coupling
    component. A deliberate wrong formula: the gradient finite-difference
    and SGD-equivalence suites must detect it, demonstrating that the
    verifier is actually sensitive to the formulas it claims to check."""
    global _TAU_TERM_SIGN
    _TAU_TERM_SIGN = -1.0
    try:
        yield
    finally:
        _TAU_TERM_SIGN = 1.0


def _coupling_grads(alpha_bar: float, tau: float, lam: float, n: int):
    """Per-α-coordinate and τ gradients of the motaps coupling component
    (1−λ)n/2(ᾱ−τ)² + λ/2τ². Single source of truth for every consumer.

    The α scaling deserves a note: since ᾱ = mean(α), the chain rule gives
    ∂/∂α_j = (1−λ)n(ᾱ−τ)·(1/n) = (1−λ)(ᾱ−τ) for every coordinate — the n
    from the component and the 1/n from the mean cancel. This is also the
    unique per-coordinate factor under which one SGD step with block step
    size γ/(1−λ) reproduces the method's aggregate update α_j += γ(τ−ᾱ)
    exactly, so the calculus and the step-equivalence requirement agree.
    """
    alpha_coord = (1.0 - lam) * (alpha_bar - tau)
    tau_grad = (1.0 - lam) * n * (tau - alpha_bar) + _TAU_TERM_SIGN * lam * tau
    return alpha_coord, tau_grad


# ---------------------------------------------------------------------------
# projections


def project_hyperplane(x0: np.ndarray, a: np.ndarray, b: float) -> np.ndarray:
    """Least-norm solution of aᵀx = b closest to x0:
    x⁺ = x0 + a(b − aᵀx0)/‖a‖², with x0 returned when a = 0."""
    x0 = np.asarray(x0, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    na2 = float(a @ a)
    if na2 == 0.0:
        return x0.copy()
    return x0 + a * ((b - float(a @ x0)) / na2)


def kkt_projection(x0: np.ndarray, a: np.ndarray, b: float) -> np.ndarray:
    """Same projection through the dense KKT system [[I, a], [aᵀ, 0]] —
    an independent route used to cross-check project_hyperplane."""
    x0 = np.asarray(x0, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    d = len(x0)
    kkt = np.zeros((d + 1, d + 1))
    kkt[:d, :d] = np.eye(d)
    kkt[:d, d] = a
    kkt[d, :d] = a
    rhs = np.append(x0, b)
    return np.linalg.solve(kkt, rhs)[:d]


def joint_projection_taps(w: np.ndarray, alpha_i: float, spec: LossSpec, data: Dataset, i: int):
    """Projection of (w, α_i) onto the linearized constraint
    f_i(w_t) + ⟨∇f_i(w_t), w − w_t⟩ = α: the closed form behind the taps
    data step at γ = 1."""
    fi, g = loss_grad_i(spec, data, w, i)
    c = (fi - alpha_i) / (float(g @ g) + 1.0)
    return w - c * g, alpha_i + c


# ---------------------------------------------------------------------------
# surrogate objective evaluation


def _two_point_eval(spec, data, w, w_t):
    cur = batch_eval(spec, data, w)
    anchor = cur if w is w_t else batch_eval(spec, data, w_t)
    return cur, anchor


def aux_value_sp(w, w_t, spec: LossSpec, data: Dataset, fi_stars) -> AuxEval:
    """sp surrogate at w anchored at w_t; zero anchor gradients drop their
    component (pseudoinverse convention)."""
    fi_stars = np.asarray(fi_stars, dtype=np.float64)
    if fi_stars.shape != (data.n,):
        raise ValueError(f"fi_stars must have length {data.n}")
    cur, anchor = _two_point_eval(spec, data, w, w_t)
    live = anchor.grad_sqnorms > ZERO_GRAD_SQNORM
    diff = cur.values - fi_stars
    denom = np.where(live, anchor.grad_sqnorms, 1.0)
    components = np.where(live, 0.5 * diff * diff / denom, 0.0)
    sqnorms = np.where(live, (diff / denom) ** 2 * cur.grad_sqnorms, 0.0)
    h = float(np.mean(components))
    lhs = float(np.mean(sqnorms))
    return AuxEval(h, components, sqnorms, lhs, 2.0 * h)


def aux_value_taps(w, alpha, w_t, spec: LossSpec, data: Dataset, tau: float) -> AuxEval:
    """taps surrogate over the stacked (w, α) variable, n+1 components."""
    alpha = np.asarray(alpha, dtype=np.float64)
    n = data.n
    cur, anchor = _two_point_eval(spec, data, w, w_t)
    denom = anchor.grad_sqnorms + 1.0
    diff = cur.values - alpha
    ctilde = diff / denom
    alpha_bar = float(np.mean(alpha))
    gap = alpha_bar - tau
    components = np.append(0.5 * diff * diff / denom, 0.5 * n * gap * gap)
    sqnorms = np.append(ctilde * ctilde * (cur.grad_sqnorms + 1.0), n * gap * gap)
    h = float(np.mean(components))
    lhs = float(np.mean(sqnorms))
    return AuxEval(h, components, sqnorms, lhs, 2.0 * h)


def aux_value_motaps(
    w, alpha, tau: float, w_t, spec: LossSpec, data: Dataset, lam: float
) -> AuxEval:
    """motaps surrogate over (w, α, τ); growth constant G = (1−λ)(2n+1)."""
    if not 0.0 <= lam < 1.0:
        raise ValueError("lambda must lie in [0, 1)")
    alpha = np.asarray(alpha, dtype=np.float64)
    n = data.n
    oml = 1.0 - lam
    cur, anchor = _two_point_eval(spec, data, w, w_t)
    denom = anchor.grad_sqnorms + 1.0
    diff = cur.values - alpha
    ctilde = diff / denom
    alpha_bar = float(np.mean(alpha))
    gap = alpha_bar - tau
    alpha_coord, tau_grad = _coupling_grads(alpha_bar, tau, lam, n)
    components = np.append(
        oml * 0.5 * diff * diff / denom,
        oml * 0.5 * n * gap * gap + 0.5 * lam * tau * tau,
    )
    sqnorms = np.append(
        (oml * ctilde) ** 2 * (cur.grad_sqnorms + 1.0),
        n * alpha_coord * alpha_coord + tau_grad * tau_grad,
    )
    h = float(np.mean(components))
    lhs = float(np.mean(sqnorms))
    return AuxEval(h, components, sqnorms, lhs, 2.0 * oml * (2 * n + 1) * h)


# ---------------------------------------------------------------------------
# stacked mean gradients (for finite-difference checks and the probe)


def _mean_w_block(data, dvals, coeffs, sigma, w, scale):
    """(scale/n_comp)·Σ_i coeff_i ∇f_i(w) given φ′ values, exploiting
    ∇f_i = φ′_i x_i + σw."""
    g = data.X.T @ (coeffs * dvals)
    if sigma != 0.0:
        g = g + sigma * float(np.sum(coeffs)) * w
    return scale * g


def mean_grad_sp(w, w_t, spec: LossSpec, data: Dataset, fi_stars) -> np.ndarray:
    """∇ of the mean sp surrogate at w (anchored at w_t)."""
    fi_stars = np.asarray(fi_stars, dtype=np.float64)
    cur, anchor = _two_point_eval(spec, data, w, w_t)
    live = anchor.grad_sqnorms > ZERO_GRAD_SQNORM
    denom = np.where(live, anchor.grad_sqnorms, 1.0)
    coeffs = np.where(live, (cur.values - fi_stars) / denom, 0.0)
    return _mean_w_block(data, cur.dvals, coeffs, spec.sigma, np.asarray(w, float), 1.0 / data.n)


def mean_grad_taps(w, alpha, w_t, spec: LossSpec, data: Dataset, tau: float) -> np.ndarray:
    """Stacked (w, α) gradient of the mean taps surrogate."""
    alpha = np.asarray(alpha, dtype=np.float64)
    n = data.n
    cur, anchor = _two_point_eval(spec, data, w, w_t)
    ctilde = (cur.values - alpha) / (anchor.grad_sqnorms + 1.0)
    scale = 1.0 / (n + 1)
    w_block = _mean_w_block(data, cur.dvals, ctilde, spec.sigma, np.asarray(w, float), scale)
    gap = float(np.mean(alpha)) - tau
    alpha_block = scale * (gap - ctilde)
    return np.concatenate([w_block, alpha_block])


def mean_grad_motaps(
    w, alpha, tau: float, w_t, spec: LossSpec, data: Dataset, lam: float
) -> np.ndarray:
    """Stacked (w, α, τ) gradient of the mean motaps surrogate."""
    if not 0.0 <= lam < 1.0:
        raise ValueError("lambda must lie in [0, 1)")
    alpha = np.asarray(alpha, dtype=np.float64)
    n = data.n
    oml = 1.0 - lam
    cur, anchor = _two_point_eval(spec, data, w, w_t)
    ctilde = (cur.values - alpha) / (anchor.grad_sqnorms + 1.0)
    scale = 1.0 / (n + 1)
    w_block = _mean_w_block(data, cur.dvals, oml * ctilde, spec.sigma, np.asarray(w, float), scale)
    alpha_coord, tau_grad = _coupling_grads(float(np.mean(alpha)), tau, lam, n)
    alpha_block = scale * (alpha_coord - oml * ctilde)
    return np.concatenate([w_block, alpha_block, [scale * tau_grad]])


def star_convexity_probe(h_t: float, h_star: float, grad_t, z_t, z_star) -> float:
    """Margin h(z*) − h(z_t) − ⟨∇h(z_t), z* − z_t⟩ of the star-convexity
    inequality at one pair of points. Nonnegative margins certify the
    inequality there; this is a diagnostic sampler, not a proof."""
    grad_t = np.asarray(grad_t, dtype=np.float64)
    z_t = np.asarray(z_t, dtype=np.float64)
    z_star = np.asarray(z_star, dtype=np.float64)
    return float(h_star - h_t - grad_t @ (z_star - z_t))


# ---------------------------------------------------------------------------
# growth check


def growth_check(method: str, state, spec: LossSpec, data: Dataset, hyper=None, fi_stars=None):
    """(lhs, rhs, ratio) of the gradient-growth condition at a state
    evaluated at its own anchor. For sp, ``state`` is the weight vector
    itself and fi_stars defaults to zeros; motaps reads λ from ``hyper``."""
    meth = method.lower()
    if meth in ("sp", "spsmax"):
        w = state.w if hasattr(state, "w") else state
        if fi_stars is None:
            fi_stars = np.zeros(data.n)
        ev = aux_value_sp(w, w, spec, data, fi_stars)
    elif meth == "taps":
        ev = aux_value_taps(state.w, state.alpha, state.w, spec, data, state.tau_fixed)
    elif meth == "motaps":
        lam = hyper.lam if hyper is not None else 0.1
        ev = aux_value_motaps(state.w, state.alpha, state.tau, state.w, spec, data, lam)
    else:
        raise ValueError(f"unknown method {method!r}")
    return ev.growth_lhs, ev.growth_rhs, growth_ratio(ev.growth_lhs, ev.growth_rhs)


# ---------------------------------------------------------------------------
# the methods as explicit SGD on the surrogate components


def sgd_view_sp_step(spec, data, w, i, gamma, fi_star=0.0):
    """w − γ∇h_{i,t}(w)|anchor=w: SGD on the sp surrogate component."""
    fi, g = loss_grad_i(spec, data, w, i)
    gsq = float(g @ g)
    if gsq <= ZERO_GRAD_SQNORM:
        return w.copy()
    return w - gamma * ((fi - fi_star) / gsq) * g


def sgd_view_taps_step(w, alpha, spec, data, i, gamma, tau):
    """One SGD step on taps component i over the stacked (w, α) variable.
    Index n hits the coupling component: every α_j moves along −(ᾱ−τ)."""
    n = data.n
    alpha = alpha.copy()
    if i == n:
        alpha -= gamma * (float(np.mean(alpha)) - tau)
        return w.copy(), alpha
    fi, g = loss_grad_i(spec, data, w, i)
    ctilde = (fi - alpha[i]) / (float(g @ g) + 1.0)
    alpha[i] += gamma * ctilde
    return w - gamma * ctilde * g, alpha


def sgd_view_motaps_step(w, alpha, tau, spec, data, i, gamma, gamma_tau, lam):
    """One SGD step on motaps component i over (w, α, τ).

    Block step sizes make the SGD step land exactly on the method update:
    γ/(1−λ) on the (w, α) coordinates and γ_τ/(λ+(1−λ)n) on τ. All
    gradient reads happen at the pre-step point (a simultaneous step).
    """
    n = data.n
    oml = 1.0 - lam
    s = gamma / oml
    alpha = alpha.copy()
    if i == n:
        alpha_coord, tau_grad = _coupling_grads(float(np.mean(alpha)), tau, lam, n)
        s_tau = gamma_tau / (lam + oml * n)
        alpha -= s * alpha_coord
        return w.copy(), alpha, tau - s_tau * tau_grad
    fi, g = loss_grad_i(spec, data, w, i)
    ctilde = (fi - alpha[i]) / (float(g @ g) + 1.0)
    alpha[i] += s * oml * ctilde
    return w - s * oml * ctilde * g, alpha, tau


def run_epochs_sgd_view(
    method: str,
    spec: LossSpec,
    data: Dataset,
    hyper: HyperParams,
    epochs: int,
    seed: int,
    certificate: OptimumCertificate | None = None,
    *,
    fi_star=0.0,
    tau: float | None = None,
) -> list[TraceRecord]:
    """Trace of the explicit-SGD route, mirroring run_epochs' sampling,
    initialization and recording so the two traces compare field by field."""
    meth = _check_run(method, METHODS, data, epochs, hyper)
    if hyper.beta != 0.0:
        raise ValueError("the SGD view is defined for plain (beta=0) steps")
    if meth == "spsmax" and math.isfinite(hyper.step_cap):
        raise ValueError("a finite step_cap is not an SGD step on the surrogate")
    n, dim = data.n, data.dim
    fi_stars = fi_star_array(fi_star, n)
    sp_like = meth in ("sp", "spsmax")
    w = np.zeros(dim)
    alpha = np.zeros(n)
    tau_val = float(tau or 0.0)
    rng = np.random.default_rng(seed)
    high = n if sp_like else n + 1
    records = []
    t = 0
    for epoch in range(1, epochs + 1):
        for idx in sample_indices(rng, high, high):
            i = int(idx)
            gamma_t, gamma_tau_t = _stepsizes_at(hyper, t, n)
            if sp_like:
                w = sgd_view_sp_step(spec, data, w, i, gamma_t, float(fi_stars[i]))
            elif meth == "taps":
                w, alpha = sgd_view_taps_step(w, alpha, spec, data, i, gamma_t, tau_val)
            else:
                w, alpha, tau_val = sgd_view_motaps_step(
                    w, alpha, tau_val, spec, data, i, gamma_t, gamma_tau_t, hyper.lam
                )
            t += 1
        if sp_like:
            state = None
        elif meth == "taps":
            state = TapsState(w, alpha, float(np.mean(alpha)), tau_val, t)
        else:
            state = MotapsState(w, alpha, float(np.mean(alpha)), tau_val, t)
        records.append(
            _make_record(meth, spec, data, w, certificate, epoch, t / n, state, hyper, fi_stars)
        )
    return records
