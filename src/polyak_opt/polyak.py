"""Stochastic Polyak-step methods and their epoch driver.

Three related methods share the machinery here:

* ``sp``      w ← w − γ·c·∇f_i(w) with c = (f_i(w) − f_i*)/‖∇f_i(w)‖².
              A zero gradient gives c = 0 (pseudoinverse convention);
              ``spsmax`` is the same step with c capped at ``step_cap``.
* ``taps``    keeps per-sample loss trackers α_i and a known target τ.
              Sampling index n (one past the data indices) triggers the
              aggregate update that drives mean(α) toward τ; data indices
              update (w, α_i) jointly with denominator ‖∇f_i‖² + 1.
* ``motaps``  like ``taps`` but the target τ is itself learned, damped by
              λ ∈ [0, lambda_max(n)).

Both tracker methods keep their iterate in one ``TrackerState``; taps
leaves its τ as given, bit for bit, and motaps overwrites it.

Each method is one step of online SGD on a reformulated objective (see
``aux``), which fixes several conventions used below: the tracker mean
``alpha_bar`` is maintained incrementally but must always equal mean(alpha)
up to roundoff, and the aggregate branch reads all of its inputs from the
pre-step state.

All three, and SGD as the data step with coefficient 1, are steps of one
kernel whose data steps cost O(nnz_i) on sparse data (see ``_Kernel``),
whose step loop runs compiled where ``_native`` can build and check it,
with the same bytes as the Python loop; ``run_grid`` runs one method at
many (γ, γ_τ) pairs, each cell one ``run_epochs`` that builds only its last
record. It, ``run_epochs`` and ``baselines.run_baseline`` are setup around
one epoch loop and one record builder (``_epoch_loop``, ``_make_record``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, InputError
from .losses import (  # noqa: F401 - loss_grad_i: the kernel's reference; perfbench wraps it here
    LossSpec,
    OptimumCertificate,
    _check_index,
    _mean_grad,
    _phi_of,
    full_grad,
    full_loss,
    loss_grad_i,
)
from .traces import TraceRecord

ZERO_GRAD_SQNORM = 1e-30

METHODS = ("sp", "spsmax", "taps", "motaps")

_SCHEDULES = ("constant", "motaps_decreasing")


class NumericError(ArithmeticError):
    """A step produced a non-finite loss, gradient, or tracker value.

    ``sample_index`` is the index being processed; when the error escapes
    a driver (``run_epochs``, ``run_baseline``), ``records`` holds the
    trace of the epochs completed before the abort.
    """

    def __init__(self, message: str, sample_index: int | None = None):
        super().__init__(message)
        self.sample_index = sample_index
        self.records: list[TraceRecord] = []


@dataclass
class TrackerState:
    """Iterate of taps and motaps: weights, trackers, their mean and the
    target τ, which taps holds fixed and motaps learns."""

    w: np.ndarray
    alpha: np.ndarray
    alpha_bar: float
    tau: float


@dataclass(frozen=True)
class HyperParams:
    """Step-size and variant knobs shared by the drivers.

    ``step_cap`` only affects the spsmax coefficient. ``schedule`` is
    either "constant" or "motaps_decreasing", the latter needing the
    strong-convexity constant ``mu`` (both γ and γ_τ then follow
    ``decreasing_schedule``).
    """

    gamma: float = 0.9
    gamma_tau: float = 0.1
    lam: float = 0.1
    beta: float = 0.0
    step_cap: float = math.inf
    schedule: str = "constant"
    mu: float = 0.0

    def __post_init__(self):
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise InputError("gamma must be finite and > 0")
        if not 0.0 <= self.gamma_tau <= 1.0:
            raise InputError("gamma_tau must lie in [0, 1]")
        if not 0.0 <= self.lam < 1.0:
            raise InputError("lambda must lie in [0, 1)")
        if not 0.0 <= self.beta < 1.0:
            raise InputError("beta must lie in [0, 1)")
        if not self.step_cap > 0.0:
            raise InputError("step_cap must be > 0 (inf disables the cap)")
        if self.schedule not in _SCHEDULES:
            raise InputError(f"unknown schedule {self.schedule!r}")
        if self.schedule == "motaps_decreasing" and not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise InputError("the decreasing schedule needs a finite mu > 0")


@dataclass(frozen=True)
class StepOutcome:
    """Result of a single step.

    ``state_after`` is the updated state object (for sp: the new weight
    vector); ``polyak_coeff`` is the applied coefficient, 0.0 on aggregate
    steps which have no per-sample coefficient.
    """

    state_after: object
    polyak_coeff: float


# ---------------------------------------------------------------------------
# closed-form parameter rules


def lambda_max(n: int) -> float:
    """Largest admissible dampening for n samples: (2n+1)/(2n+3)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (2 * n + 1) / (2 * n + 3)


def motaps_tau_coeff(lam: float, n: int) -> float:
    """Shrink factor (1−λ)n/(λ+(1−λ)n) applied to ᾱ in the target update."""
    if not 0.0 <= lam < 1.0:
        raise ValueError("lambda must lie in [0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    return (1.0 - lam) * n / (lam + (1.0 - lam) * n)


def choose_lambda(epsilon: float, mu: float, n: int, f_star: float) -> float:
    """Dampening that keeps the residual term below ε/2 at the target rate.

    Returns 0.99·min{μ(n+1)ε/(2 f*²), lambda_max(n)}; with f* = 0 the first
    term is unconstrained and the cap alone applies. The 0.99 keeps the
    admissibility inequalities strict.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be > 0")
    if not mu > 0.0:
        raise ValueError("mu must be > 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not f_star >= 0.0:
        raise ValueError("f_star must be >= 0")
    cap = lambda_max(n)
    if f_star == 0.0:
        return 0.99 * cap
    return 0.99 * min(mu * (n + 1) * epsilon / (2.0 * f_star**2), cap)


def decreasing_schedule(t: int, lam: float, mu: float, n: int) -> float:
    """Step size at step t: constant 1/((1−λ)(2n+1)) up to the switch point
    T_s = 2(2n+1)·ceil((1−λ)/μ), then ((t+1)²−t²)/(μ(t+1)²) ~ 2/(μt).
    μ must be finite and > 0: an infinite μ would give γ = 0 after step 0."""
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError("mu must be finite and > 0")
    if not 0.0 <= lam < 1.0:
        raise ValueError("lambda must lie in [0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    switch = 2 * (2 * n + 1) * math.ceil((1.0 - lam) / mu)
    if t <= switch:
        return 1.0 / ((1.0 - lam) * (2 * n + 1))
    tp1 = float(t + 1)
    return (tp1 * tp1 - t * t) / (mu * tp1 * tp1)


def rule_of_thumb(sigma: float) -> tuple[float, float]:
    """(γ, γ_τ) from the regularization strength: γ = 1/(1+0.25σe^σ), γ_τ = 1−γ.

    A negative or NaN σ is an InputError, and so is a σ whose 0.25σe^σ
    overflows (above about 704.6): it would give γ = 0.
    """
    if not sigma >= 0.0:
        raise InputError("sigma must be >= 0")
    try:
        denom = 1.0 + 0.25 * sigma * math.exp(sigma)
    except OverflowError:
        denom = math.inf
    if not math.isfinite(denom):
        raise InputError(
            f"sigma = {sigma!r} is too large for the rule of thumb: 0.25*sigma*e^sigma overflows"
        )
    gamma = 1.0 / denom
    return gamma, 1.0 - gamma


def motaps_stepsizes(lam: float, n: int, preset: str = "half") -> tuple[float, float]:
    """Named constant-step presets for the moving-target method.

    "half": γ = 1/(2(1−λ)(2n+1)) with γ_τ = γ(λ+(1−λ)n); "full": the
    twice-larger γ = γ_τ = 1/((1−λ)(2n+1)). Both appear in the convergence
    analysis; they are exposed side by side rather than reconciled.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError("lambda must lie in [0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    if preset == "half":
        gamma = 1.0 / (2.0 * (1.0 - lam) * (2 * n + 1))
        return gamma, gamma * (lam + (1.0 - lam) * n)
    if preset == "full":
        gamma = 1.0 / ((1.0 - lam) * (2 * n + 1))
        return gamma, gamma
    raise ValueError(f"unknown preset {preset!r}")


# ---------------------------------------------------------------------------
# the step kernel


class _Kernel:
    """The steps of one run of ``method`` (one of ``METHODS``, or "sgd":
    the data step with coefficient 1); a data step costs O(nnz_i) on sparse
    data.

    On data with a sparse row the weights are kept as w = s·v with ‖w‖²
    tracked, so the regularizer's share of a step, w ← (1 − γcσ)w, is one
    scalar update (the L2 scaling trick of Bottou's "SGD tricks" and
    Pegasos). ``fold`` writes s into v, which ``run_epochs`` does at every
    epoch end.

    Data whose rows are all dense takes the plain step, the dense
    reference's arithmetic (g = φ′x + σw, ‖g‖² summed over g,
    w ← w − γc·g), and so does β > 0, whose iterate averaging keeps a
    second vector z: z ← z − (γc/(1−β))·g, then w ← βw + (1−β)z, with g
    taken at the averaged w. Both cost O(d). On dense rows the lazy scale
    saves nothing, since a step touches every coordinate anyway, while its
    rounding differs from the reference's, and along an ill-conditioned sp
    trajectory that difference grows past what ``verify`` tolerates. Every
    step writes v, z and α in place.

    ``run`` takes a whole epoch's draws in one loop. Where ``_native``
    loads, a run of more than one draw goes through its compiled twin of
    that loop, which gives the same bytes; a single draw, as the
    single-step functions take, stays in Python, where the compiled call's
    one-time set-up would cost more than the step. A Python step's cost is
    mostly interpreter and numpy call overhead on short vectors, so the
    loop keeps the state in locals, calls the loss family's φ bound once
    per run (``losses._phi_of``) and makes few numpy calls: products are
    ``ndarray.dot`` (the same ddot as ``@`` at about half the call cost),
    and the plain step writes g, σw and γc·g into two preallocated
    vectors. On a 2-vCPU KVM guest (median of 50 in-process ``run`` calls
    of 2000 draws) a Python motaps step on a 20-nonzero row of d = 10 000
    costs about 3 µs and a plain motaps step at d = 50 about 5 µs, and a
    compiled step 0.1–0.3 µs; a busy host reads up to twice that.

    ``hyper`` gives β, the spsmax cap, λ and the step sizes, which
    ``schedule`` replaces at each step where it is not constant: it is
    (``hyper.schedule``, 0.0) by default, whose decreasing schedule sets γ
    and γ_τ from ``decreasing_schedule``, or (an sgd schedule, L_max),
    which sets γ from ``baselines.sgd_stepsize``. ``fi_stars`` is the array
    of the n sp targets, and ``state`` is the ``TrackerState`` of taps and
    motaps.
    """

    def __init__(self, method, spec, data, w, hyper, *, state=None, fi_stars=None, schedule=None):
        self.method, self.spec, self.data, self.hyper = method, spec, data, hyper
        self.state, self.fi_stars, self.native = state, fi_stars, None
        name, l_max = self.schedule = schedule or (hyper.schedule, 0.0)
        if name in ("constant", "motaps_decreasing"):
            self.stepsizes = None if name == "constant" else lambda t: _stepsizes_at(hyper, t, data.n)
        else:
            from .baselines import sgd_stepsize  # deferred: baselines builds on this module

            self.stepsizes = lambda t: (sgd_stepsize(name, t + 1, l_max, hyper.gamma), 0.0)
        self.tau_coeff = motaps_tau_coeff(hyper.lam, data.n)
        self.v, self.s = w, 1.0
        self.z = w.copy() if hyper.beta else None
        self.wsq = float(w.dot(w))
        self.lazy = not (hyper.beta or data.X.dense)
        # the lazy step's ‖x_i‖², or the plain step's g and its σw or γc·g
        self.sqnorms = data.row_sqnorms.tolist() if self.lazy else None
        self._g, self._tmp = (None, None) if self.lazy else (np.empty_like(w), np.empty_like(w))

    def fold(self) -> np.ndarray:
        """Fold s into v (s = 1), making ‖w‖² exact for the lazy step; returns w."""
        if self.s != 1.0:
            self.v *= self.s
            self.s = 1.0
        if self.lazy:
            self.wsq = float(self.v.dot(self.v))
        return self.v

    def run(self, draws, t):
        """Take a step at each sample index of ``draws`` (a list or an
        integer array), the first being step t of the run; returns the last
        step's coefficient.

        A data step is w ← w − γc∇f_i(w), with c = 1 for sgd and otherwise
        c = (f_i(w) − target)/(‖∇f_i(w)‖² + shift): f_i* and shift 0 for
        sp, 0 on a zero gradient and at most ``step_cap`` for spsmax; α_i
        and shift 1 for a tracker step, which then moves α_i and ᾱ by γc.
        The lazy step's margin is m = s·(x·v), and ‖∇f_i(w)‖² is
        φ′²‖x‖² + 2σφ′m + σ²‖w‖², the expansion ``batch_eval`` uses; a lazy
        step whose new scale would leave [1e-100, 1e100], which covers
        1 − γcσ ≤ 0, folds it into v and applies itself densely.

        Index n is the aggregate step: every α_j and ᾱ move by γ(τ − ᾱ), τ
        stays (taps) or becomes (1 − γ_τ)τ + γ_τ·κ·ᾱ (motaps, κ from
        ``motaps_tau_coeff``), all from the pre-step state, since the step
        is one simultaneous SGD step; with β > 0 w then takes the averaging
        half of momentum. A non-finite value raises NumericError, and the
        state goes back to ``self`` when the draws are done or before the
        error leaves.
        """
        if len(draws) > 1:
            from . import _native  # deferred: importing the package loads nothing

            if (lib := _native.load()) is not None and (c := _native.run(lib, self, draws, t)) is not None:
                return c
        hyper, st, stepsizes, fi_stars = self.hyper, self.state, self.stepsizes, self.fi_stars
        n, rows, sigma, beta, lazy = self.data.n, self.data.rows, self.spec.sigma, hyper.beta, self.lazy
        phi, sqnorms, g, tmp = _phi_of(self.spec, self.data), self.sqnorms, self._g, self._tmp
        sgd, learn_tau = self.method == "sgd", self.method == "motaps"
        cap = hyper.step_cap if self.method == "spsmax" else math.inf
        gamma, gamma_tau, tau_coeff = hyper.gamma, hyper.gamma_tau, self.tau_coeff
        v, s, wsq, z, c, isfinite = self.v, self.s, self.wsq, self.z, 0.0, math.isfinite
        if st is not None:
            alpha, abar, tau = st.alpha, st.alpha_bar, st.tau
        try:
            for i in _draw_list(draws):
                if stepsizes is not None:
                    gamma, gamma_tau = stepsizes(t)
                    t += 1
                if i == n:
                    delta = gamma * (tau - abar)
                    new_tau = (1.0 - gamma_tau) * tau + gamma_tau * tau_coeff * abar if learn_tau else tau
                    if not (isfinite(delta) and isfinite(new_tau)):
                        raise NumericError("non-finite aggregate update", sample_index=n)
                    alpha += delta
                    abar += delta
                    tau, c = new_tau, 0.0
                    if beta:
                        v *= beta
                        v += np.multiply(1.0 - beta, z, out=tmp)
                    continue
                idx, x = rows[i]
                if lazy:
                    vi = v[idx]
                    m = s * float(x.dot(vi))
                    fi, dval = phi(m, i)
                    xsq = sqnorms[i]
                    fi += 0.5 * sigma * wsq
                    gsq = dval * dval * xsq + 2.0 * sigma * dval * m + sigma * sigma * wsq
                    if gsq < 0.0:
                        gsq = 0.0
                else:
                    full = x.size == v.size  # a full row's indices are 0 .. d-1
                    fi, dval = phi(float(x.dot(v if full else v[idx])), i)
                    if full:
                        np.multiply(dval, x, out=g)
                    else:
                        g.fill(0.0)
                        g[idx] = dval * x
                    if sigma:
                        fi += 0.5 * sigma * float(v.dot(v))
                        g += np.multiply(sigma, v, out=tmp)
                    gsq = 0.0 if sgd else float(g.dot(g))  # an sgd step needs no ‖g‖²
                if not (isfinite(fi) and isfinite(dval)):
                    raise NumericError(f"non-finite loss/gradient at sample {i}", sample_index=i)
                if sgd:
                    c = 1.0
                elif not isfinite(gsq):
                    # a finite gradient whose square norm overflows: the coefficient
                    # would silently collapse to 0 and freeze the iterate mid-divergence
                    raise NumericError(f"gradient norm overflow at sample {i}", sample_index=i)
                elif st is not None:
                    ai = alpha.item(i)
                    c = (fi - ai) / (gsq + 1.0)
                elif gsq <= ZERO_GRAD_SQNORM:
                    c = 0.0
                else:
                    c = (fi - fi_stars.item(i)) / gsq
                    if cap < c:
                        c = cap
                if not isfinite(c):
                    raise NumericError(f"non-finite step coefficient at sample {i}", sample_index=i)
                gc = gamma * c
                if lazy:  # w ← a·w − b·x with a = 1 − γcσ and b = γcφ′
                    a = 1.0 - gc * sigma
                    b = gc * dval
                    s_new = s * a
                    if 1e-100 <= s_new <= 1e100:
                        vi -= (b / s_new) * x
                        v[idx] = vi
                        s = s_new
                        wsq = a * a * wsq - 2.0 * a * b * m + b * b * xsq
                        if wsq < 0.0:
                            wsq = 0.0
                    else:
                        v *= s
                        v *= a
                        v[idx] -= b * x
                        s = 1.0
                        wsq = float(v.dot(v))
                elif beta:
                    z -= np.multiply(gc / (1.0 - beta), g, out=tmp)
                    v *= beta
                    v += np.multiply(1.0 - beta, z, out=tmp)
                else:
                    v -= np.multiply(gc, g, out=tmp)
                if st is not None:
                    alpha[i] = ai + gc
                    abar += gc / n
        finally:
            self.s, self.wsq = s, wsq
            if st is not None:
                st.alpha_bar, st.tau = abar, tau
        return c


# ---------------------------------------------------------------------------
# single steps: one draw of the kernel from the start ``run_epochs`` takes,
# with the checks it makes (``_start``, ``_one_step``)


def check_lambda(lam: float, n: int) -> None:
    """The motaps dampening must lie in [0, lambda_max(n))."""
    cap = lambda_max(n)
    if not 0.0 <= lam < cap:
        raise InputError(f"lambda={lam} must lie in [0, lambda_max({n})={cap})")


def sp_step(
    spec: LossSpec,
    data: Dataset,
    w: np.ndarray,
    i: int,
    gamma: float = 1.0,
    fi_star: float = 0.0,
    step_cap: float = math.inf,
) -> StepOutcome:
    """One Polyak step on sample i; returns the new weight vector."""
    hyper = HyperParams(gamma=gamma, step_cap=step_cap)
    return _one_step("spsmax", spec, data, w, i, hyper, np.full(data.n, fi_star_array(fi_star, 1).item()))


def taps_step(
    state: TrackerState, spec: LossSpec, data: Dataset, sampled: int, gamma: float = 1.0
) -> StepOutcome:
    """One fixed-target step; ``sampled == n`` is the aggregate branch.
    ``state.tau`` is the fixed target, carried over unchanged."""
    return _one_step("taps", spec, data, state, sampled, HyperParams(gamma=gamma))


def motaps_step(
    state: TrackerState,
    spec: LossSpec,
    data: Dataset,
    sampled: int,
    gamma: float = 0.9,
    gamma_tau: float = 0.1,
    lam: float = 0.1,
) -> StepOutcome:
    """One moving-target step; ``sampled == n`` updates the trackers and
    ``state.tau``, the learned target."""
    hyper = HyperParams(gamma=gamma, gamma_tau=gamma_tau, lam=lam)
    return _one_step("motaps", spec, data, state, sampled, hyper)


def _start(meth: str, data: Dataset, init, tau: float | None):
    """A run's starting iterate: (w, None) for sp, spsmax and sgd, and
    (state.w, state) for taps and motaps. With ``init`` None it is w⁰ = 0,
    α⁰ = ᾱ⁰ = 0 and τ⁰ = ``tau``; otherwise float64 copies of ``init``, a
    weight vector or a ``TrackerState``, which is never mutated. A
    non-finite τ, and a w or α whose shape does not match the dataset, is
    a ValueError."""
    tau, state = _initial_tau(tau), None
    if meth not in ("taps", "motaps"):
        w = np.zeros(data.dim) if init is None else np.array(init, dtype=np.float64)
    else:
        if init is None:
            state = TrackerState(np.zeros(data.dim), np.zeros(data.n), 0.0, tau)
        else:
            _initial_tau(init.tau)
            state = dataclasses.replace(init, w=np.array(init.w, dtype=np.float64),
                                        alpha=np.array(init.alpha, dtype=np.float64))
        w = state.w
        if state.alpha.shape != (data.n,):
            raise ValueError("tracker count does not match the dataset")
    if w.shape != (data.dim,):
        raise ValueError("state dimension does not match the dataset")
    return w, state


def _one_step(meth, spec, data, init, i, hyper, fi_stars=None) -> StepOutcome:
    """Step ``i`` of ``meth`` from a copy of ``init``, once the arguments
    pass ``run_epochs``' checks and ``i`` indexes the data (or is the
    aggregate index n, for taps and motaps)."""
    _check_run(meth, (*METHODS, "sgd"), data, 1, hyper)
    _check_index(i, data.n + 1 if meth in ("taps", "motaps") else data.n)
    w, state = _start(meth, data, init, None)
    kernel = _Kernel(meth, spec, data, w, hyper, state=state, fi_stars=fi_stars)
    c = kernel.run([i], 0)
    if state is None:
        return StepOutcome(kernel.fold(), c)
    state.w = kernel.fold()
    return StepOutcome(state, c)


# ---------------------------------------------------------------------------
# epoch driver


def sample_indices(rng: np.random.Generator, high: int, count: int) -> np.ndarray:
    """One epoch of i.i.d. uniform draws from {0, …, high−1}."""
    return rng.integers(0, high, size=count)


def _draw_list(draws) -> list:
    """``run(draws, t)``'s draws as a list of ints, from a list or an array."""
    return draws if isinstance(draws, list) else draws.tolist()


def _stepsizes_at(hyper: HyperParams, t: int, n: int) -> tuple[float, float]:
    if hyper.schedule == "constant":
        return hyper.gamma, hyper.gamma_tau
    g = decreasing_schedule(t, hyper.lam, hyper.mu, n)
    return g, g


def fi_star_array(fi_star, n: int) -> np.ndarray:
    """The sp targets as a length-n array from a scalar or a per-sample
    array; a non-finite target is a ValueError."""
    if np.isscalar(fi_star):
        arr = np.full(n, float(fi_star))
    else:
        arr = np.array(fi_star, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"fi_star must be scalar or length-{n}")
    if not np.isfinite(arr).all():
        raise ValueError("fi_star must be finite")
    return arr


def _initial_tau(tau: float | None) -> float:
    """τ⁰: ``tau`` as a float, 0.0 for None; a non-finite τ is a ValueError."""
    tau = 0.0 if tau is None else float(tau)
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau!r}")
    return tau


def _check_run(method: str, names, data: Dataset, epochs: int, hyper: HyperParams | None = None) -> str:
    """The lower-cased method name, once the run's arguments are valid;
    ``names`` are the methods the calling driver runs."""
    meth = method.lower()
    if meth not in names:
        raise ValueError(f"unknown method {method!r}")
    if not epochs >= 1:
        raise ValueError("epochs must be >= 1")
    if data.n < 1:
        raise ValueError("cannot run on an empty dataset")
    if meth == "motaps":
        check_lambda(hyper.lam, data.n)
    return meth


def _epoch_loop(seed: int, high: int, epochs: int, run, end_epoch) -> list:
    """Every driver's loop: per epoch, a list of ``high`` uniform draws
    from one generator seeded with ``seed``, taken as ``run(draws, t)``
    (an integer array) with t the steps before them, then
    ``end_epoch(epoch, t)``, whose results other than None it returns (a
    NumericError leaves with them attached as ``records``)."""
    rng, records, t = np.random.default_rng(seed), [], 0
    try:
        for epoch in range(1, epochs + 1):
            run(sample_indices(rng, high, high), t)
            t += high
            record = end_epoch(epoch, t)
            if record is not None:
                records.append(record)
    except NumericError as err:
        err.records = records
        raise
    return records


def run_epochs(
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
    init_state=None,
    observer=None,
    last_only: bool = False,
) -> list[TraceRecord]:
    """Run a Polyak-family method for whole epochs and return its trace.

    Initialization is w⁰ = 0, α⁰ = ᾱ⁰ = 0 and τ⁰ = ``tau`` unless ``init_state``
    supplies a starting state (copied, never mutated). Each epoch takes n
    sampled steps for sp/spsmax and n+1 for the tracker methods, sampling
    uniformly (the aggregate branch is index n). After every epoch the
    kernel folds its scale into w, ``alpha_bar`` is recomputed exactly from
    α, a record is built, and ``observer(epoch, state_or_w)`` is invoked
    if given.

    ``fi_star`` (scalar or per-sample array) is the sp target; ``tau`` is
    the fixed taps target or the initial motaps τ; a non-finite value of
    either is a ValueError. ``init_state`` is a weight vector for sp/spsmax
    and a ``TrackerState`` for taps and motaps, whose ``tau`` then replaces
    ``tau``. ``last_only`` builds the last epoch's record alone (a grid
    cell's) and returns it alone. A numeric abort raises NumericError with
    the completed records attached.
    """
    meth = _check_run(method, METHODS, data, epochs, hyper)
    n, fi_stars = data.n, fi_star_array(fi_star, data.n)
    w, state = _start(meth, data, init_state, tau)
    kernel = _Kernel(meth, spec, data, w, hyper, state=state, fi_stars=fi_stars)

    def end_epoch(epoch, t):
        w = kernel.fold()
        if state is not None:
            state.w, state.alpha_bar = w, float(np.mean(state.alpha))
        record = None
        if epoch == epochs or not last_only:
            record = _make_record(meth, spec, data, w, certificate, epoch, t / n, state, hyper, fi_stars)
        if observer is not None:
            observer(epoch, state if state is not None else w)
        return record

    return _epoch_loop(seed, n if state is None else n + 1, epochs, kernel.run, end_epoch)


def _make_record(meth, spec, data, w, certificate, epoch, passes,
                 state=None, hyper=None, fi_stars=None) -> TraceRecord:
    """Any method's trace record at ``w``, its surrogate fields None for a
    baseline.

    A Polyak method's record opens with its surrogate, ``aux.aux_value_*``
    anchored at w, whose one loss batch evaluation at w also gives the
    full loss (the mean of its values, as ``full_loss``) and the gradient
    (from its φ′ values, as ``full_grad``). A baseline's record opens with
    ``full_loss`` and then calls ``full_grad``.
    """
    from . import aux  # deferred: aux builds on the state types above

    ev = aux._anchored(meth, spec, data, w, state, hyper, fi_stars)
    if ev is None:
        loss, grad = full_loss(spec, data, w), full_grad(spec, data, w)
    else:
        loss, grad = float(np.mean(ev.batch.values)), _mean_grad(spec, data, w, ev.batch.dvals)
    gnorm = float(np.linalg.norm(grad))
    dist = float(np.linalg.norm(w - certificate.w_star)) if certificate is not None else None
    return TraceRecord(
        epoch=epoch,
        passes=passes,
        full_loss=loss,
        grad_norm=gnorm,
        dist_to_opt=dist,
        aux_value=None if ev is None else ev.h_value,
        growth_ratio=None if ev is None else aux.growth_ratio(ev.growth_lhs, ev.growth_rhs),
        tau=None if state is None else state.tau,
        alpha_bar=None if state is None else state.alpha_bar,
    )


# ---------------------------------------------------------------------------
# grid driver: one run per (γ, γ_τ) cell


def run_grid(
    method: str,
    spec: LossSpec,
    data: Dataset,
    hyper: HyperParams,
    cells,
    epochs: int,
    seed: int,
    *,
    fi_star=0.0,
    tau: float | None = None,
) -> list[TraceRecord | None]:
    """Run ``method`` at every (γ, γ_τ) pair of ``cells``.

    Returns, per cell, the last record that ``run_epochs`` with ``hyper``
    at that γ and γ_τ (from w⁰ = 0, no certificate) returns, or None where
    that run raises NumericError: each cell is one such run, which builds
    only its last record. ``hyper.schedule`` must be constant: any other
    sets γ and γ_τ itself, so every cell would be the same run. A
    non-finite ``tau`` or ``fi_star`` is a ValueError, as in ``run_epochs``.
    """
    meth = _check_run(method, METHODS, data, epochs, hyper)
    if hyper.schedule != "constant":
        raise ValueError(f"the {hyper.schedule} schedule sets gamma and gamma_tau itself, "
                         "so every grid cell would be the same run")
    cell_hypers = [dataclasses.replace(hyper, gamma=g, gamma_tau=gt) for g, gt in cells]  # validates each cell
    fi_stars, tau = fi_star_array(fi_star, data.n), _initial_tau(tau)
    finals: list[TraceRecord | None] = []
    with np.errstate(all="ignore"):  # a cell may overflow before its run aborts
        for cell in cell_hypers:
            try:
                finals += run_epochs(meth, spec, data, cell, epochs, seed, fi_star=fi_stars, tau=tau, last_only=True)
            except NumericError:
                finals.append(None)
    return finals
