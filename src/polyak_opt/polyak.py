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

Each method is one step of online SGD on a reformulated objective (see
``aux``), which fixes several conventions used below: the tracker mean
``alpha_bar`` is maintained incrementally but must always equal mean(alpha)
up to roundoff, and the aggregate branch reads all of its inputs from the
pre-step state.

All three, and SGD as the data step with coefficient 1, are steps of one
kernel whose data steps cost O(nnz_i) on sparse data (see ``_Kernel``);
``run_grid`` runs one method at many (γ, γ_τ) pairs as a batch whose cells
are the kernel's arithmetic bit for bit (see ``_Batch``). It, ``run_epochs``
and ``baselines.run_baseline`` are setup around one epoch loop and one
record builder (``_epoch_loop``, ``_make_record``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .losses import (  # noqa: F401 - loss_grad_i: the kernel's reference; perfbench wraps it here
    LossSpec,
    OptimumCertificate,
    _cells_phi,
    _scalar_phi,
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
class TapsState:
    """Iterate of the fixed-target method: weights, trackers and their mean."""

    w: np.ndarray
    alpha: np.ndarray
    alpha_bar: float
    tau_fixed: float
    t: int = 0


@dataclass
class MotapsState:
    """Iterate of the moving-target method; ``tau`` is learned."""

    w: np.ndarray
    alpha: np.ndarray
    alpha_bar: float
    tau: float
    t: int = 0


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
            raise ValueError("gamma must be finite and > 0")
        if not 0.0 <= self.gamma_tau <= 1.0:
            raise ValueError("gamma_tau must lie in [0, 1]")
        if not 0.0 <= self.lam < 1.0:
            raise ValueError("lambda must lie in [0, 1)")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
        if not self.step_cap > 0.0:
            raise ValueError("step_cap must be > 0 (inf disables the cap)")
        if self.schedule not in _SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.schedule == "motaps_decreasing" and not self.mu > 0.0:
            raise ValueError("the decreasing schedule needs mu > 0")


@dataclass(frozen=True)
class StepOutcome:
    """Result of a single step.

    ``state_after`` is the updated state object (for sp: the new weight
    vector). ``sampled_index`` ∈ [0, n] where n encodes the aggregate
    branch; ``polyak_coeff`` is the applied coefficient, 0.0 on aggregate
    steps which have no per-sample coefficient.
    """

    state_after: object
    sampled_index: int
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
    if f_star < 0.0:
        raise ValueError("f_star must be >= 0")
    cap = lambda_max(n)
    if f_star == 0.0:
        return 0.99 * cap
    return 0.99 * min(mu * (n + 1) * epsilon / (2.0 * f_star**2), cap)


def decreasing_schedule(t: int, lam: float, mu: float, n: int) -> float:
    """Step size at step t: constant 1/((1−λ)(2n+1)) up to the switch point
    T_s = 2(2n+1)·ceil((1−λ)/μ), then ((t+1)²−t²)/(μ(t+1)²) ~ 2/(μt)."""
    if not mu > 0.0:
        raise ValueError("mu must be > 0")
    if not 0.0 <= lam < 1.0:
        raise ValueError("lambda must lie in [0, 1)")
    switch = 2 * (2 * n + 1) * math.ceil((1.0 - lam) / mu)
    if t <= switch:
        return 1.0 / ((1.0 - lam) * (2 * n + 1))
    tp1 = float(t + 1)
    return (tp1 * tp1 - t * t) / (mu * tp1 * tp1)


def rule_of_thumb(sigma: float) -> tuple[float, float]:
    """(γ, γ_τ) from the regularization strength: γ = 1/(1+0.25σe^σ), γ_τ = 1−γ.

    A σ whose 0.25σe^σ overflows (above about 704.6) is a ValueError: it
    would give γ = 0.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be >= 0")
    try:
        denom = 1.0 + 0.25 * sigma * math.exp(sigma)
    except OverflowError:
        denom = math.inf
    if not math.isfinite(denom):
        raise ValueError(
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


def _check_finite(i: int, fi: float, dval: float = 0.0) -> None:
    """NumericError unless the loss and φ′ values sampled at i are finite."""
    if not (math.isfinite(fi) and math.isfinite(dval)):
        raise NumericError(f"non-finite loss/gradient at sample {i}", sample_index=i)


class _Kernel:
    """The steps of one run; a data step costs O(nnz_i) on sparse data.

    On data with a sparse row the weights are kept as w = s·v with ‖w‖²
    tracked, so the regularizer's share of a step, w ← (1 − γcσ)w, is one
    scalar update (the L2 scaling trick of Bottou's "SGD tricks" and
    Pegasos): see ``_lazy_step``. ``fold`` writes s into v, which
    ``run_epochs`` does at every epoch end.

    Data whose rows are all dense takes ``_plain_step``, the dense
    reference's arithmetic (g = φ′x + σw, ‖g‖² summed over g,
    w ← w − γc·g), and so does β > 0, through the iterate-averaging
    ``momentum_step``; both cost O(d). On dense rows the lazy scale saves
    nothing, since a step touches every coordinate anyway, while its
    rounding differs from the reference's, and along an ill-conditioned sp
    trajectory that difference grows past what ``verify`` tolerates.

    A step's cost is mostly numpy call overhead on short vectors, so a
    step makes few calls: products are ``ndarray.dot`` (the same ddot as
    ``@`` at about half the call cost), the plain step writes g, σw and
    γc·g into two preallocated vectors, and γc, α_i and the motaps shrink
    factor are computed or read once. On a 2-vCPU KVM guest (median of 50
    runs of 2000 steps) a lazy step on a 20-nonzero row of d = 10 000
    costs about 8 µs and a plain step at d = 50 about 12 µs.

    ``sp``, ``taps``, ``motaps`` and ``sgd`` are the per-method steps, all
    with the signature (i, γ, γ_τ) -> applied coefficient; ``fi_stars`` is
    anything indexable by sample index, and ``state`` holds the trackers.
    """

    def __init__(self, spec, data, w, *, state=None, fi_stars=None,
                 step_cap=math.inf, lam=0.0, beta=0.0):
        self.spec, self.data, self.n = spec, data, data.n
        self.rows, self.sqnorms = data.rows, data.row_sqnorms.tolist()
        self.sigma, self.beta = spec.sigma, beta
        self.state, self.fi_stars, self.step_cap = state, fi_stars, step_cap
        self.tau_coeff = motaps_tau_coeff(lam, self.n) if isinstance(state, MotapsState) else None
        self.v, self.s = w, 1.0
        self.z = w.copy() if beta else None
        self.wsq = float(w.dot(w))
        self.lazy = not beta and data.X.nnz < data.n * data.dim
        self._data_step = self._lazy_step if self.lazy else self._plain_step
        if not self.lazy:  # _plain_step's g, and its σw or γc·g
            self._g, self._tmp = np.empty_like(w), np.empty_like(w)

    def fold(self) -> np.ndarray:
        """Fold s into v (s = 1), making ‖w‖² exact for the lazy step; returns w."""
        if self.s != 1.0:
            self.v *= self.s
            self.s = 1.0
        if self.lazy:
            self.wsq = float(self.v.dot(self.v))
        return self.v

    @staticmethod
    def _coefficient(i, fi, dval, gsq, target, shift, cap):
        """c = min((f_i(w) − target)/(‖∇f_i(w)‖² + shift), cap), 0 on a zero
        gradient when shift = 0, and 1 (an SGD step) when target is None."""
        if not (math.isfinite(fi) and math.isfinite(dval)):  # _check_finite, one frame less
            raise NumericError(f"non-finite loss/gradient at sample {i}", sample_index=i)
        if target is None:
            return 1.0
        if not math.isfinite(gsq):
            # a finite gradient whose square norm overflows: the coefficient
            # would silently collapse to 0 and freeze the iterate mid-divergence
            raise NumericError(f"gradient norm overflow at sample {i}", sample_index=i)
        if shift == 0.0 and gsq <= ZERO_GRAD_SQNORM:
            return 0.0
        c = min((fi - target) / (gsq + shift), cap)
        if not math.isfinite(c):
            raise NumericError(f"non-finite step coefficient at sample {i}", sample_index=i)
        return c

    def _plain_step(self, i, gamma, target, shift, cap):
        """w ← w − γc∇f_i(w) with c from ``_coefficient``; returns c."""
        idx, x = self.rows[i]
        w, g, tmp, sigma = self.v, self._g, self._tmp, self.sigma
        full = x.size == w.size  # a full row's indices are 0 .. d-1
        fi, dval = _scalar_phi(self.spec, self.data, float(x.dot(w if full else w[idx])), i)
        if full:
            np.multiply(dval, x, out=g)
        else:
            g.fill(0.0)
            g[idx] = dval * x
        if sigma:
            fi += 0.5 * sigma * float(w.dot(w))
            g += np.multiply(sigma, w, out=tmp)
        # an sgd step's coefficient needs no ‖g‖²
        gsq = 0.0 if target is None else float(g.dot(g))
        c = self._coefficient(i, fi, dval, gsq, target, shift, cap)
        if self.beta:
            self.z, self.v = momentum_step(self.z, w, lambda _: g, self.beta, gamma * c)
        else:
            w -= np.multiply(gamma * c, g, out=tmp)
        return c

    def _lazy_step(self, i, gamma, target, shift, cap):
        """``_plain_step``'s update on w = s·v (β = 0). The margin is
        t = s·(x·v) and ‖∇f_i(w)‖² = φ′²‖x‖² + 2σφ′t + σ²‖w‖², the expansion
        ``batch_eval`` uses. A step whose new scale would leave
        [1e-100, 1e100], which covers 1 − γcσ ≤ 0, folds it into v and
        applies itself densely."""
        idx, x = self.rows[i]
        v, s, sigma, wsq = self.v, self.s, self.sigma, self.wsq
        vi = v[idx]
        t = s * float(x.dot(vi))
        fi, dval = _scalar_phi(self.spec, self.data, t, i)
        xsq = self.sqnorms[i]
        fi += 0.5 * sigma * wsq
        gsq = max(dval * dval * xsq + 2.0 * sigma * dval * t + sigma * sigma * wsq, 0.0)
        c = self._coefficient(i, fi, dval, gsq, target, shift, cap)
        # w ← a·w − b·x with a = 1 − γcσ and b = γcφ′
        gc = gamma * c
        a = 1.0 - gc * sigma
        b = gc * dval
        s_new = s * a
        if 1e-100 <= s_new <= 1e100:
            vi -= (b / s_new) * x
            v[idx] = vi
            self.s = s_new
            self.wsq = max(a * a * wsq - 2.0 * a * b * t + b * b * xsq, 0.0)
        else:
            v *= s
            v *= a
            v[idx] -= b * x
            self.s = 1.0
            self.wsq = float(v.dot(v))
        return c

    def _idle(self):
        """A step that moves no sample: only the averaging half of momentum."""
        if self.beta:
            self.v = self.beta * self.v + (1.0 - self.beta) * self.z

    def sp(self, i, gamma, gamma_tau):
        return self._data_step(i, gamma, self.fi_stars[i], 0.0, self.step_cap)

    def sgd(self, i, gamma, gamma_tau=0.0):
        return self._data_step(i, gamma, None, 0.0, math.inf)

    def _tracker_step(self, i, gamma):
        st = self.state
        ai = float(st.alpha[i])
        c = self._data_step(i, gamma, ai, 1.0, math.inf)
        gc = gamma * c
        st.alpha[i] = ai + gc
        st.alpha_bar += gc / self.n
        return c

    def taps(self, i, gamma, gamma_tau):
        if i < self.n:
            return self._tracker_step(i, gamma)
        st = self.state
        delta = gamma * (st.tau_fixed - st.alpha_bar)
        if not math.isfinite(delta):
            raise NumericError("non-finite aggregate update", sample_index=i)
        st.alpha += delta
        st.alpha_bar += delta
        self._idle()
        return 0.0

    def motaps(self, i, gamma, gamma_tau):
        if i < self.n:
            return self._tracker_step(i, gamma)
        # The aggregate branch is one simultaneous SGD step on the target
        # component, so every line reads the pre-step values. Sequencing the τ
        # assignment between the α and ᾱ updates would detach alpha_bar from
        # mean(alpha) by γ·(τ_new − τ_old) at each aggregate step.
        st = self.state
        old_tau = st.tau
        old_bar = st.alpha_bar
        delta = gamma * (old_tau - old_bar)
        new_tau = (1.0 - gamma_tau) * old_tau + gamma_tau * self.tau_coeff * old_bar
        if not (math.isfinite(delta) and math.isfinite(new_tau)):
            raise NumericError("non-finite aggregate update", sample_index=i)
        st.alpha += delta
        st.alpha_bar = old_bar + delta
        st.tau = new_tau
        self._idle()
        return 0.0


# ---------------------------------------------------------------------------
# single steps: one call of the kernel on a copy of the input


def _check_index(i: int, high: int) -> None:
    if not 0 <= i < high:
        raise IndexError(f"sampled index {i} out of range [0, {high})")


def check_lambda(lam: float, n: int) -> None:
    """The motaps dampening must lie in [0, lambda_max(n))."""
    cap = lambda_max(n)
    if not 0.0 <= lam < cap:
        raise ValueError(f"lambda={lam} must lie in [0, lambda_max({n})={cap})")


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
    _check_index(i, data.n)
    kernel = _Kernel(spec, data, np.array(w, dtype=np.float64),
                     fi_stars={i: float(fi_star)}, step_cap=step_cap)
    c = kernel.sp(i, gamma, 0.0)
    return StepOutcome(kernel.fold(), i, c)


def taps_step(
    state: TapsState, spec: LossSpec, data: Dataset, sampled: int, gamma: float = 1.0
) -> StepOutcome:
    """One fixed-target step; ``sampled == n`` is the aggregate branch."""
    _check_index(sampled, data.n + 1)
    st = _copy_state(state)
    kernel = _Kernel(spec, data, st.w, state=st)
    c = kernel.taps(sampled, gamma, 0.0)
    st.w = kernel.fold()
    st.t += 1
    return StepOutcome(st, sampled, c)


def motaps_step(
    state: MotapsState,
    spec: LossSpec,
    data: Dataset,
    sampled: int,
    gamma: float = 0.9,
    gamma_tau: float = 0.1,
    lam: float = 0.1,
) -> StepOutcome:
    """One moving-target step; ``sampled == n`` updates the trackers and τ."""
    check_lambda(lam, data.n)
    _check_index(sampled, data.n + 1)
    st = _copy_state(state)
    kernel = _Kernel(spec, data, st.w, state=st, lam=lam)
    c = kernel.motaps(sampled, gamma, gamma_tau)
    st.w = kernel.fold()
    st.t += 1
    return StepOutcome(st, sampled, c)


def momentum_step(z, w, direction, beta: float, gamma: float):
    """Iterate-averaging momentum: z' = z − η·direction(w) with η = γ/(1−β),
    then w' = βw + (1−β)z'. The direction is evaluated at the averaged
    iterate w but applied to z; β = 0 reduces to the plain update."""
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must lie in [0, 1)")
    eta = gamma / (1.0 - beta)
    z_new = z - eta * np.asarray(direction(w), dtype=np.float64)
    return z_new, beta * w + (1.0 - beta) * z_new


def _copy_state(state):
    """A TapsState or MotapsState with its own float64 copies of w and α."""
    return dataclasses.replace(
        state,
        w=np.array(state.w, dtype=np.float64),
        alpha=np.array(state.alpha, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# epoch driver


def sample_indices(rng: np.random.Generator, high: int, count: int) -> np.ndarray:
    """One epoch of i.i.d. uniform draws from {0, …, high−1}."""
    return rng.integers(0, high, size=count)


def _stepsizes_at(hyper: HyperParams, t: int, n: int) -> tuple[float, float]:
    if hyper.schedule == "constant":
        return hyper.gamma, hyper.gamma_tau
    g = decreasing_schedule(t, hyper.lam, hyper.mu, n)
    return g, g


def _step_cap(meth: str, hyper: HyperParams) -> float:
    """The cap on the Polyak coefficient: ``step_cap`` for spsmax, none
    for every other method."""
    return hyper.step_cap if meth == "spsmax" else math.inf


def fi_star_array(fi_star, n: int) -> np.ndarray:
    """The sp targets as a length-n array from a scalar or a per-sample array."""
    if np.isscalar(fi_star):
        return np.full(n, float(fi_star))
    arr = np.array(fi_star, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"fi_star must be scalar or length-{n}")
    return arr


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


def _epoch_loop(seed: int, high: int, epochs: int, step, end_epoch) -> list:
    """Every driver's loop: per epoch, ``high`` uniform draws i from one
    generator seeded with ``seed``, each run as ``step(i, t)`` with t the
    steps before it, then ``end_epoch(epoch, t)``, whose results it returns
    (a NumericError leaves with them attached as ``records``)."""
    rng, records, t = np.random.default_rng(seed), [], 0
    try:
        for epoch in range(1, epochs + 1):
            for i in sample_indices(rng, high, high).tolist():
                step(i, t)
                t += 1
            records.append(end_epoch(epoch, t))
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
) -> list[TraceRecord]:
    """Run a Polyak-family method for whole epochs and return its trace.

    Initialization is w⁰ = 0 and α⁰ = ᾱ⁰ = τ⁰ = 0 unless ``init_state``
    supplies a starting state (copied, never mutated). Each epoch takes n
    sampled steps for sp/spsmax and n+1 for the tracker methods, sampling
    uniformly (the aggregate branch is index n). After every epoch the
    kernel folds its scale into w, ``alpha_bar`` is recomputed exactly from
    α, a record is built, and ``observer(epoch, state_or_w)`` is invoked
    if given.

    ``fi_star`` (scalar or per-sample array) is the sp target; ``tau`` is
    the fixed taps target or the initial motaps τ. A numeric abort raises
    NumericError with the completed records attached.
    """
    meth = _check_run(method, METHODS, data, epochs, hyper)
    n, dim = data.n, data.dim
    fi_stars = fi_star_array(fi_star, n)

    sp_like = meth in ("sp", "spsmax")
    if sp_like:
        state = None
        w = np.zeros(dim) if init_state is None else np.array(init_state, dtype=np.float64)
    elif init_state is None:
        kind = TapsState if meth == "taps" else MotapsState
        state = kind(np.zeros(dim), np.zeros(n), 0.0, float(tau or 0.0))
    else:
        state = _copy_state(init_state)
    if state is not None:
        w = state.w
        if state.alpha.shape != (n,):
            raise ValueError("tracker count does not match the dataset")
    if w.shape != (dim,):
        raise ValueError("state dimension does not match the dataset")

    kernel = _Kernel(spec, data, w, state=state, fi_stars=fi_stars.tolist(),
                     step_cap=_step_cap(meth, hyper), lam=hyper.lam, beta=hyper.beta)

    def end_epoch(epoch, t):
        w = kernel.fold()
        if state is not None:
            state.w, state.t, state.alpha_bar = w, t, float(np.mean(state.alpha))
        record = _make_record(meth, spec, data, w, certificate, epoch, t / n, state, hyper, fi_stars)
        if observer is not None:
            observer(epoch, state if state is not None else w)
        return record

    kstep = getattr(kernel, "sp" if sp_like else meth)
    if hyper.schedule == "constant":
        gamma, gamma_tau = hyper.gamma, hyper.gamma_tau
        step = lambda i, t: kstep(i, gamma, gamma_tau)
    else:
        step = lambda i, t: kstep(i, *_stepsizes_at(hyper, t, n))
    return _epoch_loop(seed, n if sp_like else n + 1, epochs, step, end_epoch)


def _make_record(meth, spec, data, w, certificate, epoch, passes,
                 state=None, hyper=None, fi_stars=None) -> TraceRecord:
    """Any method's trace record at ``w``, its surrogate fields None for a
    baseline. ``full_loss`` comes first, so it opens the record."""
    from . import aux  # deferred: aux builds on the state types above

    loss = full_loss(spec, data, w)
    gnorm = float(np.linalg.norm(full_grad(spec, data, w)))
    dist = float(np.linalg.norm(w - certificate.w_star)) if certificate is not None else None
    ev = tau_val = bar_val = None
    if meth in ("sp", "spsmax"):
        ev = aux.aux_value_sp(w, w, spec, data, fi_stars)
    elif meth == "taps":
        ev = aux.aux_value_taps(w, state.alpha, w, spec, data, state.tau_fixed)
        tau_val, bar_val = state.tau_fixed, state.alpha_bar
    elif meth == "motaps":
        ev = aux.aux_value_motaps(w, state.alpha, state.tau, w, spec, data, hyper.lam)
        tau_val, bar_val = state.tau, state.alpha_bar
    return TraceRecord(
        epoch=epoch,
        passes=passes,
        full_loss=loss,
        grad_norm=gnorm,
        dist_to_opt=dist,
        aux_value=None if ev is None else ev.h_value,
        growth_ratio=None if ev is None else aux.growth_ratio(ev.growth_lhs, ev.growth_rhs),
        tau=tau_val,
        alpha_bar=bar_val,
    )


# ---------------------------------------------------------------------------
# grid driver: every (γ, γ_τ) cell of one run as a row of one state batch


class _Batch:
    """``_Kernel``'s steps for C runs that differ only in (γ, γ_τ).

    Every cell draws the same sampled indices, so one index is one
    vectorised update of all cells. Row r of ``V`` (C×d; ``Z`` too for
    β > 0) and of ``A`` (C×n), and entry r of ``abar``, ``tau``, the lazy
    scale ``s``, ``wsq`` and the step sizes, are the state of cell
    ``cells[r]``. Each cell's arithmetic is the kernel's bit for bit:

    * margins and square norms are one ddot per row (``np.vecdot``), on a
      C-contiguous gather for a sparse row, since a strided ddot rounds
      differently;
    * φ is ``losses._cells_phi``: ``math.exp`` and ``math.log1p`` mapped
      over the cells' margins, since numpy's vectorised exp rounds
      differently, and ``_scalar_phi`` per cell at a step where some e^yt
      overflows (and for the monomial family);
    * everything else is elementwise, in the kernel's order of operations.

    A step ends by keeping only the cells where the kernel would not have
    raised NumericError. Its cost is numpy call overhead on length-C
    vectors and C×d arrays, so a data step computes γc once for the
    iterate and the tracker, skips the cap's ``np.minimum`` when there is
    no cap, and tests for a cell to drop with ``np.count_nonzero`` (a
    reduction such as ``any`` costs four times as much). On a 2-vCPU KVM
    guest (median of 50 runs of 1000 steps) a motaps step at C = 49,
    d = 20 costs about 57 µs, about 21 µs of it in ``_cells_phi``.
    """

    _ROWS = ("cells", "V", "Z", "A", "abar", "tau", "s", "wsq", "gamma", "gamma_tau")

    def __init__(self, spec, data, hyper, cells, *, trackers, tau, fi_stars, step_cap):
        self.spec, self.data, self.n = spec, data, data.n
        self.rows, self.sqnorms = data.rows, data.row_sqnorms.tolist()
        self.sigma, self.beta, self.fi_stars = spec.sigma, hyper.beta, fi_stars
        self.step_cap, self.tau_coeff = step_cap, motaps_tau_coeff(hyper.lam, self.n)
        size = len(cells)
        self.cells = np.arange(size)
        self.gamma = np.array([g for g, _ in cells], dtype=np.float64)
        self.gamma_tau = np.array([gt for _, gt in cells], dtype=np.float64)
        self.V = np.zeros((size, data.dim))
        self.Z = self.V.copy() if self.beta else None
        self.s, self.wsq = np.ones(size), np.zeros(size)
        self.A = np.zeros((size, self.n)) if trackers else None
        self.abar = np.zeros(size) if trackers else None
        self.tau = np.full(size, tau) if trackers else None
        lazy = not self.beta and data.X.nnz < data.n * data.dim
        self._data_step = self._lazy_step if lazy else self._plain_step

    def _keep(self, ok):
        if np.count_nonzero(ok) < ok.size:
            for name in self._ROWS:
                rows = getattr(self, name)
                if rows is not None:
                    setattr(self, name, rows[ok])

    def end_epoch(self):
        """The kernel's fold and the exact tracker mean, for every cell."""
        self.V *= self.s[:, None]
        self.s = np.ones_like(self.s)
        self.wsq = np.vecdot(self.V, self.V)
        if self.A is not None:
            self.abar = np.mean(self.A, axis=1)

    @staticmethod
    def _coefficient(fi, dval, gsq, target, shift, cap):
        c = (fi - target) / (gsq + shift)
        if cap < math.inf:
            np.minimum(c, cap, out=c)
        if shift == 0.0:
            c[gsq <= ZERO_GRAD_SQNORM] = 0.0
        ok = np.isfinite(fi) & np.isfinite(dval) & np.isfinite(gsq) & np.isfinite(c)
        return c, ok

    def _plain_step(self, i, gamma, target, shift, cap):
        idx, x = self.rows[i]
        V, sigma = self.V, self.sigma
        full = x.size == V.shape[1]
        t = np.vecdot(V if full else np.ascontiguousarray(V[:, idx]), x)
        fi, dval = _cells_phi(self.spec, self.data, t, i)
        if full:
            G = dval[:, None] * x
        else:
            G = np.zeros_like(V)
            G[:, idx] = dval[:, None] * x
        if sigma:
            fi += 0.5 * sigma * np.vecdot(V, V)
            G += sigma * V
        c, ok = self._coefficient(fi, dval, np.vecdot(G, G), target, shift, cap)
        gc = gamma * c
        if self.beta:  # momentum_step with direction G and step γc
            self.Z = self.Z - (gc / (1.0 - self.beta))[:, None] * G
            self.V = self.beta * V + (1.0 - self.beta) * self.Z
        else:
            G *= gc[:, None]
            V -= G
        return gc, ok

    def _lazy_step(self, i, gamma, target, shift, cap):
        idx, x = self.rows[i]
        V, s, sigma, wsq = self.V, self.s, self.sigma, self.wsq
        Vi = np.ascontiguousarray(V[:, idx])
        t = s * np.vecdot(Vi, x)
        fi, dval = _cells_phi(self.spec, self.data, t, i)
        xsq = self.sqnorms[i]
        fi += 0.5 * sigma * wsq
        gsq = np.maximum(dval * dval * xsq + 2.0 * sigma * dval * t + sigma * sigma * wsq, 0.0)
        c, ok = self._coefficient(fi, dval, gsq, target, shift, cap)
        gc = gamma * c
        a = 1.0 - gc * sigma
        b = gc * dval
        s_new = s * a
        V[:, idx] = Vi - (b / s_new)[:, None] * x
        self.s = s_new
        self.wsq = np.maximum(a * a * wsq - 2.0 * a * b * t + b * b * xsq, 0.0)
        for r in np.flatnonzero(~((1e-100 <= s_new) & (s_new <= 1e100))).tolist():
            v = V[r]
            v[idx] = Vi[r]
            v *= s[r]
            v *= a[r]
            v[idx] -= b[r] * x
            self.s[r] = 1.0
            self.wsq[r] = float(v @ v)
        return gc, ok

    def _idle(self):
        if self.beta:
            self.V = self.beta * self.V + (1.0 - self.beta) * self.Z

    def sp(self, i, gamma, gamma_tau):
        self._keep(self._data_step(i, gamma, self.fi_stars[i], 0.0, self.step_cap)[1])

    def _tracker_step(self, i, gamma):
        alpha = self.A[:, i]  # a view: the target, then updated in place
        gc, ok = self._data_step(i, gamma, alpha, 1.0, math.inf)
        alpha += gc
        self.abar += gc / self.n
        self._keep(ok)

    def taps(self, i, gamma, gamma_tau):
        if i < self.n:
            return self._tracker_step(i, gamma)
        delta = gamma * (self.tau - self.abar)
        self.A += delta[:, None]
        self.abar += delta
        self._idle()
        self._keep(np.isfinite(delta))

    def motaps(self, i, gamma, gamma_tau):
        if i < self.n:
            return self._tracker_step(i, gamma)
        old_tau, old_bar = self.tau, self.abar
        delta = gamma * (old_tau - old_bar)
        new_tau = (1.0 - gamma_tau) * old_tau + gamma_tau * self.tau_coeff * old_bar
        self.A += delta[:, None]
        self.abar = old_bar + delta
        self.tau = new_tau
        self._idle()
        self._keep(np.isfinite(delta) & np.isfinite(new_tau))


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
    """Run ``method`` at every (γ, γ_τ) pair of ``cells`` as one batch.

    Returns, per cell, the last record that ``run_epochs`` with ``hyper``
    at that γ and γ_τ (from w⁰ = 0, no certificate) would return, bit for
    bit, or None where that run would raise NumericError. Only the last
    epoch is evaluated. The batch holds C×(n+d) floats for C cells (twice
    the d part with β > 0).
    """
    meth = _check_run(method, METHODS, data, epochs, hyper)
    for g, gt in cells:
        dataclasses.replace(hyper, gamma=g, gamma_tau=gt)  # validates the cell
    n = data.n
    fi_stars = fi_star_array(fi_star, n)
    sp_like = meth in ("sp", "spsmax")
    batch = _Batch(spec, data, hyper, cells, trackers=not sp_like, tau=float(tau or 0.0),
                   fi_stars=fi_stars.tolist(), step_cap=_step_cap(meth, hyper))
    step = getattr(batch, "sp" if sp_like else meth)
    # a constant step is the rows of the cells still in the batch
    gammas = ((lambda t: (batch.gamma, batch.gamma_tau)) if hyper.schedule == "constant"
              else lambda t: _stepsizes_at(hyper, t, n))
    high = n if sp_like else n + 1
    with np.errstate(all="ignore"):  # a cell may overflow before its step drops it
        _epoch_loop(seed, high, epochs, lambda i, t: step(i, *gammas(t)),
                    lambda epoch, t: batch.end_epoch())

    t = epochs * high
    finals: list[TraceRecord | None] = [None] * len(cells)
    for r, cell in enumerate(batch.cells.tolist()):
        w, state = batch.V[r].copy(), None
        if not sp_like:
            kind = TapsState if meth == "taps" else MotapsState
            state = kind(w, batch.A[r].copy(), float(batch.abar[r]), float(batch.tau[r]), t)
        finals[cell] = _make_record(meth, spec, data, w, None, epochs, t / n, state, hyper, fi_stars)
    return finals
