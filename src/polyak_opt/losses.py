"""GLM loss families, their gradients and smoothness constants, plus an
independent optimum oracle.

Every per-sample loss has the form f_i(w) = phi_i(x_i . w) + (sigma/2)||w||^2:

* ``logistic``:  phi_i(t) = log(1 + exp(-y_i t)), evaluated in the stable
  log1p-exp form so |t| in the hundreds neither overflows nor loses the tail.
* ``squared``:   phi_i(t) = (t - y_i)^2 / 2.
* ``monomial``:  phi_i(t) = a_i |t - b_i|^(2r). The absolute value keeps the
  loss real, nonnegative and minimized at b_i for fractional r; for even
  integer powers it coincides with (t - b_i)^(2r). The derivative at the
  kink is taken to be 0.

``loss_grad_i`` is the per-sample reference: (f_i(w), grad f_i(w)) with a
dense gradient. ``batch_eval`` computes the same quantities for all samples
at once, and the tests pin the two against each other. phi is written once,
in ``_phi_of``; ``_phi_array`` is it over an array of margins, bit for bit,
so every phi and phi' value goes through libm. The Newton oracle's Hessian
weights come from the phi' values too, so no code here calls numpy's
vectorized exp or log, which round differently from libm and depend on the
CPU's SIMD dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .data import Dataset, _vector


class UnsupportedFamilyError(ValueError):
    """Operation not defined for this loss family / parameter combination."""


class EmptyDatasetError(ValueError):
    """Full-batch quantity requested over zero samples."""


_FAMILIES = ("logistic", "squared", "monomial")


@dataclass(frozen=True)
class LossSpec:
    """One member of the GLM loss family plus L2 regularization strength.

    ``power_r``, ``offsets`` (b_i) and ``scales`` (a_i) apply to the monomial
    family only; offsets default to the dataset labels and scales to 1.
    """

    family: str
    sigma: float = 0.0
    power_r: float = 1.0
    offsets: np.ndarray | None = None
    scales: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not (self.sigma >= 0.0 and np.isfinite(self.sigma)):
            raise ValueError("sigma must be finite and >= 0")
        if not math.isfinite(self.sigma * self.sigma):  # where batch_eval's sigma**2 overflows
            raise ValueError(f"sigma = {self.sigma!r} is too large: its square overflows")
        if not (self.power_r > 0.0 and np.isfinite(self.power_r)):
            raise ValueError("power_r must be finite and > 0")
        for name in ("offsets", "scales"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=np.float64)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
        if self.scales is not None and np.any(self.scales <= 0.0):
            raise ValueError("scales must be strictly positive")


@dataclass(frozen=True)
class OptimumCertificate:
    """Solution data from the optimum oracle.

    ``mu`` is a strong-convexity floor for the mean loss at the solution,
    used by the decreasing step-size schedule: for squared, s_min^2/n +
    sigma with s_min the smallest singular value of X when X has rank d,
    and exactly sigma otherwise (so 0 at sigma = 0 records that the
    minimizer is not unique); sigma for logistic. It is never negative.
    """

    w_star: np.ndarray
    f_star: float
    fi_star: np.ndarray
    grad_norm_at_opt: float
    converged: bool
    mu: float


def _monomial_params(spec: LossSpec, data: Dataset):
    b = spec.offsets if spec.offsets is not None else data.labels
    a = spec.scales if spec.scales is not None else np.ones(data.n)
    return np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)


def _check_index(i: int, high: int) -> None:
    if not 0 <= i < high:
        raise IndexError(f"sample index {i} out of range [0, {high})")


def _reg(spec: LossSpec, w: np.ndarray) -> float:
    if spec.sigma == 0.0:
        return 0.0
    return 0.5 * spec.sigma * float(np.dot(w, w))


def loss_grad_i(spec: LossSpec, data: Dataset, w: np.ndarray, i: int):
    """(f_i(w), grad f_i(w)) with one margin evaluation and a dense gradient:
    the reference the O(nnz) step kernel in ``polyak`` is checked against.
    A ``w`` whose shape is not (dim,) is a "dimension mismatch" ValueError,
    as in ``X @ w``."""
    _check_index(i, data.n)
    w = _vector(w, data.dim)
    idx, x = data.rows[i]
    val, dval = _scalar_phi(spec, data, float(np.dot(x, w[idx])), i)
    g = np.zeros(len(w))
    g[idx] = dval * x
    if spec.sigma != 0.0:
        g += spec.sigma * w
    return val + _reg(spec, w), g


def _phi_of(spec: LossSpec, data: Dataset):
    """``phi(t, i)``: phi_i(t) and phi_i'(t) for a single sample without
    materializing arrays, bound once to one family and dataset so that a
    step loop looks nothing up per call.

    The logistic branch is log(1 + e^-yt) in its stable form and
    ``-y / (1 + e^yt)``, written with ``math`` to skip the cost of a ufunc
    call on a scalar; the second is 0 where e^yt overflows. In the monomial
    branch phi and phi' are each inf where their own power overflows, as
    numpy's power is.
    """
    labels = data.labels
    if spec.family == "logistic":
        def phi(t, i):
            y = labels.item(i)
            yt = y * t
            val = math.log1p(math.exp(-yt)) if yt > 0 else -yt + math.log1p(math.exp(yt))
            try:
                tail = 1.0 / (1.0 + math.exp(yt))
            except OverflowError:
                tail = 0.0
            return val, -y * tail
    elif spec.family == "squared":
        def phi(t, i):
            r = t - labels.item(i)
            return 0.5 * r * r, r
    else:
        scales, offsets = spec.scales, labels if spec.offsets is None else spec.offsets
        p = 2.0 * spec.power_r

        def phi(t, i):
            ai = 1.0 if scales is None else scales.item(i)
            u = t - offsets.item(i)
            absu = abs(u)
            if absu == 0.0:
                return 0.0, 0.0
            # a float power raises where numpy's returns inf, so each power
            # overflows on its own: phi' stays finite where only phi is inf
            try:
                val = ai * absu**p
            except OverflowError:
                val = math.inf
            try:
                dval = p * ai * absu ** (p - 1.0)
            except OverflowError:
                dval = math.inf
            return val, dval * (1.0 if u > 0 else -1.0)
    return phi


def _scalar_phi(spec: LossSpec, data: Dataset, t: float, i: int):
    """phi_i(t), phi_i'(t) of one sample: ``_phi_of`` for a single call."""
    return _phi_of(spec, data)(t, i)


def _phi_array(spec: LossSpec, data: Dataset, t: np.ndarray, i):
    """``_scalar_phi`` at every margin in t, bit for bit, as two arrays
    (values, derivatives): of sample i, or of sample i[k] at t[k] where i
    is an index array aligned with t.

    The logistic branch maps ``math.exp`` and ``math.log1p`` over the
    margins, so every phi goes through libm: log1p(e^-|yt|) + max(-yt, 0)
    is either branch of the scalar form with its terms swapped, and the
    derivative is ``-y * (1 / (1 + e^yt))`` in the scalar order. Where some
    e^yt overflows, and for the monomial family, it maps ``_phi_of``'s phi,
    bound once, over the margins.
    """
    if spec.family == "squared":
        r = t - data.labels[i]
        return 0.5 * r * r, r
    if spec.family == "logistic":
        y = data.labels[i]
        yt = y * t
        try:
            tail = 1.0 / (1.0 + np.fromiter(map(math.exp, yt.tolist()), np.float64, len(yt)))
        except OverflowError:
            pass
        else:
            head = np.fromiter(map(math.log1p, map(math.exp, (-np.abs(yt)).tolist())),
                               np.float64, len(yt))
            return head + np.maximum(-yt, 0.0), -y * tail
    pairs = map(_phi_of(spec, data), t.tolist(), np.broadcast_to(i, t.shape).tolist())
    return np.fromiter(chain.from_iterable(pairs), np.float64, 2 * len(t)).reshape(-1, 2).T


@dataclass(frozen=True)
class BatchEval:
    """All-samples evaluation at one w: values f_i(w), derivatives
    phi_i'(t_i) at the margins t_i, and ||grad f_i(w)||^2 (regularizer
    included)."""

    values: np.ndarray
    dvals: np.ndarray
    grad_sqnorms: np.ndarray


def batch_eval(spec: LossSpec, data: Dataset, w: np.ndarray) -> BatchEval:
    t = data.X @ w
    vals, dvals = _phi_array(spec, data, t, np.arange(data.n))
    if spec.sigma != 0.0:
        vals = vals + _reg(spec, w)
        # ||phi' x + sigma w||^2 expanded; uses the cached row square-norms
        w_sq = float(np.dot(w, w))
        gsq = dvals * dvals * data.row_sqnorms + 2.0 * spec.sigma * dvals * t + spec.sigma**2 * w_sq
    else:
        gsq = dvals * dvals * data.row_sqnorms
    return BatchEval(values=vals, dvals=dvals, grad_sqnorms=gsq)


def full_loss(spec: LossSpec, data: Dataset, w: np.ndarray) -> float:
    if data.n == 0:
        raise EmptyDatasetError("full_loss over empty dataset")
    return float(np.mean(batch_eval(spec, data, w).values))


def full_grad(spec: LossSpec, data: Dataset, w: np.ndarray) -> np.ndarray:
    if data.n == 0:
        raise EmptyDatasetError("full_grad over empty dataset")
    return _mean_grad(spec, data, w, batch_eval(spec, data, w).dvals)


def _mean_grad(spec: LossSpec, data: Dataset, w: np.ndarray, dvals: np.ndarray) -> np.ndarray:
    """The mean gradient X^T phi' / n + sigma w from the phi' values at w."""
    g = data.X.T @ dvals / data.n
    if spec.sigma != 0.0:
        g += spec.sigma * w
    return g


def smoothness_constants(spec: LossSpec, data: Dataset):
    """Per-sample L_i = c_phi ||x_i||^2 + sigma and their max.

    c_phi is y_i^2/4 for logistic (phi_i'' peaks there, at t = 0, for any
    label y_i) and 1 for squared. The monomial family is globally smooth
    only at r = 1 (c_phi = 2 a_i); any other exponent has unbounded or
    infinite curvature somewhere, so it is rejected.
    """
    if spec.family == "logistic":
        L = 0.25 * data.labels**2 * data.row_sqnorms + spec.sigma
    elif spec.family == "squared":
        L = data.row_sqnorms + spec.sigma
    else:
        if spec.power_r != 1.0:
            raise UnsupportedFamilyError(
                "monomial family is not globally smooth unless power_r == 1"
            )
        a, _ = _monomial_params(spec, data)
        L = 2.0 * a * data.row_sqnorms + spec.sigma
    return L, float(np.max(L)) if data.n else 0.0


def _cg(hess_vec, b: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Conjugate gradients for H x = b with H symmetric positive semidefinite,
    stopped at ||H x - b|| <= tol. A direction of no positive curvature ends
    the solve with the iterate so far (b itself if that is still zero)."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    for _ in range(max_iter):
        if rr <= tol * tol:
            break
        hp = hess_vec(p)
        curv = float(p @ hp)
        if curv <= 0.0:
            return x if x.any() else b
        a = rr / curv
        x += a * p
        r -= a * hp
        rr_next = float(r @ r)
        p *= rr_next / rr
        p += r
        rr = rr_next
    return x


def _logistic_newton(spec: LossSpec, data: Dataset, budget: int) -> np.ndarray:
    """Truncated Newton on the mean logistic loss from w = 0.

    Each iteration evaluates its iterate once, with ``batch_eval``: the
    phi' values there give g and the Hessian weights
    D_i = phi_i''(t_i) / n = -phi_i'(y_i + phi_i') / n, that is
    y_i^2 s(y_i t_i) s(-y_i t_i) / n with s the sigmoid, without a division,
    so a 0 label weighs 0. It solves H p = -g by CG on Hessian-vector products
    H v = X^T (D * X v) + sigma v, so the d x d Hessian is never formed. The
    step is an Armijo backtracking search on ``full_loss`` until the
    decrease the model predicts, -g.p, falls below what the rounded loss can
    resolve (1e-12 relative); from there the full step is taken while it
    lowers ||g||. Stops at ||g|| <= 1e-11, after ``budget`` iterations, or
    when no step helps.
    """
    X, XT, y, n, sigma = data.X, data.X.T, data.labels, data.n, spec.sigma
    w = np.zeros(data.dim)
    f = full_loss(spec, data, w)
    for _ in range(budget):
        dvals = batch_eval(spec, data, w).dvals
        g = _mean_grad(spec, data, w, dvals)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= 1e-11:
            break
        dw = -dvals * (y + dvals) / n
        p = _cg(
            lambda v: XT @ (dw * (X @ v)) + sigma * v,
            -g,
            tol=min(0.5, np.sqrt(gnorm)) * gnorm,
            max_iter=4 * data.dim,
        )
        slope = float(g @ p)
        if -slope <= 1e-12 * (1.0 + abs(f)):
            w_next = w + p
            if np.linalg.norm(full_grad(spec, data, w_next)) >= gnorm:
                break
            w = w_next
            continue
        step = 1.0
        while step >= 1e-10:
            w_next = w + step * p
            f_next = full_loss(spec, data, w_next)
            if f_next <= f + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break  # no step along p lowers the loss
        w, f = w_next, f_next
    return w


def optimum_oracle(
    spec: LossSpec, data: Dataset, budget: int | None = None
) -> OptimumCertificate:
    """Solve for w_star independently of the stochastic methods.

    squared: one thin SVD X = U S V^T, w = V (S U^T y / (S^2 + n sigma)),
    with singular values at or below numpy lstsq's default cutoff
    (s_max * max(n, d) * eps) counted as 0. That is the ridge solution for
    sigma > 0 and, at sigma = 0, the minimum-norm least-squares solution,
    the point that methods started at w = 0 in the row space of X reach
    when the minimizer is not unique. logistic: truncated
    Newton with conjugate-gradient inner solves on Hessian-vector products
    (the d x d Hessian is never formed) and an Armijo line search, run to
    ||grad f|| <= 1e-11 or until ``budget`` Newton iterations are spent
    (default 500 000; required when sigma = 0, where the unregularized
    optimum may lie at infinity). A ``budget`` below 1 is a ValueError. The
    certificate counts as converged at ||grad f(w_star)|| <= 1e-8;
    non-convergence is flagged on the certificate, not raised.
    """
    if data.n == 0:
        raise EmptyDatasetError("optimum oracle over empty dataset")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if spec.family == "squared":
        n, d, sigma = data.n, data.dim, spec.sigma
        u, s, vt = np.linalg.svd(data.X.toarray(), full_matrices=False)
        r = np.count_nonzero(s > s.max(initial=0.0) * max(n, d) * np.finfo(np.float64).eps)
        s = s[:r]
        w = vt[:r].T @ (s * (u[:, :r].T @ data.labels) / (s * s + n * sigma))
        tol, mu = 1e-10, float(s[-1] ** 2 / n + sigma) if 0 < r == d else sigma
    elif spec.family == "logistic":
        if spec.sigma <= 0.0 and budget is None:
            raise UnsupportedFamilyError(
                "logistic oracle needs sigma > 0 or an explicit iteration budget"
            )
        w = _logistic_newton(spec, data, 500_000 if budget is None else budget)
        tol, mu = 1e-8, spec.sigma
    else:
        raise UnsupportedFamilyError("no optimum oracle for the monomial family")
    fi_star = batch_eval(spec, data, w).values.copy()
    fi_star.setflags(write=False)
    w.setflags(write=False)
    grad_norm = float(np.linalg.norm(full_grad(spec, data, w)))
    return OptimumCertificate(
        w_star=w,
        f_star=float(np.mean(fi_star)),
        fi_star=fi_star,
        grad_norm_at_opt=grad_norm,
        converged=grad_norm <= tol,
        mu=mu,
    )
