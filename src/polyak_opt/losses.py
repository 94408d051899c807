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

Scalar ``loss_i``/``grad_i`` are the reference surface; ``batch_eval``
computes the same quantities for all samples at once and the tests pin the
two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import Dataset, dot


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

    ``mu`` is a strong-convexity floor for the mean loss at the solution
    (smallest eigenvalue of the mean data Hessian plus sigma for squared;
    sigma for logistic), used by the decreasing step-size schedule.
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


def _phi_dphi(spec: LossSpec, data: Dataset, t: np.ndarray):
    """Vectorized phi_i(t_i) and phi_i'(t_i) over an array of margins."""
    if spec.family == "logistic":
        y = data.labels
        yt = y * t
        vals = np.logaddexp(0.0, -yt)
        dvals = -y * expit(-yt)
        return vals, dvals
    if spec.family == "squared":
        r = t - data.labels
        return 0.5 * r * r, r
    a, b = _monomial_params(spec, data)
    p = 2.0 * spec.power_r
    u = t - b
    absu = np.abs(u)
    vals = a * absu**p
    with np.errstate(divide="ignore", invalid="ignore"):
        dvals = np.where(absu == 0.0, 0.0, p * a * absu ** (p - 1.0) * np.sign(u))
    return vals, dvals


def _check_index(data: Dataset, i: int):
    if not 0 <= i < data.n:
        raise IndexError(f"sample index {i} out of range for n={data.n}")


def _reg(spec: LossSpec, w: np.ndarray) -> float:
    if spec.sigma == 0.0:
        return 0.0
    return 0.5 * spec.sigma * float(np.dot(w, w))


def loss_i(spec: LossSpec, data: Dataset, w: np.ndarray, i: int) -> float:
    _check_index(data, i)
    t = dot(data.samples[i], w)
    val, _ = _scalar_phi(spec, data, t, i)
    return val + _reg(spec, w)


def grad_i(spec: LossSpec, data: Dataset, w: np.ndarray, i: int) -> np.ndarray:
    _check_index(data, i)
    t = dot(data.samples[i], w)
    _, dval = _scalar_phi(spec, data, t, i)
    g = np.zeros(len(w))
    s = data.samples[i]
    g[s.indices] = dval * s.values
    if spec.sigma != 0.0:
        g += spec.sigma * w
    return g


def loss_grad_i(spec: LossSpec, data: Dataset, w: np.ndarray, i: int):
    """(f_i(w), grad f_i(w)) with one margin evaluation; hot path for steps."""
    _check_index(data, i)
    t = dot(data.samples[i], w)
    val, dval = _scalar_phi(spec, data, t, i)
    g = np.zeros(len(w))
    s = data.samples[i]
    g[s.indices] = dval * s.values
    if spec.sigma != 0.0:
        g += spec.sigma * w
    return val + _reg(spec, w), g


def _scalar_phi(spec: LossSpec, data: Dataset, t: float, i: int):
    """phi_i(t), phi_i'(t) for a single sample without materializing arrays."""
    if spec.family == "logistic":
        y = float(data.labels[i])
        yt = y * t
        return float(np.logaddexp(0.0, -yt)), float(-y * expit(-yt))
    if spec.family == "squared":
        r = t - float(data.labels[i])
        return 0.5 * r * r, r
    a, b = _monomial_params(spec, data)
    ai, bi = float(a[i]), float(b[i])
    p = 2.0 * spec.power_r
    u = t - bi
    absu = abs(u)
    if absu == 0.0:
        return 0.0, 0.0
    return ai * absu**p, p * ai * absu ** (p - 1.0) * (1.0 if u > 0 else -1.0)


@dataclass(frozen=True)
class BatchEval:
    """All-samples evaluation at one w: margins t_i, values f_i(w),
    derivatives phi_i'(t_i), and ||grad f_i(w)||^2 (regularizer included)."""

    margins: np.ndarray
    values: np.ndarray
    dvals: np.ndarray
    grad_sqnorms: np.ndarray


def batch_eval(spec: LossSpec, data: Dataset, w: np.ndarray) -> BatchEval:
    t = data.dense @ w
    vals, dvals = _phi_dphi(spec, data, t)
    if spec.sigma != 0.0:
        vals = vals + _reg(spec, w)
        # ||phi' x + sigma w||^2 expanded; uses the cached row square-norms
        w_sq = float(np.dot(w, w))
        gsq = dvals * dvals * data.row_sqnorms + 2.0 * spec.sigma * dvals * t + spec.sigma**2 * w_sq
    else:
        gsq = dvals * dvals * data.row_sqnorms
    return BatchEval(margins=t, values=vals, dvals=dvals, grad_sqnorms=gsq)


def full_loss(spec: LossSpec, data: Dataset, w: np.ndarray) -> float:
    if data.n == 0:
        raise EmptyDatasetError("full_loss over empty dataset")
    return float(np.mean(batch_eval(spec, data, w).values))


def full_grad(spec: LossSpec, data: Dataset, w: np.ndarray) -> np.ndarray:
    if data.n == 0:
        raise EmptyDatasetError("full_grad over empty dataset")
    be = batch_eval(spec, data, w)
    g = data.dense.T @ be.dvals / data.n
    if spec.sigma != 0.0:
        g += spec.sigma * w
    return g


def smoothness_constants(spec: LossSpec, data: Dataset):
    """Per-sample L_i = c_phi ||x_i||^2 + sigma and their max.

    c_phi is 1/4 for logistic and 1 for squared. The monomial family is
    globally smooth only at r = 1 (c_phi = 2 a_i); any other exponent has
    unbounded or infinite curvature somewhere, so it is rejected.
    """
    if spec.family == "logistic":
        L = 0.25 * data.row_sqnorms + spec.sigma
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


def _mu_floor(spec: LossSpec, data: Dataset) -> float:
    """Strong-convexity floor of the mean loss (see OptimumCertificate)."""
    if spec.family == "squared":
        h = data.dense.T @ data.dense / data.n
        return float(np.linalg.eigvalsh(h)[0]) + spec.sigma
    return spec.sigma


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

    Each iteration solves H p = -g by CG on Hessian-vector products
    H v = X^T (D * X v) / n + sigma v, D_i = y_i^2 s_i (1 - s_i) with
    s_i = expit(y_i t_i), so the d x d Hessian is never formed. The step is
    an Armijo backtracking search on ``full_loss`` until the decrease the
    model predicts, -g.p, falls below what the rounded loss can resolve
    (1e-12 relative); from there the full step is taken while it lowers
    ||g||. Stops at ||g|| <= 1e-11, after ``budget`` iterations, or when
    no step helps.
    """
    X, y, n, sigma = data.dense, data.labels, data.n, spec.sigma
    w = np.zeros(data.dim)
    f, g = full_loss(spec, data, w), full_grad(spec, data, w)
    for _ in range(budget):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= 1e-11:
            break
        yt = y * (X @ w)
        dw = y * y * expit(yt) * expit(-yt) / n
        p = _cg(
            lambda v: X.T @ (dw * (X @ v)) + sigma * v,
            -g,
            tol=min(0.5, np.sqrt(gnorm)) * gnorm,
            max_iter=4 * data.dim,
        )
        slope = float(g @ p)
        if -slope <= 1e-12 * (1.0 + abs(f)):
            w_next = w + p
            g_next = full_grad(spec, data, w_next)
            if np.linalg.norm(g_next) >= gnorm:
                break
            w, g = w_next, g_next
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
        w, f, g = w_next, f_next, full_grad(spec, data, w_next)
    return w


def optimum_oracle(
    spec: LossSpec, data: Dataset, budget: int | None = None
) -> OptimumCertificate:
    """Solve for w_star independently of the stochastic methods.

    squared: normal equations (X^T X + n sigma I) w = X^T y, falling back to
    a least-squares solve when the system is singular. logistic: truncated
    Newton with conjugate-gradient inner solves on Hessian-vector products
    (the d x d Hessian is never formed) and an Armijo line search, run to
    ||grad f|| <= 1e-11 or until ``budget`` Newton iterations are spent
    (default 500 000; required when sigma = 0, where the unregularized
    optimum may lie at infinity). The certificate counts as converged at
    ||grad f(w_star)|| <= 1e-8; non-convergence is flagged on the
    certificate, not raised.
    """
    if data.n == 0:
        raise EmptyDatasetError("optimum oracle over empty dataset")
    if spec.family == "squared":
        X, y = data.dense, data.labels
        A = X.T @ X + data.n * spec.sigma * np.eye(data.dim)
        rhs = X.T @ y
        try:
            w = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            w = np.linalg.lstsq(A, rhs, rcond=None)[0]
        tol = 1e-10
    elif spec.family == "logistic":
        if spec.sigma <= 0.0 and budget is None:
            raise ValueError(
                "logistic oracle needs sigma > 0 or an explicit iteration budget"
            )
        w = _logistic_newton(spec, data, 500_000 if budget is None else budget)
        tol = 1e-8
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
        mu=_mu_floor(spec, data),
    )
