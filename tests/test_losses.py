"""GLM loss values, gradients, smoothness constants, and the optimum oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from polyak_opt import losses
from polyak_opt.data import CSRMatrix, Dataset, synth_dataset
from polyak_opt.losses import (
    EmptyDatasetError,
    LossSpec,
    UnsupportedFamilyError,
    _phi_array,
    _phi_of,
    _scalar_phi,
    batch_eval,
    full_grad,
    full_loss,
    loss_grad_i,
    optimum_oracle,
    smoothness_constants,
)
from polyak_opt.polyak import HyperParams, NumericError, run_epochs, sp_step


def own_logistic_grad(data, w, sigma):
    """Mean logistic gradient from the rows themselves, not ``full_grad``."""
    X = np.zeros((data.n, data.dim))
    for r, s in enumerate(data.rows):
        X[r, s.indices] = s.values
    yt = data.labels * (X @ w)
    dphi = -data.labels * 0.5 * (1.0 - np.tanh(0.5 * yt))  # -y / (1 + e^{yt})
    return X.T @ dphi / data.n + sigma * w


def fd_grad(spec, data, w, i, h=1e-6):
    g = np.zeros(len(w))
    for j in range(len(w)):
        step = h * max(1.0, abs(w[j]))
        wp, wm = w.copy(), w.copy()
        wp[j] += step
        wm[j] -= step
        g[j] = (loss_grad_i(spec, data, wp, i)[0] - loss_grad_i(spec, data, wm, i)[0]) / (2 * step)
    return g


class TestLossValues:
    def test_logistic_at_origin_is_ln2(self):
        data = Dataset([[1.0, -2.0], [0.5, 0.0]], [1.0, -1.0])
        spec = LossSpec(family="logistic")
        for i in range(data.n):
            assert_allclose(loss_grad_i(spec, data, np.zeros(2), i)[0], math.log(2), rtol=1e-15)

    def test_logistic_extreme_margins_stable(self):
        data = Dataset([[1.0]], [1.0])
        spec = LossSpec(family="logistic")
        with np.errstate(over="raise"):
            lo = loss_grad_i(spec, data, np.array([-800.0]), 0)[0]
            hi = loss_grad_i(spec, data, np.array([800.0]), 0)[0]
        assert_allclose(lo, 800.0, rtol=1e-12)
        assert 0.0 <= hi < 1e-300

    def test_squared_interpolation_point(self):
        data = Dataset([[1.0]], [3.0])
        spec = LossSpec(family="squared")
        assert loss_grad_i(spec, data, np.array([3.0]), 0)[0] == 0.0

    def test_regularizer_additivity_exact(self):
        rng = np.random.default_rng(7)
        data = Dataset(rng.standard_normal((4, 3)), rng.standard_normal(4))
        w = rng.standard_normal(3)
        sigma = 0.7
        plain = LossSpec(family="squared")
        reg = LossSpec(family="squared", sigma=sigma)
        for i in range(4):
            expected = loss_grad_i(plain, data, w, i)[0] + 0.5 * sigma * float(np.dot(w, w))
            assert loss_grad_i(reg, data, w, i)[0] == expected

    def test_monomial_interpolation_zero(self):
        w_star = np.array([2.0, -1.0])
        data = Dataset([[1.0, 1.0], [3.0, 0.0]], [0.0, 0.0])
        b = data.X @ w_star
        spec = LossSpec(family="monomial", power_r=0.75, offsets=b)
        for i in range(data.n):
            assert loss_grad_i(spec, data, w_star, i)[0] == 0.0
            assert_allclose(loss_grad_i(spec, data, w_star, i)[1], 0.0)

    def test_index_out_of_range(self):
        data = Dataset([[1.0]], [1.0])
        spec = LossSpec(family="squared")
        with pytest.raises(IndexError):
            loss_grad_i(spec, data, np.zeros(1), 1)
        with pytest.raises(IndexError):
            loss_grad_i(spec, data, np.zeros(1), -1)


class TestGradients:
    def test_logistic_at_origin(self):
        data = Dataset([[1.0]], [1.0])
        spec = LossSpec(family="logistic")
        assert_allclose(loss_grad_i(spec, data, np.zeros(1), 0)[1], [-0.5], rtol=1e-15)

    def test_squared_worked_example(self):
        data = Dataset([[2.0]], [0.0])
        spec = LossSpec(family="squared")
        assert_allclose(loss_grad_i(spec, data, np.array([1.0]), 0)[1], [4.0], rtol=1e-15)

    def test_loss_grad_pair_consistent(self):
        rng = np.random.default_rng(19)
        data = Dataset(rng.standard_normal((6, 4)), rng.standard_normal(6))
        spec = LossSpec(family="logistic", sigma=0.2)
        w = rng.standard_normal(4)
        for i in range(6):
            # the pair written out: log(1 + e^-yt) and -y x / (1 + e^yt), plus σ terms
            x, y = data.X.toarray()[i], data.labels[i]
            t = float(x @ w)
            val, g = loss_grad_i(spec, data, w, i)
            assert_allclose(val, math.log1p(math.exp(-y * t)) + 0.1 * float(w @ w), rtol=1e-14)
            assert_allclose(g, -y * x / (1.0 + math.exp(y * t)) + 0.2 * w, rtol=1e-13, atol=1e-15)

    def test_finite_differences_all_families(self):
        rng = np.random.default_rng(101)
        checks = 0
        for family, power_r in [
            ("logistic", 1.0),
            ("squared", 1.0),
            ("monomial", 1.0),
            ("monomial", 1.5),
            ("monomial", 0.75),
        ]:
            for sigma in (0.0, 0.3):
                for _ in range(10):
                    n, d = 5, 3
                    rows = rng.standard_normal((n, d))
                    labels = rng.standard_normal(n)
                    data = Dataset(rows, labels)
                    spec = LossSpec(
                        family=family,
                        sigma=sigma,
                        power_r=power_r,
                        scales=rng.uniform(0.5, 2.0, n) if family == "monomial" else None,
                    )
                    w = rng.standard_normal(d)
                    if family == "monomial":
                        # keep margins away from the kink where phi is not
                        # differentiable for fractional exponents
                        while np.min(np.abs(data.X @ w - labels)) < 0.2:
                            w = rng.standard_normal(d)
                    i = int(rng.integers(n))
                    g = loss_grad_i(spec, data, w, i)[1]
                    approx = fd_grad(spec, data, w, i)
                    scale = max(1.0, float(np.linalg.norm(g)))
                    assert np.linalg.norm(g - approx) / scale < 1e-5
                    checks += 1
        assert checks == 100

    def test_monomial_kink_derivative_is_zero(self):
        data = Dataset([[1.0]], [2.0])
        spec = LossSpec(family="monomial", power_r=0.6)
        assert_allclose(loss_grad_i(spec, data, np.array([2.0]), 0)[1], [0.0])


class TestBatchEval:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(5)
        for spec in [
            LossSpec(family="logistic", sigma=0.0),
            LossSpec(family="logistic", sigma=0.4),
            LossSpec(family="squared", sigma=0.1),
            LossSpec(family="monomial", power_r=1.5),
        ]:
            data = Dataset(rng.standard_normal((8, 5)), rng.standard_normal(8))
            w = rng.standard_normal(5)
            be = batch_eval(spec, data, w)
            for i in range(8):
                val, g = loss_grad_i(spec, data, w, i)
                assert_allclose(be.values[i], val, rtol=1e-12, atol=1e-15)
                assert_allclose(
                    be.grad_sqnorms[i], float(np.dot(g, g)), rtol=1e-12, atol=1e-15
                )

    def test_extreme_margins_finite(self):
        data = Dataset([[1.0], [1.0]], [1.0, -1.0])
        spec = LossSpec(family="logistic")
        be = batch_eval(spec, data, np.array([800.0]))
        assert np.all(np.isfinite(be.values))
        assert np.all(np.isfinite(be.dvals))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # squares that overflow
    @pytest.mark.parametrize("spec", [
        LossSpec(family="logistic"),
        LossSpec(family="squared"),
        LossSpec(family="monomial", power_r=0.75),
    ], ids=["logistic", "squared", "monomial"])
    def test_equals_phi_of_bit_for_bit(self, spec):
        # X = I, so the margins are w: the edge margins (past 709.78 too) and
        # normal draws at four scales
        rng = np.random.default_rng(41)
        w = np.concatenate([EDGE_MARGINS] + [rng.standard_normal(250) * 10.0**k for k in range(-1, 3)])
        n = w.size
        labels = rng.choice([-1.0, 1.0], n) if spec.family == "logistic" else rng.standard_normal(n)
        data = Dataset(CSRMatrix(np.ones(n), np.arange(n), np.arange(n + 1), (n, n)), labels)
        be = batch_eval(spec, data, w)
        phi = _phi_of(spec, data)
        want = [phi(t, i) for i, t in enumerate((data.X @ w).tolist())]
        assert same_bits(be.values, [v for v, _ in want])
        assert same_bits(be.dvals, [dv for _, dv in want])


# math.exp overflows above log(max float) = 709.782712893384: margins on both
# sides of it, and zeros, subnormals and infinities of either sign, and NaN
EXP_EDGE = math.log(np.finfo(np.float64).max)
TINY_OR_INF = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, math.inf, -math.inf]
NEAR_EDGE = [EXP_EDGE, math.nextafter(EXP_EDGE, math.inf), 709.78, 709.79, 750.0, 1e300]
EDGE_MARGINS = TINY_OR_INF + [math.nan] + NEAR_EDGE + [-t for t in NEAR_EDGE]
CELL_SPECS = [
    LossSpec(family="logistic"),
    LossSpec(family="squared"),
    LossSpec(family="monomial", power_r=1.0, scales=[1.0, 2.5, 0.5]),
    LossSpec(family="monomial", power_r=0.75, scales=[1.0, 2.5, 0.5]),
]


def same_bits(got, want):
    """Equal float arrays bit for bit, any NaN matching any NaN."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


class TestPhiArray:
    """``_phi_array`` is ``_scalar_phi`` per margin, bit for bit, of one
    sample or of an index array aligned with the margins."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # squares that overflow
    @given(
        spec=st.sampled_from(CELL_SPECS),
        i=st.integers(0, 2),
        edges=st.lists(st.one_of(st.sampled_from(EDGE_MARGINS), st.floats()), max_size=8),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-3.0, 3.0),
    )
    @example(spec=CELL_SPECS[0], i=0, edges=[710.0], seed=0, log_scale=0.0)  # e^yt overflows
    @example(spec=CELL_SPECS[0], i=1, edges=[-710.0], seed=0, log_scale=0.0)  # at y = -1
    @example(spec=CELL_SPECS[0], i=0, edges=TINY_OR_INF, seed=0, log_scale=0.0)  # no overflow
    def test_matches_scalar_phi(self, spec, i, edges, seed, log_scale):
        data = Dataset([[1.0], [1.0], [1.0]], [1.0, -1.0, 0.3])
        if spec.family == "logistic":
            i %= 2  # labels of -1 or +1 only
        rng = np.random.default_rng(seed)
        t = rng.permutation(np.concatenate([edges, rng.standard_normal(24) * 10.0**log_scale]))
        scalar = [_scalar_phi(spec, data, ti, i) for ti in t.tolist()]
        vals, dvals = _phi_array(spec, data, t, i)
        assert same_bits(vals, [v for v, _ in scalar])
        assert same_bits(dvals, [dv for _, dv in scalar])
        # the same margins, each of its own sample
        idx = rng.integers(0, 2 if spec.family == "logistic" else 3, t.size)
        scalar = [_scalar_phi(spec, data, ti, k) for ti, k in zip(t.tolist(), idx.tolist())]
        vals, dvals = _phi_array(spec, data, t, idx)
        assert same_bits(vals, [v for v, _ in scalar])
        assert same_bits(dvals, [dv for _, dv in scalar])

    def test_monomial_slope_finite_where_value_overflows(self):
        # at t - b = +-1e300 and r = 0.75, |u|^1.5 overflows but 1.5 |u|^0.5
        # is 1.5e150; a step there still aborts on the infinite value
        data = Dataset([[1.0]], [0.0])
        spec = LossSpec(family="monomial", power_r=0.75)
        vals, dvals = _phi_array(spec, data, np.array([1e300, -1e300]), 0)
        assert vals.tolist() == [math.inf, math.inf]
        assert_allclose(dvals, [1.5e150, -1.5e150], rtol=1e-15)
        assert_allclose(batch_eval(spec, data, np.array([1e300])).dvals, [1.5e150], rtol=1e-15)
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="non-finite loss/gradient"):
            sp_step(spec, data, np.array([1e300]), 0)  # ||w||^2 overflows as well


class TestFullBatch:
    def test_single_sample_equals_scalar(self):
        rng = np.random.default_rng(2)
        data = Dataset(rng.standard_normal((1, 4)), [1.0])
        spec = LossSpec(family="logistic", sigma=0.3)
        w = rng.standard_normal(4)
        assert_allclose(full_loss(spec, data, w), loss_grad_i(spec, data, w, 0)[0], rtol=1e-13)
        assert_allclose(full_grad(spec, data, w), loss_grad_i(spec, data, w, 0)[1], rtol=1e-13)

    def test_opposed_gradients_cancel(self):
        # both samples sit at margin 1; the residuals are +1 and -1 so the
        # per-sample gradients are exactly opposite
        data = Dataset([[1.0], [1.0]], [0.0, 2.0])
        spec = LossSpec(family="squared")
        assert_allclose(full_grad(spec, data, np.array([1.0])), [0.0], atol=1e-16)

    def test_mean_of_per_sample(self):
        rng = np.random.default_rng(3)
        data = Dataset(rng.standard_normal((7, 3)), rng.standard_normal(7))
        spec = LossSpec(family="squared", sigma=0.05)
        w = rng.standard_normal(3)
        vals = [loss_grad_i(spec, data, w, i)[0] for i in range(7)]
        grads = [loss_grad_i(spec, data, w, i)[1] for i in range(7)]
        assert_allclose(full_loss(spec, data, w), np.mean(vals), rtol=1e-12)
        assert_allclose(full_grad(spec, data, w), np.mean(grads, axis=0), atol=1e-14)

    def test_empty_dataset_rejected(self):
        empty = Dataset(np.zeros((0, 0)), [])
        spec = LossSpec(family="squared")
        with pytest.raises(EmptyDatasetError):
            full_loss(spec, empty, np.zeros(0))
        with pytest.raises(EmptyDatasetError):
            full_grad(spec, empty, np.zeros(0))
        with pytest.raises(EmptyDatasetError):
            optimum_oracle(spec, empty)


class TestSmoothness:
    def test_logistic_quarter(self):
        data = Dataset([[2.0]], [1.0])
        L, l_max = smoothness_constants(LossSpec(family="logistic"), data)
        assert_allclose(L, [1.0])
        assert l_max == 1.0
        # phi''(0) = y^2 / 4 for any label
        L, _ = smoothness_constants(LossSpec(family="logistic"), Dataset([[2.0]], [2.0]))
        assert_allclose(L, [4.0])

    def test_squared_with_regularizer(self):
        data = Dataset([[1.0]], [0.0])
        L, l_max = smoothness_constants(LossSpec(family="squared", sigma=2.0), data)
        assert_allclose(L, [3.0])
        assert l_max == 3.0

    def test_monomial_requires_r_one(self):
        data = Dataset([[1.0]], [0.0])
        L, _ = smoothness_constants(
            LossSpec(family="monomial", power_r=1.0, scales=[3.0]), data
        )
        assert_allclose(L, [6.0])
        L, _ = smoothness_constants(
            LossSpec(family="monomial", sigma=0.5, power_r=1.0, scales=[3.0]), data
        )
        assert_allclose(L, [6.5])  # 2 a ||x||^2 + sigma
        with pytest.raises(UnsupportedFamilyError):
            smoothness_constants(LossSpec(family="monomial", power_r=1.5), data)

    def test_descent_lemma_witness(self):
        rng = np.random.default_rng(23)
        rows = rng.standard_normal((10, 4))
        # the logistic curvature bound is y^2/4: +-1 labels, and a fixed
        # array with |y| > 1 and 0 that takes no draws from rng
        signs = np.where(rng.random(10) < 0.5, -1.0, 1.0)
        for spec, labels in [
            (LossSpec(family="logistic", sigma=0.1), signs),
            (LossSpec(family="squared"), rng.standard_normal(10)),
            (
                LossSpec(family="monomial", power_r=1.0, scales=rng.uniform(0.5, 2.0, 10)),
                rng.standard_normal(10),
            ),
            (LossSpec(family="logistic", sigma=0.1),
             np.array([3.0, -2.0, 0.0, 1.5, -0.5, 2.5, 0.0, -3.0, 1.0, 2.0])),
        ]:
            data = Dataset(rows, labels)
            L, _ = smoothness_constants(spec, data)
            for _ in range(1000):
                w = rng.standard_normal(4)
                z = rng.standard_normal(4)
                i = int(rng.integers(10))
                fw, g = loss_grad_i(spec, data, w, i)
                bound = fw + float(np.dot(g, z - w)) + 0.5 * L[i] * float(
                    np.dot(z - w, z - w)
                )
                assert loss_grad_i(spec, data, z, i)[0] <= bound + 1e-10


class TestOptimumOracle:
    def test_square_system_interpolates(self):
        rng = np.random.default_rng(31)
        rows = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        data = Dataset(rows, rng.standard_normal(4))
        cert = optimum_oracle(LossSpec(family="squared"), data)
        assert cert.converged
        assert_allclose(cert.f_star, 0.0, atol=1e-18)
        assert_allclose(cert.fi_star, np.zeros(4), atol=1e-18)
        assert cert.grad_norm_at_opt <= 1e-10

    def test_normal_equation_residual(self):
        data, _ = synth_dataset(8, 40, 7, "underparam", noise=0.4)
        sigma = 0.2
        cert = optimum_oracle(LossSpec(family="squared", sigma=sigma), data)
        X, y = data.X.toarray(), data.labels
        lhs = (X.T @ X + data.n * sigma * np.eye(7)) @ cert.w_star
        assert np.linalg.norm(lhs - X.T @ y) <= 1e-10 * max(1.0, np.linalg.norm(X.T @ y))
        assert cert.grad_norm_at_opt <= 1e-10

    def test_logistic_separable_converges(self):
        data, _ = synth_dataset(3, 40, 6, "separable")
        cert = optimum_oracle(LossSpec(family="logistic", sigma=1e-3), data)
        assert cert.converged
        assert cert.grad_norm_at_opt <= 1e-8
        assert cert.mu == 1e-3

    def test_mean_identity_and_mu(self):
        data, _ = synth_dataset(8, 30, 5, "underparam", noise=0.1)
        cert = optimum_oracle(LossSpec(family="squared", sigma=0.3), data)
        assert_allclose(cert.f_star, np.mean(cert.fi_star), rtol=1e-12)
        h = data.X.toarray().T @ data.X.toarray() / data.n
        assert_allclose(cert.mu, np.linalg.eigvalsh(h)[0] + 0.3, rtol=1e-10)

    def test_wide_interpolation_certifies_the_minimum_norm_point(self):
        # n < d, sigma = 0: the interpolants form an affine set, and sp from
        # w = 0 stays in the row space of X, so it converges to the
        # minimum-norm one; the certificate names that point and mu = 0
        data, _ = synth_dataset(0, 20, 40, "separable")
        spec = LossSpec(family="squared")
        cert = optimum_oracle(spec, data)
        assert cert.converged
        assert cert.mu == 0.0
        records = run_epochs("sp", spec, data, HyperParams(), 500, 0, cert, fi_star=cert.fi_star)
        assert records[-1].dist_to_opt < 1e-6

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    def test_tall_rank_deficient(self, sigma):
        # the last column copies the first, so rank(X) = 4 < d = 5
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 5))
        X[:, 4] = X[:, 0]
        data = Dataset(X, rng.standard_normal(30))
        cert = optimum_oracle(LossSpec(family="squared", sigma=sigma), data)
        assert cert.converged
        assert cert.mu == sigma
        if sigma == 0.0:
            assert_allclose(cert.w_star, np.linalg.lstsq(X, data.labels, rcond=None)[0],
                            rtol=0, atol=1e-12)

    def test_no_features(self):
        # d = 0: w* is empty and every f_i is the constant y_i^2 / 2
        data = Dataset(np.zeros((3, 0)), [1.0, -1.0, 2.0])
        cert = optimum_oracle(LossSpec(family="squared", sigma=0.1), data)
        assert cert.w_star.shape == (0,)
        assert cert.fi_star.tolist() == [0.5, 0.5, 2.0]
        assert cert.converged and cert.mu == 0.1

    def test_logistic_unregularized_needs_budget(self):
        data, _ = synth_dataset(3, 10, 3, "separable")
        with pytest.raises(ValueError):
            optimum_oracle(LossSpec(family="logistic"), data)

    def test_budget_exhaustion_flagged_not_raised(self):
        data, _ = synth_dataset(3, 30, 5, "separable")
        cert = optimum_oracle(LossSpec(family="logistic"), data, budget=3)
        assert not cert.converged
        assert cert.grad_norm_at_opt > 1e-8

    def test_budget_below_one_rejected(self):
        # a budget of 0 would certify w = 0, whatever the optimum
        data, _ = synth_dataset(3, 10, 3, "separable")
        for family, budget in (("logistic", 0), ("logistic", -3), ("squared", 0)):
            with pytest.raises(ValueError, match="budget must be >= 1"):
                optimum_oracle(LossSpec(family=family, sigma=0.01), data, budget=budget)
        for family in ("logistic", "squared"):  # the least budget is accepted
            optimum_oracle(LossSpec(family=family, sigma=0.01), data, budget=1)

    def test_monomial_unsupported(self):
        data = Dataset([[1.0]], [0.0])
        with pytest.raises(UnsupportedFamilyError):
            optimum_oracle(LossSpec(family="monomial"), data)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_logistic_certificate_is_tight(self, seed):
        data, _ = synth_dataset(seed, 1000, 50, "separable")
        cert = optimum_oracle(LossSpec(family="logistic", sigma=1e-3), data)
        assert cert.converged
        assert cert.grad_norm_at_opt <= 1e-12
        assert np.linalg.norm(own_logistic_grad(data, cert.w_star, 1e-3)) <= 1e-12

    def test_logistic_sparse_wide_forms_no_hessian(self):
        rng = np.random.default_rng(5)
        n, d, k = 200, 5000, 10
        rows = [(np.sort(rng.choice(d, k, replace=False)), rng.standard_normal(k)) for _ in range(n)]
        X = CSRMatrix(np.concatenate([v for _, v in rows]), np.concatenate([j for j, _ in rows]),
                      np.arange(0, n * k + 1, k), (n, d))
        data = Dataset(X, rng.choice([-1.0, 1.0], n))
        tracemalloc.start()
        try:
            cert = optimum_oracle(LossSpec(family="logistic", sigma=1e-2), data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.converged
        assert np.linalg.norm(own_logistic_grad(data, cert.w_star, 1e-2)) <= 1e-8
        # a d x d Hessian would be 8 d^2 = 200 MB; an n x d copy 8 MB
        assert peak < 8 * d * d / 50

    def test_cg_stops_at_no_positive_curvature(self):
        b = np.array([1.0, 1.0])
        # no curvature at the first direction: b itself
        assert losses._cg(lambda v: 0 * v, b, tol=1e-12, max_iter=10).tolist() == [1.0, 1.0]
        # H = diag(1, 0): the first step lands on x = (2, 2), whose next
        # direction (0, 2) has no curvature, so the iterate so far
        x = losses._cg(lambda v: np.array([v[0], 0.0]), b, tol=1e-12, max_iter=10)
        assert x.tolist() == [2.0, 2.0]

    @staticmethod
    def newton_with_scaled_directions(scale):
        """The logistic certificate on 50 separable rows (d = 5, sigma =
        1e-2) with every Newton direction multiplied by ``scale`` (None:
        unscaled), and the number of ``full_loss`` calls it made."""
        data, _ = synth_dataset(1, 50, 5, "separable")
        calls, full_loss_, cg = [], losses.full_loss, losses._cg
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(losses, "full_loss", lambda *args: calls.append(1) or full_loss_(*args))
            if scale is not None:
                patch.setattr(losses, "_cg", lambda *args, **kwargs: scale * cg(*args, **kwargs))
            return optimum_oracle(LossSpec(family="logistic", sigma=1e-2), data), len(calls)

    def test_newton_backtracks_a_too_long_direction(self):
        newton, newton_calls = self.newton_with_scaled_directions(None)
        assert newton.converged and newton_calls == 7
        # 50x each Newton step overshoots, and the Armijo search halves it
        # back, close to the unscaled answer
        cert, calls = self.newton_with_scaled_directions(50.0)
        assert calls == 162
        assert_allclose(cert.w_star, newton.w_star, rtol=0, atol=1e-6)
        # 2x lands near the mirror point of the quadratic model, where the
        # loss is about what it was: only the sufficient decrease rejects it
        cert, calls = self.newton_with_scaled_directions(2.0)
        assert cert.converged and calls == 12

    def test_newton_stops_where_no_step_lowers_the_loss(self):
        # at 1e15x even the shortest step tried (1e-10 of it) raises the loss
        cert, _ = self.newton_with_scaled_directions(1e15)
        assert not cert.converged
        assert not cert.w_star.any()

    def test_logistic_labels_other_than_signs(self):
        # a 0 label has phi = log 2 and phi' = 0 everywhere, so its Hessian
        # weight -phi'(y + phi') is 0; column 3 is nonzero only in row 2
        # (label 0), so the Hessian's (3, 3) entry is sigma alone
        rng = np.random.default_rng(41)
        rows = rng.standard_normal((10, 4))
        rows[:, 3] = 0.0
        rows[2, 3] = 1.5
        data = Dataset(rows, np.tile([-2.0, -0.5, 0.0, 0.5, 2.0], 2))
        curvatures, cg = [], losses._cg

        def spy(hess_vec, *args, **kwargs):
            curvatures.append(hess_vec(np.eye(4)[3])[3])
            return cg(hess_vec, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(losses, "_cg", spy)
            cert = optimum_oracle(LossSpec(family="logistic", sigma=1e-2), data)
        assert cert.converged
        assert np.linalg.norm(own_logistic_grad(data, cert.w_star, 1e-2)) <= 1e-10
        assert curvatures and curvatures == [1e-2] * len(curvatures)

    @given(
        n=st.integers(1, 40),
        d=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        log_sigma=st.floats(-4.0, 0.0),
        log_scale=st.floats(-1.0, 1.0),
    )
    def test_logistic_converges_on_random_glms(self, n, d, seed, log_sigma, log_scale):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((n, d)) * 10.0**log_scale
        rows[rng.random((n, d)) < 0.3] = 0.0
        data = Dataset(rows, rng.choice([-1.0, 1.0], n))
        sigma = 10.0**log_sigma
        cert = optimum_oracle(LossSpec(family="logistic", sigma=sigma), data)
        assert cert.converged
        assert np.linalg.norm(own_logistic_grad(data, cert.w_star, sigma)) <= 1e-10


class TestLossSpecValidation:
    def test_rejections(self):
        with pytest.raises(ValueError):
            LossSpec(family="hinge")
        with pytest.raises(ValueError):
            LossSpec(family="squared", sigma=-0.1)
        with pytest.raises(ValueError, match="its square overflows"):
            LossSpec(family="logistic", sigma=1e308)
        with pytest.raises(ValueError):
            LossSpec(family="monomial", power_r=0.0)
        with pytest.raises(ValueError):
            LossSpec(family="monomial", scales=[1.0, -1.0])
