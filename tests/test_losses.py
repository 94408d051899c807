"""GLM loss values, gradients, smoothness constants, and the optimum oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from polyak_opt.data import Dataset, SparseVector, synth_dataset
from polyak_opt.losses import (
    EmptyDatasetError,
    LossSpec,
    UnsupportedFamilyError,
    batch_eval,
    full_grad,
    full_loss,
    grad_i,
    loss_grad_i,
    loss_i,
    optimum_oracle,
    smoothness_constants,
)


def dense_dataset(rows, labels):
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    samples = [SparseVector(np.flatnonzero(r), r[np.flatnonzero(r)]) for r in rows]
    return Dataset(samples, labels, dim=rows.shape[1])


def own_logistic_grad(data, w, sigma):
    """Mean logistic gradient from the rows themselves, not ``full_grad``."""
    X = np.zeros((data.n, data.dim))
    for r, s in enumerate(data.samples):
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
        g[j] = (loss_i(spec, data, wp, i) - loss_i(spec, data, wm, i)) / (2 * step)
    return g


class TestLossValues:
    def test_logistic_at_origin_is_ln2(self):
        data = dense_dataset([[1.0, -2.0], [0.5, 0.0]], [1.0, -1.0])
        spec = LossSpec(family="logistic")
        for i in range(data.n):
            assert_allclose(loss_i(spec, data, np.zeros(2), i), math.log(2), rtol=1e-15)

    def test_logistic_extreme_margins_stable(self):
        data = dense_dataset([[1.0]], [1.0])
        spec = LossSpec(family="logistic")
        with np.errstate(over="raise"):
            lo = loss_i(spec, data, np.array([-800.0]), 0)
            hi = loss_i(spec, data, np.array([800.0]), 0)
        assert_allclose(lo, 800.0, rtol=1e-12)
        assert 0.0 <= hi < 1e-300

    def test_squared_interpolation_point(self):
        data = dense_dataset([[1.0]], [3.0])
        spec = LossSpec(family="squared")
        assert loss_i(spec, data, np.array([3.0]), 0) == 0.0

    def test_regularizer_additivity_exact(self):
        rng = np.random.default_rng(7)
        data = dense_dataset(rng.standard_normal((4, 3)), rng.standard_normal(4))
        w = rng.standard_normal(3)
        sigma = 0.7
        plain = LossSpec(family="squared")
        reg = LossSpec(family="squared", sigma=sigma)
        for i in range(4):
            expected = loss_i(plain, data, w, i) + 0.5 * sigma * float(np.dot(w, w))
            assert loss_i(reg, data, w, i) == expected

    def test_monomial_interpolation_zero(self):
        w_star = np.array([2.0, -1.0])
        data = dense_dataset([[1.0, 1.0], [3.0, 0.0]], [0.0, 0.0])
        b = data.dense @ w_star
        spec = LossSpec(family="monomial", power_r=0.75, offsets=b)
        for i in range(data.n):
            assert loss_i(spec, data, w_star, i) == 0.0
            assert_allclose(grad_i(spec, data, w_star, i), 0.0)

    def test_index_out_of_range(self):
        data = dense_dataset([[1.0]], [1.0])
        spec = LossSpec(family="squared")
        with pytest.raises(IndexError):
            loss_i(spec, data, np.zeros(1), 1)
        with pytest.raises(IndexError):
            grad_i(spec, data, np.zeros(1), -1)


class TestGradients:
    def test_logistic_at_origin(self):
        data = dense_dataset([[1.0]], [1.0])
        spec = LossSpec(family="logistic")
        assert_allclose(grad_i(spec, data, np.zeros(1), 0), [-0.5], rtol=1e-15)

    def test_squared_worked_example(self):
        data = dense_dataset([[2.0]], [0.0])
        spec = LossSpec(family="squared")
        assert_allclose(grad_i(spec, data, np.array([1.0]), 0), [4.0], rtol=1e-15)

    def test_loss_grad_pair_consistent(self):
        rng = np.random.default_rng(19)
        data = dense_dataset(rng.standard_normal((6, 4)), rng.standard_normal(6))
        spec = LossSpec(family="logistic", sigma=0.2)
        w = rng.standard_normal(4)
        for i in range(6):
            val, g = loss_grad_i(spec, data, w, i)
            assert val == loss_i(spec, data, w, i)
            assert_allclose(g, grad_i(spec, data, w, i))

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
                    data = dense_dataset(rows, labels)
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
                        while np.min(np.abs(data.dense @ w - labels)) < 0.2:
                            w = rng.standard_normal(d)
                    i = int(rng.integers(n))
                    g = grad_i(spec, data, w, i)
                    approx = fd_grad(spec, data, w, i)
                    scale = max(1.0, float(np.linalg.norm(g)))
                    assert np.linalg.norm(g - approx) / scale < 1e-5
                    checks += 1
        assert checks == 100

    def test_monomial_kink_derivative_is_zero(self):
        data = dense_dataset([[1.0]], [2.0])
        spec = LossSpec(family="monomial", power_r=0.6)
        assert_allclose(grad_i(spec, data, np.array([2.0]), 0), [0.0])


class TestBatchEval:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(5)
        for spec in [
            LossSpec(family="logistic", sigma=0.0),
            LossSpec(family="logistic", sigma=0.4),
            LossSpec(family="squared", sigma=0.1),
            LossSpec(family="monomial", power_r=1.5),
        ]:
            data = dense_dataset(rng.standard_normal((8, 5)), rng.standard_normal(8))
            w = rng.standard_normal(5)
            be = batch_eval(spec, data, w)
            for i in range(8):
                val, g = loss_grad_i(spec, data, w, i)
                assert_allclose(be.values[i], val, rtol=1e-12, atol=1e-15)
                assert_allclose(
                    be.grad_sqnorms[i], float(np.dot(g, g)), rtol=1e-12, atol=1e-15
                )

    def test_extreme_margins_finite(self):
        data = dense_dataset([[1.0], [1.0]], [1.0, -1.0])
        spec = LossSpec(family="logistic")
        be = batch_eval(spec, data, np.array([800.0]))
        assert np.all(np.isfinite(be.values))
        assert np.all(np.isfinite(be.dvals))


class TestFullBatch:
    def test_single_sample_equals_scalar(self):
        rng = np.random.default_rng(2)
        data = dense_dataset(rng.standard_normal((1, 4)), [1.0])
        spec = LossSpec(family="logistic", sigma=0.3)
        w = rng.standard_normal(4)
        assert_allclose(full_loss(spec, data, w), loss_i(spec, data, w, 0), rtol=1e-13)
        assert_allclose(full_grad(spec, data, w), grad_i(spec, data, w, 0), rtol=1e-13)

    def test_opposed_gradients_cancel(self):
        # both samples sit at margin 1; the residuals are +1 and -1 so the
        # per-sample gradients are exactly opposite
        data = dense_dataset([[1.0], [1.0]], [0.0, 2.0])
        spec = LossSpec(family="squared")
        assert_allclose(full_grad(spec, data, np.array([1.0])), [0.0], atol=1e-16)

    def test_mean_of_per_sample(self):
        rng = np.random.default_rng(3)
        data = dense_dataset(rng.standard_normal((7, 3)), rng.standard_normal(7))
        spec = LossSpec(family="squared", sigma=0.05)
        w = rng.standard_normal(3)
        vals = [loss_i(spec, data, w, i) for i in range(7)]
        grads = [grad_i(spec, data, w, i) for i in range(7)]
        assert_allclose(full_loss(spec, data, w), np.mean(vals), rtol=1e-12)
        assert_allclose(full_grad(spec, data, w), np.mean(grads, axis=0), atol=1e-14)

    def test_empty_dataset_rejected(self):
        empty = Dataset([], [], dim=0)
        spec = LossSpec(family="squared")
        with pytest.raises(EmptyDatasetError):
            full_loss(spec, empty, np.zeros(0))
        with pytest.raises(EmptyDatasetError):
            full_grad(spec, empty, np.zeros(0))
        with pytest.raises(EmptyDatasetError):
            optimum_oracle(spec, empty)


class TestSmoothness:
    def test_logistic_quarter(self):
        data = dense_dataset([[2.0]], [1.0])
        L, l_max = smoothness_constants(LossSpec(family="logistic"), data)
        assert_allclose(L, [1.0])
        assert l_max == 1.0

    def test_squared_with_regularizer(self):
        data = dense_dataset([[1.0]], [0.0])
        L, l_max = smoothness_constants(LossSpec(family="squared", sigma=2.0), data)
        assert_allclose(L, [3.0])
        assert l_max == 3.0

    def test_monomial_requires_r_one(self):
        data = dense_dataset([[1.0]], [0.0])
        L, _ = smoothness_constants(
            LossSpec(family="monomial", power_r=1.0, scales=[3.0]), data
        )
        assert_allclose(L, [6.0])
        with pytest.raises(UnsupportedFamilyError):
            smoothness_constants(LossSpec(family="monomial", power_r=1.5), data)

    def test_descent_lemma_witness(self):
        rng = np.random.default_rng(23)
        rows = rng.standard_normal((10, 4))
        # the logistic curvature bound 1/4 assumes classification labels
        signs = np.where(rng.random(10) < 0.5, -1.0, 1.0)
        for spec, labels in [
            (LossSpec(family="logistic", sigma=0.1), signs),
            (LossSpec(family="squared"), rng.standard_normal(10)),
            (
                LossSpec(family="monomial", power_r=1.0, scales=rng.uniform(0.5, 2.0, 10)),
                rng.standard_normal(10),
            ),
        ]:
            data = dense_dataset(rows, labels)
            L, _ = smoothness_constants(spec, data)
            for _ in range(1000):
                w = rng.standard_normal(4)
                z = rng.standard_normal(4)
                i = int(rng.integers(10))
                fw, g = loss_grad_i(spec, data, w, i)
                bound = fw + float(np.dot(g, z - w)) + 0.5 * L[i] * float(
                    np.dot(z - w, z - w)
                )
                assert loss_i(spec, data, z, i) <= bound + 1e-10


class TestOptimumOracle:
    def test_square_system_interpolates(self):
        rng = np.random.default_rng(31)
        rows = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        data = dense_dataset(rows, rng.standard_normal(4))
        cert = optimum_oracle(LossSpec(family="squared"), data)
        assert cert.converged
        assert_allclose(cert.f_star, 0.0, atol=1e-18)
        assert_allclose(cert.fi_star, np.zeros(4), atol=1e-18)
        assert cert.grad_norm_at_opt <= 1e-10

    def test_normal_equation_residual(self):
        data, _ = synth_dataset(8, 40, 7, "underparam", noise=0.4)
        sigma = 0.2
        cert = optimum_oracle(LossSpec(family="squared", sigma=sigma), data)
        X, y = data.dense, data.labels
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
        h = data.dense.T @ data.dense / data.n
        assert_allclose(cert.mu, np.linalg.eigvalsh(h)[0] + 0.3, rtol=1e-10)

    def test_logistic_unregularized_needs_budget(self):
        data, _ = synth_dataset(3, 10, 3, "separable")
        with pytest.raises(ValueError):
            optimum_oracle(LossSpec(family="logistic"), data)

    def test_budget_exhaustion_flagged_not_raised(self):
        data, _ = synth_dataset(3, 30, 5, "separable")
        cert = optimum_oracle(LossSpec(family="logistic"), data, budget=3)
        assert not cert.converged
        assert cert.grad_norm_at_opt > 1e-8

    def test_monomial_unsupported(self):
        data = dense_dataset([[1.0]], [0.0])
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
        rows = [
            SparseVector(np.sort(rng.choice(d, k, replace=False)), rng.standard_normal(k))
            for _ in range(n)
        ]
        data = Dataset(rows, rng.choice([-1.0, 1.0], n), dim=d)
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
        data = dense_dataset(rows, rng.choice([-1.0, 1.0], n))
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
        with pytest.raises(ValueError):
            LossSpec(family="monomial", power_r=0.0)
        with pytest.raises(ValueError):
            LossSpec(family="monomial", scales=[1.0, -1.0])
