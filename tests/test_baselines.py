"""SGD schedules, SAG's scalar gradient table, SVRG snapshot bookkeeping,
Adam, and the shared epoch driver for all four baselines."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from polyak_opt.baselines import (
    AdamMoments,
    FlatDataError,
    SagTable,
    adam_step,
    make_snapshot,
    run_baseline,
    sag_step,
    sgd_step,
    sgd_stepsize,
    svrg_step,
)
from polyak_opt.data import Dataset, SparseVector, synth_dataset
from polyak_opt.losses import (
    LossSpec,
    full_grad,
    full_loss,
    loss_grad_i,
    optimum_oracle,
    smoothness_constants,
)
from polyak_opt.polyak import NumericError, sample_indices


def dense_dataset(rows, labels):
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    samples = [SparseVector(np.flatnonzero(r), r[np.flatnonzero(r)]) for r in rows]
    return Dataset(samples, labels, dim=rows.shape[1])


def half_square_1d():
    return LossSpec(family="squared"), dense_dataset([[1.0]], [0.0])


class TestSgdStepsize:
    def test_paper_literal_grows_with_smoothness(self):
        assert sgd_stepsize("paper_literal", 2, 4.0, 0.1) == 2.0

    def test_inverse(self):
        assert sgd_stepsize("inverse", 2, 4.0, 0.1) == 0.125

    def test_constant_ignores_t(self):
        assert sgd_stepsize("constant", 1, 4.0, 0.37) == 0.37
        assert sgd_stepsize("constant", 999, 4.0, 0.37) == 0.37

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sgd_stepsize("inverse", 0, 4.0, 0.1)
        with pytest.raises(ValueError):
            sgd_stepsize("polyak", 1, 4.0, 0.1)

    def test_step_on_quadratic(self):
        spec, data = half_square_1d()
        w = sgd_step(spec, data, np.array([2.0]), 0, 1, "constant", 1.0, 0.5)
        assert_array_equal(w, [1.0])

    def test_step_on_sparse_row_matches_dense_gradient(self):
        # a sparse row takes the kernel's scaled O(nnz) step
        data = dense_dataset([[0.0, 2.0, 0.0, -1.0], [1.0, 1.0, 1.0, 1.0]], [1.0, -1.0])
        spec = LossSpec(family="logistic", sigma=0.3)
        w = np.array([0.5, -0.25, 1.0, 2.0])
        _, g = loss_grad_i(spec, data, w, 0)
        assert_allclose(sgd_step(spec, data, w, 0, 1, "constant", 1.0, 0.4), w - 0.4 * g,
                        rtol=1e-14, atol=1e-15)
        assert_array_equal(w, [0.5, -0.25, 1.0, 2.0])

    def test_step_index_checked(self):
        spec, data = half_square_1d()
        with pytest.raises(IndexError):
            sgd_step(spec, data, np.array([2.0]), -1, 1)


class TestSag:
    def test_table_starts_uninitialized(self):
        table = SagTable.zeros(4, 3)
        assert not table.initialized.any()
        assert_array_equal(table.dvals, np.zeros(4))
        assert_array_equal(table.grad_sum, np.zeros(3))

    def test_visit_marks_and_stores(self):
        rng = np.random.default_rng(0)
        data = dense_dataset(rng.standard_normal((4, 3)), rng.standard_normal(4))
        spec = LossSpec(family="logistic")
        table = SagTable.zeros(4, 3)
        w = rng.standard_normal(3)
        sag_step(w, table, spec, data, 2, gamma=0.1)
        assert list(table.initialized) == [False, False, True, False]
        assert table.dvals[2] != 0.0

    def test_full_table_direction_is_full_gradient(self):
        rng = np.random.default_rng(1)
        data = dense_dataset(rng.standard_normal((6, 4)), rng.standard_normal(6))
        spec = LossSpec(family="logistic", sigma=0.3)
        table = SagTable.zeros(6, 4)
        w = rng.standard_normal(4)
        # refresh every slot at a frozen iterate, then read the direction off
        # one more zero-movement step
        for i in range(6):
            out = sag_step(w, table, spec, data, i, gamma=0.0)
            assert_array_equal(out, w)
        w_next = sag_step(w, table, spec, data, 0, gamma=1.0)
        assert_allclose(w - w_next, full_grad(spec, data, w), rtol=1e-10, atol=1e-12)

    def test_single_sample_equals_gradient_descent(self):
        rng = np.random.default_rng(2)
        data = dense_dataset(rng.standard_normal((1, 3)), [1.0])
        spec = LossSpec(family="logistic", sigma=0.1)
        table = SagTable.zeros(1, 3)
        w_sag = np.zeros(3)
        w_gd = np.zeros(3)
        for _ in range(10):
            w_sag = sag_step(w_sag, table, spec, data, 0, gamma=0.4)
            w_gd = w_gd - 0.4 * full_grad(spec, data, w_gd)
            assert_allclose(w_sag, w_gd, rtol=1e-12, atol=1e-14)

    def test_check_sum_passes_and_detects_corruption(self):
        rng = np.random.default_rng(3)
        data = dense_dataset(rng.standard_normal((5, 3)), rng.standard_normal(5))
        spec = LossSpec(family="squared", sigma=0.2)
        table = SagTable.zeros(5, 3)
        w = np.zeros(3)
        for step in range(40):
            w = sag_step(w, table, spec, data, int(rng.integers(5)), gamma=0.05)
        assert table.check_sum(data) <= 1e-9
        table.grad_sum[0] += 1e-3
        with pytest.raises(ArithmeticError):
            table.check_sum(data)


class TestSvrg:
    def test_at_reference_point_moves_along_full_gradient(self):
        rng = np.random.default_rng(4)
        data = dense_dataset(rng.standard_normal((5, 3)), rng.standard_normal(5))
        spec = LossSpec(family="logistic", sigma=0.2)
        w = rng.standard_normal(3)
        snap = make_snapshot(spec, data, w)
        for i in range(5):
            w_new, _ = svrg_step(w, make_snapshot(spec, data, w), spec, data, i, 0.3, 99)
            assert_allclose(w_new, w - 0.3 * snap.mu_ref, rtol=1e-14, atol=1e-15)

    def test_direction_matches_naive_formula(self):
        rng = np.random.default_rng(5)
        data = dense_dataset(rng.standard_normal((6, 4)), rng.standard_normal(6))
        spec = LossSpec(family="squared", sigma=0.4)
        w_ref = rng.standard_normal(4)
        snap = make_snapshot(spec, data, w_ref)
        for _ in range(20):
            w = rng.standard_normal(4)
            i = int(rng.integers(6))
            w_new, _ = svrg_step(w, snap, spec, data, i, 0.7, 999)
            direction = (w - w_new) / 0.7
            _, gi = loss_grad_i(spec, data, w, i)
            _, gi_ref = loss_grad_i(spec, data, w_ref, i)
            assert_allclose(direction, gi - gi_ref + snap.mu_ref, rtol=1e-12, atol=1e-13)

    def test_snapshot_refresh_after_inner_budget(self):
        rng = np.random.default_rng(6)
        data = dense_dataset(rng.standard_normal((4, 2)), rng.standard_normal(4))
        spec = LossSpec(family="logistic")
        w = np.zeros(2)
        snap = make_snapshot(spec, data, w)
        w, snap1 = svrg_step(w, snap, spec, data, 1, 0.2, inner_len=2)
        assert snap1 is snap and snap.inner_count == 1
        w, snap2 = svrg_step(w, snap1, spec, data, 3, 0.2, inner_len=2)
        assert snap2 is not snap
        assert snap2.inner_count == 0
        assert_array_equal(snap2.w_ref, w)
        assert_allclose(snap2.mu_ref, full_grad(spec, data, w), rtol=1e-14)

    def test_single_sample_equals_gradient_descent(self):
        rng = np.random.default_rng(7)
        data = dense_dataset(rng.standard_normal((1, 3)), [-1.0])
        spec = LossSpec(family="logistic", sigma=0.1)
        w_svrg = np.zeros(3)
        w_gd = np.zeros(3)
        snap = make_snapshot(spec, data, w_svrg)
        for _ in range(8):
            w_svrg, snap = svrg_step(w_svrg, snap, spec, data, 0, 0.5, inner_len=3)
            w_gd = w_gd - 0.5 * full_grad(spec, data, w_gd)
            assert_allclose(w_svrg, w_gd, rtol=1e-12, atol=1e-14)

    def test_inner_len_validated(self):
        spec, data = half_square_1d()
        snap = make_snapshot(spec, data, np.zeros(1))
        with pytest.raises(ValueError):
            svrg_step(np.zeros(1), snap, spec, data, 0, 0.1, inner_len=0)


class TestAdam:
    def test_first_step_is_signed_unit_move(self):
        g = np.array([3.0, -4.0, 0.5])
        w = np.array([1.0, 1.0, 1.0])
        w_new, moments = adam_step(w, AdamMoments.zeros(3), g, 1)
        expected = w - 0.001 * g / (np.abs(g) + 1e-8)
        assert_allclose(w_new, expected, rtol=1e-12)
        assert_allclose(moments.m, 0.1 * g, rtol=1e-15)
        assert_allclose(moments.v, 0.001 * g * g, rtol=1e-15)

    def test_zero_gradient_is_fixed_point(self):
        w = np.array([2.0, -3.0])
        w_new, moments = adam_step(w, AdamMoments.zeros(2), np.zeros(2), 1)
        assert_array_equal(w_new, w)
        assert_array_equal(moments.m, np.zeros(2))

    def test_two_steps_bias_correction(self):
        g1, g2 = np.array([1.0]), np.array([-2.0])
        w, mom = adam_step(np.zeros(1), AdamMoments.zeros(1), g1, 1, alpha=0.1)
        w, mom = adam_step(w, mom, g2, 2, alpha=0.1)
        m = 0.9 * 0.1 * g1 + 0.1 * g2
        v = 0.999 * 0.001 * g1**2 + 0.001 * g2**2
        m_hat = m / (1.0 - 0.9**2)
        v_hat = v / (1.0 - 0.999**2)
        w1 = -0.1 * g1 / (np.abs(g1) + 1e-8)
        assert_allclose(w, w1 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8), rtol=1e-12)

    def test_input_moments_not_mutated(self):
        start = AdamMoments.zeros(2)
        adam_step(np.zeros(2), start, np.array([1.0, 2.0]), 1)
        assert_array_equal(start.m, np.zeros(2))
        assert_array_equal(start.v, np.zeros(2))

    def test_t_validated(self):
        with pytest.raises(ValueError):
            adam_step(np.zeros(1), AdamMoments.zeros(1), np.zeros(1), 0)


class TestRunBaseline:
    def setup_method(self):
        self.data, _ = synth_dataset(5, 12, 4, "underparam", noise=0.3)
        self.spec = LossSpec(family="squared", sigma=0.1)

    def test_record_shape_and_passes(self):
        records = run_baseline("sgd", self.spec, self.data, epochs=3, seed=1)
        assert [r.epoch for r in records] == [1, 2, 3]
        assert_allclose([r.passes for r in records], [1.0, 2.0, 3.0], rtol=1e-15)
        for r in records:
            assert r.dist_to_opt is None
            assert r.aux_value is None and r.growth_ratio is None
            assert r.tau is None and r.alpha_bar is None
            assert np.isfinite(r.full_loss) and np.isfinite(r.grad_norm)

    def test_svrg_pass_accounting(self):
        # default inner length 2n: snapshots land after epochs 2 and 4,
        # on top of the initial full gradient
        records = run_baseline("svrg", self.spec, self.data, epochs=4, seed=1)
        assert_allclose([r.passes for r in records], [2.0, 4.0, 5.0, 7.0], rtol=1e-15)

    def test_certificate_fills_distance(self):
        cert = optimum_oracle(self.spec, self.data)
        records = run_baseline("sag", self.spec, self.data, 2, 3, certificate=cert)
        assert all(r.dist_to_opt is not None for r in records)
        assert records[-1].dist_to_opt < records[0].dist_to_opt

    def test_deterministic_per_seed(self):
        for method in ("sgd", "sag", "svrg", "adam"):
            a = run_baseline(method, self.spec, self.data, epochs=2, seed=9)
            b = run_baseline(method, self.spec, self.data, epochs=2, seed=9)
            c = run_baseline(method, self.spec, self.data, epochs=2, seed=10)
            assert a == b
            assert a != c

    def test_sgd_constant_matches_manual_chain(self):
        gamma = 0.2
        records = run_baseline(
            "sgd", self.spec, self.data, epochs=2, seed=5,
            gamma=gamma, sgd_schedule="constant",
        )
        rng = np.random.default_rng(5)
        w = np.zeros(self.data.dim)
        for _ in range(2):
            for idx in sample_indices(rng, self.data.n, self.data.n):
                _, g = loss_grad_i(self.spec, self.data, w, int(idx))
                w = w - gamma * g
        assert records[-1].grad_norm == float(
            np.linalg.norm(full_grad(self.spec, self.data, w))
        )

    def test_default_step_is_half_inverse_smoothness(self):
        _, l_max = smoothness_constants(self.spec, self.data)
        explicit = run_baseline(
            "sag", self.spec, self.data, 2, 7, gamma=1.0 / (2.0 * l_max)
        )
        assert run_baseline("sag", self.spec, self.data, 2, 7) == explicit

    def test_variance_reduced_methods_converge(self):
        cert = optimum_oracle(self.spec, self.data)
        for method in ("sag", "svrg"):
            records = run_baseline(
                method, self.spec, self.data, epochs=60, seed=2, certificate=cert
            )
            assert records[-1].grad_norm < 1e-6
            assert records[-1].dist_to_opt < 1e-5

    def test_sgd_on_sparse_rows_matches_dense_chain(self):
        # the scaled sparse step rounds differently from the dense
        # reference, in the last digits only
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((30, 12)) * (rng.random((30, 12)) < 0.25)
        data = dense_dataset(rows, rng.choice([-1.0, 1.0], size=30))
        spec = LossSpec(family="logistic", sigma=0.05)
        assert data.X.nnz < 30 * 12
        records = run_baseline("sgd", spec, data, epochs=3, seed=2, gamma=0.5,
                               sgd_schedule="constant")
        rng = np.random.default_rng(2)
        w = np.zeros(12)
        for _ in range(3):
            for idx in sample_indices(rng, 30, 30):
                _, g = loss_grad_i(spec, data, w, int(idx))
                w = w - 0.5 * g
        assert_allclose(records[-1].full_loss, full_loss(spec, data, w), rtol=1e-12)
        assert_allclose(records[-1].grad_norm,
                        float(np.linalg.norm(full_grad(spec, data, w))), rtol=1e-9)

    def test_step_from_zero_l_max_is_flat_data_error(self):
        spec = LossSpec(family="logistic")
        data = dense_dataset(np.zeros((3, 2)), [1.0, -1.0, 1.0])
        for method, schedule in (("sag", "inverse"), ("svrg", "inverse"), ("sgd", "inverse"),
                                 ("sgd", "paper_literal"), ("sgd", "constant")):
            with pytest.raises(FlatDataError, match="L_max = 0.0"):
                run_baseline(method, spec, data, 1, 0, sgd_schedule=schedule)
        for method in ("sgd", "sag", "svrg"):
            records = run_baseline(method, spec, data, 1, 0, gamma=0.5, sgd_schedule="constant")
            assert records[0].grad_norm == 0.0
        assert run_baseline("adam", spec, data, 1, 0)[0].grad_norm == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            run_baseline("newton", self.spec, self.data, 1, 0)
        with pytest.raises(ValueError):
            run_baseline("sgd", self.spec, self.data, 0, 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_attaches_partial_trace(self):
        # f(w) = (w - 1)^2 / 2 on two equal rows: each constant step of 10
        # multiplies w - 1 by -9 until the sampled loss overflows
        spec, data = LossSpec(family="squared"), dense_dataset([[1.0], [1.0]], [1.0, 1.0])
        for method in ("sgd", "sag", "svrg", "adam"):
            alpha = 1e300 if method == "adam" else 0.001
            with pytest.raises(NumericError) as exc:
                run_baseline(method, spec, data, 400, 0, gamma=10.0,
                             sgd_schedule="constant", alpha=alpha)
            assert exc.value.sample_index in (0, 1)
            records = exc.value.records
            assert len(records) < 400
            assert [r.epoch for r in records] == list(range(1, len(records) + 1))
