"""SGD schedules and steps, and ``run_baseline``: SAG, SVRG and Adam
checked against textbook dense loops on the same draws, and the shared
epoch driver for all four baselines."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from polyak_opt import baselines
from polyak_opt.baselines import BASELINES, FlatDataError, run_baseline, sgd_step, sgd_stepsize
from polyak_opt.data import Dataset, synth_dataset
from polyak_opt.losses import (
    LossSpec,
    full_grad,
    full_loss,
    loss_grad_i,
    optimum_oracle,
    smoothness_constants,
)
from polyak_opt.polyak import NumericError, sample_indices


def half_square_1d():
    return LossSpec(family="squared"), Dataset([[1.0]], [0.0])


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
        data = Dataset([[0.0, 2.0, 0.0, -1.0], [1.0, 1.0, 1.0, 1.0]], [1.0, -1.0])
        spec = LossSpec(family="logistic", sigma=0.3)
        w = np.array([0.5, -0.25, 1.0, 2.0])
        _, g = loss_grad_i(spec, data, w, 0)
        assert_allclose(sgd_step(spec, data, w, 0, 1, "constant", 1.0, 0.4), w - 0.4 * g,
                        rtol=1e-14, atol=1e-15)
        assert_array_equal(w, [0.5, -0.25, 1.0, 2.0])

    def test_step_rejects_a_non_finite_step_size(self):
        # run_baseline refuses gamma = nan; the single step did not, and
        # returned nan weights
        spec, data = LossSpec(family="squared"), Dataset([[1.0, 2.0]], [0.0])
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            sgd_step(spec, data, np.array([1.0, 1.0]), 0, 1, schedule="constant", gamma=math.nan)

    def test_step_rejects_a_w_of_the_wrong_length(self):
        # run_epochs refuses such a start; the single step returned a (d+1,) iterate
        spec, data = LossSpec(family="squared"), Dataset([[1.0, 2.0]], [0.0])
        with pytest.raises(ValueError, match="state dimension does not match the dataset"):
            sgd_step(spec, data, np.ones(3), 0, 1, schedule="constant", gamma=0.5)

    def test_step_index_checked(self):
        spec, data = half_square_1d()
        with pytest.raises(IndexError):
            sgd_step(spec, data, np.array([2.0]), -1, 1)


def draws(seed, n, epochs):
    """run_baseline's sample indices: one generator, n uniform draws per epoch."""
    rng = np.random.default_rng(seed)
    return [sample_indices(rng, n, n).tolist() for _ in range(epochs)]


def epoch_iterates(monkeypatch, method, spec, data, epochs, seed, **kwargs):
    """run_baseline's records, and its iterate at the end of every epoch."""
    iterates, make_record = [], baselines._make_record

    def keep(meth, spec, data, w, *rest):
        iterates.append(w.copy())
        return make_record(meth, spec, data, w, *rest)

    monkeypatch.setattr(baselines, "_make_record", keep)
    return run_baseline(method, spec, data, epochs, seed, **kwargs), iterates


def iterate_after(monkeypatch, method, spec, data, indices, **kwargs):
    """run_baseline's iterate after stepping through ``indices``, in place of
    its random draws."""
    def loop(seed, high, epochs, run, end_epoch):
        run(list(indices), 0)
        return [end_epoch(1, len(indices))]

    monkeypatch.setattr(baselines, "_epoch_loop", loop)
    return epoch_iterates(monkeypatch, method, spec, data, 1, 0, **kwargs)[1][-1]


def glm_cases():
    """(name, spec, data): dense and sparse rows, σ = 0 and σ > 0, on a
    logistic and a squared loss."""
    rng = np.random.default_rng(12)
    dense = rng.standard_normal((12, 5))
    sparse = dense * (rng.random((12, 5)) < 0.4)
    labels = rng.choice([-1.0, 1.0], size=12)
    for name, rows in (("dense", dense), ("sparse", sparse)):
        data = Dataset(rows, labels)
        assert data.X.dense == (name == "dense")
        for family in ("logistic", "squared"):
            for sigma in (0.0, 0.2):
                yield f"{name} {family} sigma={sigma}", LossSpec(family=family, sigma=sigma), data


def dense_sag(spec, data, epochs, seed, gamma):
    """SAG with an n×d table of φ′_i·x_i, stepping along its mean plus σw."""
    table, w, out = np.zeros((data.n, data.dim)), np.zeros(data.dim), []
    unregularized = dataclasses.replace(spec, sigma=0.0)
    for epoch in draws(seed, data.n, epochs):
        for i in epoch:
            table[i] = loss_grad_i(unregularized, data, w, i)[1]
            w = w - gamma * (table.sum(axis=0) / data.n + spec.sigma * w)
        out.append(w)
    return out


def dense_svrg(spec, data, epochs, seed, gamma, inner_len):
    """SVRG from a snapshot at w⁰, taken again after every inner_len steps."""
    w, out, inner = np.zeros(data.dim), [], 0
    w_ref, mu_ref = w, full_grad(spec, data, w)
    for epoch in draws(seed, data.n, epochs):
        for i in epoch:
            g = loss_grad_i(spec, data, w, i)[1] - loss_grad_i(spec, data, w_ref, i)[1] + mu_ref
            w = w - gamma * g
            inner += 1
            if inner == inner_len:
                w_ref, mu_ref, inner = w, full_grad(spec, data, w), 0
        out.append(w)
    return out


def dense_adam(spec, data, epochs, seed, alpha):
    """Adam with bias correction, β1 = 0.9, β2 = 0.999, ε = 1e-8."""
    w, m, v, t, out = np.zeros(data.dim), np.zeros(data.dim), np.zeros(data.dim), 0, []
    for epoch in draws(seed, data.n, epochs):
        for i in epoch:
            t += 1
            g = loss_grad_i(spec, data, w, i)[1]
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g**2
            w = w - alpha * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        out.append(w)
    return out


def gradient_descent(spec, data, steps, gamma):
    w, out = np.zeros(data.dim), []
    for _ in range(steps):
        w = w - gamma * full_grad(spec, data, w)
        out.append(w)
    return out


class TestSag:
    def test_matches_dense_table(self, monkeypatch):
        for name, spec, data in glm_cases():
            _, ours = epoch_iterates(monkeypatch, "sag", spec, data, 4, 3, gamma=0.1)
            for a, b in zip(ours, dense_sag(spec, data, 4, 3, 0.1), strict=True):
                assert_allclose(a, b, rtol=1e-12, atol=1e-14, err_msg=name)

    def test_incremental_sum_matches_table_sum(self, monkeypatch):
        # grad_sum is kept by adding each visit's change; over 1200 steps it
        # must not drift from the table's fresh sum
        rng = np.random.default_rng(3)
        data = Dataset(rng.standard_normal((20, 4)), rng.standard_normal(20))
        spec = LossSpec(family="squared", sigma=0.2)
        _, ours = epoch_iterates(monkeypatch, "sag", spec, data, 60, 5, gamma=0.05)
        assert_allclose(ours[-1], dense_sag(spec, data, 60, 5, 0.05)[-1], rtol=1e-11, atol=1e-14)

    def test_table_starts_uninitialized(self, monkeypatch):
        # every stored gradient is 0 before its first visit, so the first
        # step moves along the sampled gradient over n alone
        rng = np.random.default_rng(0)
        data = Dataset(rng.standard_normal((4, 3)), rng.choice([-1.0, 1.0], size=4))
        spec = LossSpec(family="logistic", sigma=0.3)
        _, g = loss_grad_i(spec, data, np.zeros(3), 2)
        assert_allclose(iterate_after(monkeypatch, "sag", spec, data, [2], gamma=0.5),
                        -0.5 * g / 4, rtol=1e-15)

    def test_revisit_replaces_stored_gradient(self, monkeypatch):
        rng = np.random.default_rng(1)
        data = Dataset(rng.standard_normal((6, 4)), rng.choice([-1.0, 1.0], size=6))
        spec = LossSpec(family="logistic", sigma=0.3)
        unregularized = LossSpec(family="logistic")
        w1 = iterate_after(monkeypatch, "sag", spec, data, [1], gamma=0.5)
        _, g1 = loss_grad_i(unregularized, data, w1, 1)
        assert_allclose(iterate_after(monkeypatch, "sag", spec, data, [1, 1], gamma=0.5),
                        w1 - 0.5 * (g1 / 6 + 0.3 * w1), rtol=1e-14, atol=1e-16)

    def test_single_sample_equals_gradient_descent(self, monkeypatch):
        rng = np.random.default_rng(2)
        data = Dataset(rng.standard_normal((1, 3)), [1.0])
        spec = LossSpec(family="logistic", sigma=0.1)
        _, ours = epoch_iterates(monkeypatch, "sag", spec, data, 10, 0, gamma=0.4)
        for a, b in zip(ours, gradient_descent(spec, data, 10, 0.4), strict=True):
            assert_allclose(a, b, rtol=1e-12, atol=1e-14)


class TestSvrg:
    def test_at_reference_point_moves_along_full_gradient(self, monkeypatch):
        # a snapshot after every step: each step is taken at the reference
        # point, where the direction is the full gradient
        rng = np.random.default_rng(4)
        data = Dataset(rng.standard_normal((5, 3)), rng.choice([-1.0, 1.0], size=5))
        spec = LossSpec(family="logistic", sigma=0.2)
        _, ours = epoch_iterates(monkeypatch, "svrg", spec, data, 3, 1, gamma=0.3, inner_len=1)
        assert_allclose(ours, gradient_descent(spec, data, 15, 0.3)[4::5], rtol=1e-12, atol=1e-14)

    def test_direction_matches_naive_formula(self, monkeypatch):
        for name, spec, data in glm_cases():
            _, ours = epoch_iterates(monkeypatch, "svrg", spec, data, 4, 7, gamma=0.1)
            for a, b in zip(ours, dense_svrg(spec, data, 4, 7, 0.1, 2 * data.n), strict=True):
                assert_allclose(a, b, rtol=1e-12, atol=1e-14, err_msg=name)

    def test_snapshot_refresh_after_inner_budget(self, monkeypatch):
        # inner_len = 7 on n = 12 takes snapshots in the middle of epochs
        for name, spec, data in glm_cases():
            records, ours = epoch_iterates(monkeypatch, "svrg", spec, data, 4, 2,
                                           gamma=0.1, inner_len=7)
            for a, b in zip(ours, dense_svrg(spec, data, 4, 2, 0.1, 7), strict=True):
                assert_allclose(a, b, rtol=1e-12, atol=1e-14, err_msg=name)
            # epoch k: k passes of steps, the first snapshot and one per 7 steps
            assert [r.passes for r in records] == [3.0, 6.0, 9.0, 11.0]

    def test_single_sample_equals_gradient_descent(self, monkeypatch):
        rng = np.random.default_rng(7)
        data = Dataset(rng.standard_normal((1, 3)), [-1.0])
        spec = LossSpec(family="logistic", sigma=0.1)
        _, ours = epoch_iterates(monkeypatch, "svrg", spec, data, 8, 0, gamma=0.5, inner_len=3)
        for a, b in zip(ours, gradient_descent(spec, data, 8, 0.5), strict=True):
            assert_allclose(a, b, rtol=1e-12, atol=1e-14)

    def test_inner_len_validated(self, monkeypatch):
        # before the snapshot's full gradient, not at the first step
        spec, data = half_square_1d()
        monkeypatch.setattr(baselines, "full_grad", None)
        with pytest.raises(ValueError, match="inner_len must be >= 1"):
            run_baseline("svrg", spec, data, 1, 0, inner_len=0)


class TestAdam:
    def test_matches_textbook_loop(self, monkeypatch):
        for name, spec, data in glm_cases():
            _, ours = epoch_iterates(monkeypatch, "adam", spec, data, 4, 1, alpha=0.05)
            for a, b in zip(ours, dense_adam(spec, data, 4, 1, 0.05), strict=True):
                assert_allclose(a, b, rtol=1e-12, atol=1e-14, err_msg=name)

    def test_first_step_is_signed_unit_move(self, monkeypatch):
        rng = np.random.default_rng(8)
        data = Dataset(rng.standard_normal((3, 4)), [1.0, -1.0, 1.0])
        spec = LossSpec(family="logistic", sigma=0.1)
        _, g = loss_grad_i(spec, data, np.zeros(4), 1)
        assert_allclose(iterate_after(monkeypatch, "adam", spec, data, [1]),
                        -0.001 * g / (np.abs(g) + 1e-8), rtol=1e-12)

    def test_zero_gradient_is_fixed_point(self, monkeypatch):
        spec = LossSpec(family="squared")
        data = Dataset(np.zeros((3, 2)), np.zeros(3))
        _, ours = epoch_iterates(monkeypatch, "adam", spec, data, 2, 0, alpha=0.1)
        assert_array_equal(ours, np.zeros((2, 2)))

    def test_two_steps_bias_correction(self, monkeypatch):
        data = Dataset([[1.0], [2.0]], [0.0, 1.0])
        spec = LossSpec(family="squared")
        g1 = loss_grad_i(spec, data, np.zeros(1), 0)[1]
        w1 = -0.1 * g1 / (np.abs(g1) + 1e-8)
        g2 = loss_grad_i(spec, data, w1, 1)[1]
        m = 0.9 * 0.1 * g1 + 0.1 * g2
        v = 0.999 * 0.001 * g1**2 + 0.001 * g2**2
        m_hat = m / (1.0 - 0.9**2)
        v_hat = v / (1.0 - 0.999**2)
        assert_allclose(iterate_after(monkeypatch, "adam", spec, data, [0, 1], alpha=0.1),
                        w1 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8), rtol=1e-12)


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
        data = Dataset(rows, rng.choice([-1.0, 1.0], size=30))
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
        data = Dataset(np.zeros((3, 2)), [1.0, -1.0, 1.0])
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

    # each bad step setting is rejected before the first step: on synth
    # n=10, d=3, logistic sigma=0.1, gamma = 0 would run sag as a silent
    # no-op, gamma = -0.5 and adam's alpha = -1 would raise the loss from
    # 1.29 to 4.14, and gamma = nan would end mid-run as a NumericError
    def measured_case(self):
        return LossSpec(family="logistic", sigma=0.1), synth_dataset(0, 10, 3, "separable")[0]

    def test_zero_gamma_rejected(self):
        spec, data = self.measured_case()
        for method in ("sgd", "sag", "svrg"):
            with pytest.raises(ValueError, match="gamma must be finite and > 0"):
                run_baseline(method, spec, data, 2, 0, gamma=0.0, sgd_schedule="constant")

    def test_negative_gamma_rejected(self):
        spec, data = self.measured_case()
        for method in ("sgd", "sag", "svrg"):
            with pytest.raises(ValueError, match="gamma must be finite and > 0"):
                run_baseline(method, spec, data, 2, 0, gamma=-0.5, sgd_schedule="constant")

    def test_non_finite_gamma_rejected(self):
        spec, data = self.measured_case()
        for gamma in (np.nan, np.inf):
            with pytest.raises(ValueError, match="gamma must be finite and > 0"):
                run_baseline("sag", spec, data, 2, 0, gamma=gamma)

    def test_bad_alpha_rejected(self):
        spec, data = self.measured_case()
        for alpha in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="alpha must be finite and > 0"):
                run_baseline("adam", spec, data, 2, 0, alpha=alpha)

    def test_unknown_sgd_schedule_rejected(self):
        spec, data = self.measured_case()
        for method in BASELINES:
            with pytest.raises(ValueError, match="unknown sgd schedule 'polyak'"):
                run_baseline(method, spec, data, 2, 0, sgd_schedule="polyak")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_attaches_partial_trace(self):
        # f(w) = (w - 1)^2 / 2 on two equal rows: each constant step of 10
        # multiplies w - 1 by -9 until the sampled loss overflows
        spec, data = LossSpec(family="squared"), Dataset([[1.0], [1.0]], [1.0, 1.0])
        for method in ("sgd", "sag", "svrg", "adam"):
            alpha = 1e300 if method == "adam" else 0.001
            with pytest.raises(NumericError) as exc:
                run_baseline(method, spec, data, 400, 0, gamma=10.0,
                             sgd_schedule="constant", alpha=alpha)
            assert exc.value.sample_index in (0, 1)
            records = exc.value.records
            assert len(records) < 400
            assert [r.epoch for r in records] == list(range(1, len(records) + 1))
