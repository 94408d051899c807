"""Polyak-family steps, parameter rules, the momentum wrapper, and the
epoch driver, pinned against hand-evaluated updates and the documented
invariances."""

import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from polyak_opt import losses
from polyak_opt.aux import joint_projection_taps, run_epochs_sgd_view
from polyak_opt.baselines import run_baseline, sgd_step
from polyak_opt.config import resolve_dataset
from polyak_opt.data import Dataset, SparseVector
from polyak_opt.losses import LossSpec, full_grad, loss_grad_i, loss_i
from polyak_opt.polyak import (
    HyperParams,
    MotapsState,
    NumericError,
    TapsState,
    choose_lambda,
    decreasing_schedule,
    lambda_max,
    momentum_step,
    motaps_step,
    motaps_stepsizes,
    motaps_tau_coeff,
    rule_of_thumb,
    run_epochs,
    run_grid,
    sp_step,
    taps_step,
)


def dense_dataset(rows, labels):
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    samples = [SparseVector(np.flatnonzero(r), r[np.flatnonzero(r)]) for r in rows]
    return Dataset(samples, labels, dim=rows.shape[1])


def half_square_1d():
    """Single sample with f(w) = w^2/2 in one dimension."""
    return LossSpec(family="squared"), dense_dataset([[1.0]], [0.0])


def taps_state(w, alpha, tau=0.0):
    alpha = np.asarray(alpha, dtype=np.float64)
    return TapsState(
        w=np.asarray(w, dtype=np.float64),
        alpha=alpha.copy(),
        alpha_bar=float(np.mean(alpha)),
        tau_fixed=tau,
    )


def motaps_state(w, alpha, tau=0.0):
    alpha = np.asarray(alpha, dtype=np.float64)
    return MotapsState(
        w=np.asarray(w, dtype=np.float64),
        alpha=alpha.copy(),
        alpha_bar=float(np.mean(alpha)),
        tau=tau,
    )


class TestParameterRules:
    def test_lambda_max(self):
        assert lambda_max(1) == 3 / 5
        assert lambda_max(49) == 99 / 101
        assert 1 - 1e-5 < lambda_max(10**6) < 1.0
        with pytest.raises(ValueError):
            lambda_max(0)

    def test_tau_coeff(self):
        for n in (1, 5, 200):
            assert motaps_tau_coeff(0.0, n) == 1.0
        assert_allclose(motaps_tau_coeff(0.1, 9), 8.1 / 8.2, rtol=1e-15)
        assert_allclose(motaps_tau_coeff(3 / 5, 1), 0.4, rtol=1e-15)
        with pytest.raises(ValueError):
            motaps_tau_coeff(1.0, 4)
        with pytest.raises(ValueError):
            motaps_tau_coeff(-0.1, 4)

    def test_choose_lambda(self):
        assert_allclose(choose_lambda(2.0, 1.0, 1, 1.0), 0.594, rtol=1e-15)
        for n in (1, 7):
            assert choose_lambda(1.0, 1.0, n, 0.0) == 0.99 * lambda_max(n)
        # far below the cap the choice scales linearly in epsilon
        lo = choose_lambda(1e-9, 1.0, 5, 1.0)
        assert_allclose(choose_lambda(2e-9, 1.0, 5, 1.0), 2 * lo, rtol=1e-12)
        with pytest.raises(ValueError):
            choose_lambda(0.0, 1.0, 1, 1.0)
        with pytest.raises(ValueError):
            choose_lambda(1.0, 0.0, 1, 1.0)

    def test_decreasing_schedule(self):
        for lam, n in [(0.0, 1), (0.3, 5)]:
            assert decreasing_schedule(0, lam, 1.0, n) == 1.0 / ((1 - lam) * (2 * n + 1))
        # lam=0, mu=1, n=1: switch point 6, so step 7 is on the 1/t tail
        assert decreasing_schedule(6, 0.0, 1.0, 1) == 1.0 / 3.0
        assert_allclose(decreasing_schedule(7, 0.0, 1.0, 1), 15 / 64, rtol=1e-15)
        t = 10**6
        assert_allclose(decreasing_schedule(t, 0.0, 1.0, 1), 2 / t, rtol=1e-5)
        with pytest.raises(ValueError):
            decreasing_schedule(3, 0.0, 0.0, 1)

    def test_rule_of_thumb(self):
        assert rule_of_thumb(0.0) == (1.0, 0.0)
        g, gt = rule_of_thumb(1.0)
        assert_allclose(g, 1.0 / (1.0 + 0.25 * math.e), rtol=1e-15)
        assert_allclose(g, 0.5954, atol=5e-5)
        assert gt == 1.0 - g
        g_inf, gt_inf = rule_of_thumb(50.0)
        assert g_inf < 1e-20 and gt_inf > 1.0 - 1e-12
        with pytest.raises(ValueError):
            rule_of_thumb(-1.0)
        # 0.25*sigma*e^sigma overflows past sigma = 704.6 and e^sigma past
        # 709.78; either would give gamma = 0
        g, gt = rule_of_thumb(704.6)
        assert 0.0 < g < 1e-300 and gt == 1.0
        for sigma in (706.0, 709.0, 1000.0):
            with pytest.raises(ValueError, match=f"sigma = {sigma!r}"):
                rule_of_thumb(sigma)

    def test_motaps_stepsize_presets(self):
        lam, n = 0.2, 4
        g, gt = motaps_stepsizes(lam, n, "half")
        assert_allclose(g, 1.0 / (2 * (1 - lam) * (2 * n + 1)), rtol=1e-15)
        assert_allclose(gt, g * (lam + (1 - lam) * n), rtol=1e-15)
        g_full, gt_full = motaps_stepsizes(lam, n, "full")
        assert_allclose(g_full, 2 * g, rtol=1e-15)
        assert gt_full == g_full
        with pytest.raises(ValueError):
            motaps_stepsizes(lam, n, "third")


class TestSpStep:
    def test_half_quadratic(self):
        spec, data = half_square_1d()
        out = sp_step(spec, data, np.array([2.0]), 0, gamma=1.0)
        assert_allclose(out.state_after, [1.0], rtol=1e-15)
        assert out.polyak_coeff == 0.5
        assert out.sampled_index == 0

    def test_step_cap(self):
        spec, data = half_square_1d()
        out = sp_step(spec, data, np.array([2.0]), 0, gamma=1.0, step_cap=0.1)
        assert_allclose(out.state_after, [1.8], rtol=1e-15)
        assert out.polyak_coeff == 0.1

    def test_gamma_scales_the_move(self):
        spec, data = half_square_1d()
        out = sp_step(spec, data, np.array([2.0]), 0, gamma=0.5)
        assert_allclose(out.state_after, [1.5], rtol=1e-15)

    def test_zero_gradient_is_a_fixed_point(self):
        data = Dataset([SparseVector([], [])], [0.0], dim=1)
        spec = LossSpec(family="squared")
        w = np.array([7.0])
        out = sp_step(spec, data, w, 0)
        assert_array_equal(out.state_after, w)
        assert out.polyak_coeff == 0.0

    def test_nonzero_target(self):
        spec, data = half_square_1d()
        out = sp_step(spec, data, np.array([2.0]), 0, fi_star=1.0)
        assert_allclose(out.state_after, [1.5], rtol=1e-15)
        same = sp_step(spec, data, np.array([2.0]), 0, fi_star=2.0)
        assert_array_equal(same.state_after, [2.0])

    def test_nonfinite_raises_with_index(self):
        spec, data = half_square_1d()
        with pytest.raises(NumericError) as exc:
            sp_step(spec, data, np.array([np.nan]), 0)
        assert exc.value.sample_index == 0

    def test_monomial_overflow_raises(self):
        # |1e200|^4 overflows: a numeric abort, not a Python OverflowError
        data = dense_dataset([[1.0]], [0.0])
        spec = LossSpec(family="monomial", power_r=2.0)
        with pytest.raises(NumericError) as exc, np.errstate(over="ignore"):
            sp_step(spec, data, np.array([1e200]), 0)
        assert exc.value.sample_index == 0

    def test_scale_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n, d = 6, 4
            data = dense_dataset(rng.standard_normal((n, d)), np.zeros(n))
            scales = rng.uniform(0.5, 2.0, n)
            c = rng.uniform(0.1, 10.0, n)
            base = LossSpec(family="monomial", power_r=1.3, scales=scales)
            scaled = LossSpec(family="monomial", power_r=1.3, scales=c * scales)
            w = rng.standard_normal(d)
            i = int(rng.integers(n))
            star = 0.3 * loss_i(base, data, w, i)
            a = sp_step(base, data, w, i, gamma=0.7, fi_star=star)
            b = sp_step(scaled, data, w, i, gamma=0.7, fi_star=float(c[i]) * star)
            assert_allclose(b.state_after, a.state_after, rtol=1e-12, atol=1e-14)

    def test_translation_invariance(self):
        # no loss family carries an additive constant, so translate at the
        # formula level: c = ((f+shift) - (fi_star+shift)) / ||g||^2
        rng = np.random.default_rng(29)
        for _ in range(20):
            data = dense_dataset(rng.standard_normal((5, 3)), rng.standard_normal(5))
            spec = LossSpec(family="logistic")
            w = rng.standard_normal(3)
            i = int(rng.integers(5))
            star = 0.1
            shift = rng.uniform(-5.0, 5.0)
            fi, g = loss_grad_i(spec, data, w, i)
            coeff = ((fi + shift) - (star + shift)) / float(g @ g)
            translated = w - 0.9 * coeff * g
            out = sp_step(spec, data, w, i, gamma=0.9, fi_star=star)
            assert_allclose(out.state_after, translated, rtol=1e-12, atol=1e-14)

    def test_power_property(self):
        # raising a monomial loss to the p-th power only rescales the step:
        # a step with gamma on f^p equals a step with gamma/p on f
        rng = np.random.default_rng(41)
        for p in (2.0, 3.0, 0.5):
            for _ in range(10):
                n, d = 4, 3
                data = dense_dataset(rng.standard_normal((n, d)), np.zeros(n))
                scales = rng.uniform(0.5, 2.0, n)
                r = 1.1
                base = LossSpec(family="monomial", power_r=r, scales=scales)
                powered = LossSpec(
                    family="monomial", power_r=r * p, scales=scales**p
                )
                w = rng.standard_normal(d)
                i = int(rng.integers(n))
                a = sp_step(base, data, w, i, gamma=0.8 / p)
                b = sp_step(powered, data, w, i, gamma=0.8)
                assert_allclose(b.state_after, a.state_after, rtol=1e-10, atol=1e-12)


class TestTapsStep:
    def test_data_branch_worked_example(self):
        spec, data = half_square_1d()
        out = taps_step(taps_state([2.0], [0.0]), spec, data, 0, gamma=1.0)
        st = out.state_after
        assert_allclose(out.polyak_coeff, 0.4, rtol=1e-15)
        assert_allclose(st.alpha, [0.4], rtol=1e-15)
        assert_allclose(st.alpha_bar, 0.4, rtol=1e-15)
        assert_allclose(st.w, [1.2], rtol=1e-15)
        assert st.t == 1

    def test_matched_tracker_is_a_fixed_point(self):
        spec, data = half_square_1d()
        st0 = taps_state([2.0], [2.0])  # alpha_i == f_i(w)
        out = taps_step(st0, spec, data, 0, gamma=1.0)
        assert out.polyak_coeff == 0.0
        assert_array_equal(out.state_after.w, st0.w)
        assert_array_equal(out.state_after.alpha, st0.alpha)

    def test_aggregate_worked_example(self):
        spec, data = half_square_1d()
        data2 = dense_dataset([[1.0], [1.0]], [0.0, 0.0])
        st0 = taps_state([0.5], [1.0, 3.0], tau=0.0)
        out = taps_step(st0, spec, data2, 2, gamma=1.0)
        st = out.state_after
        assert out.polyak_coeff == 0.0
        assert_allclose(st.alpha, [-1.0, 1.0], rtol=1e-15)
        assert st.alpha_bar == 0.0
        assert_array_equal(st.w, st0.w)

    def test_input_state_not_mutated(self):
        spec, data = half_square_1d()
        st0 = taps_state([2.0], [0.0])
        taps_step(st0, spec, data, 0, gamma=1.0)
        assert_array_equal(st0.w, [2.0])
        assert_array_equal(st0.alpha, [0.0])
        assert st0.t == 0

    def test_sampled_index_range(self):
        spec, data = half_square_1d()
        for bad in (-1, 2):
            with pytest.raises(IndexError):
                taps_step(taps_state([2.0], [0.0]), spec, data, bad)

    def test_aggregate_unit_step_lands_on_target(self):
        rng = np.random.default_rng(53)
        spec = LossSpec(family="squared")
        for _ in range(25):
            n = int(rng.integers(2, 8))
            data = dense_dataset(rng.standard_normal((n, 3)), rng.standard_normal(n))
            tau = float(rng.standard_normal())
            st0 = taps_state(rng.standard_normal(3), rng.standard_normal(n), tau=tau)
            st = taps_step(st0, spec, data, n, gamma=1.0).state_after
            assert_allclose(np.mean(st.alpha), tau, rtol=1e-12, atol=1e-12)
            assert_allclose(st.alpha_bar, tau, rtol=1e-12, atol=1e-12)

    def test_unit_step_is_the_joint_projection(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            n, d = 5, 4
            data = dense_dataset(rng.standard_normal((n, d)), rng.standard_normal(n))
            spec = LossSpec(family="logistic", sigma=0.1)
            st0 = taps_state(rng.standard_normal(d), rng.standard_normal(n))
            i = int(rng.integers(n))
            st = taps_step(st0, spec, data, i, gamma=1.0).state_after
            w_proj, alpha_proj = joint_projection_taps(
                st0.w, float(st0.alpha[i]), spec, data, i
            )
            assert_allclose(st.w, w_proj, rtol=1e-10, atol=1e-12)
            assert_allclose(st.alpha[i], alpha_proj, rtol=1e-10, atol=1e-12)

    def test_incremental_mean_stays_consistent(self):
        rng = np.random.default_rng(61)
        n, d = 12, 5
        data = dense_dataset(rng.standard_normal((n, d)), rng.standard_normal(n))
        spec = LossSpec(family="logistic")
        st = taps_state(rng.standard_normal(d), rng.standard_normal(n), tau=0.3)
        for _ in range(300):
            st = taps_step(st, spec, data, int(rng.integers(n + 1)), gamma=0.9).state_after
            drift = abs(st.alpha_bar - float(np.mean(st.alpha)))
            assert drift <= 1e-9 * (1.0 + abs(st.alpha_bar))

    def test_nonfinite_tracker_aborts(self):
        spec, data = half_square_1d()
        st = TapsState(np.array([1.0]), np.array([np.inf]), math.inf, 0.0)
        with pytest.raises(NumericError):
            taps_step(st, spec, data, 1, gamma=1.0)


class TestMotapsStep:
    def test_data_branch_matches_taps_exactly(self):
        rng = np.random.default_rng(67)
        n, d = 5, 3
        data = dense_dataset(rng.standard_normal((n, d)), rng.standard_normal(n))
        spec = LossSpec(family="logistic")
        w0, a0 = rng.standard_normal(d), rng.standard_normal(n)
        for i in range(n):
            t_out = taps_step(taps_state(w0, a0, tau=0.7), spec, data, i, gamma=0.9)
            m_out = motaps_step(
                motaps_state(w0, a0, tau=0.7), spec, data, i,
                gamma=0.9, gamma_tau=0.1, lam=0.0,
            )
            assert_array_equal(m_out.state_after.w, t_out.state_after.w)
            assert_array_equal(m_out.state_after.alpha, t_out.state_after.alpha)
            assert m_out.state_after.alpha_bar == t_out.state_after.alpha_bar
            assert m_out.polyak_coeff == t_out.polyak_coeff

    def test_aggregate_worked_example(self):
        n = 9
        data = dense_dataset(np.eye(n), np.zeros(n))
        spec = LossSpec(family="squared")
        st0 = motaps_state(np.zeros(n), 8.2 * np.ones(n), tau=0.0)
        out = motaps_step(st0, spec, data, n, gamma=1.0, gamma_tau=0.1, lam=0.1)
        st = out.state_after
        assert_allclose(st.tau, 0.81, rtol=1e-14)
        assert_allclose(st.alpha, np.zeros(n), atol=1e-14)
        assert_allclose(st.alpha_bar, 0.0, atol=1e-14)

    def test_matched_state_still_moves_tau(self):
        # two conflicting 1-D samples meet at w*=1 with f_i(w*)=1/2 each;
        # the data branch is a no-op there but the aggregate branch keeps
        # shrinking tau by gamma_tau*lam/(lam+(1-lam)n) * f(w*)
        data = dense_dataset([[1.0], [1.0]], [0.0, 2.0])
        spec = LossSpec(family="squared")
        f_mean = 0.5
        st0 = motaps_state([1.0], [0.5, 0.5], tau=f_mean)
        lam, gamma_tau = 0.3, 0.2
        for i in range(2):
            out = motaps_step(st0, spec, data, i, gamma=0.9, gamma_tau=gamma_tau, lam=lam)
            assert out.polyak_coeff == 0.0
            assert_array_equal(out.state_after.w, st0.w)
        agg = motaps_step(st0, spec, data, 2, gamma=0.9, gamma_tau=gamma_tau, lam=lam)
        expected_drop = gamma_tau * lam / (lam + (1 - lam) * 2) * f_mean
        assert_allclose(agg.state_after.tau, f_mean - expected_drop, rtol=1e-13)
        assert_array_equal(agg.state_after.alpha, st0.alpha)

    def test_lambda_cap_enforced(self):
        spec, data = half_square_1d()
        with pytest.raises(ValueError):
            motaps_step(motaps_state([1.0], [0.0]), spec, data, 0, lam=0.7)

    def test_lambda_max_itself_rejected(self):
        # lambda must lie in [0, lambda_max(n)): the cap itself is out
        spec, data = half_square_1d()
        with pytest.raises(ValueError, match="lambda_max"):
            motaps_step(motaps_state([1.0], [0.0]), spec, data, 0, lam=lambda_max(1))
        below = math.nextafter(lambda_max(1), 0.0)
        motaps_step(motaps_state([1.0], [0.0]), spec, data, 0, lam=below)

    def test_lambda_zero_gap_contraction(self):
        # with lam=0 and gamma_tau = gamma*n the target chases alpha_bar:
        # each aggregate step scales (tau - alpha_bar) by 1 - gamma_tau - gamma
        rng = np.random.default_rng(71)
        n = 5
        gamma = 0.1
        gamma_tau = gamma * n
        data = dense_dataset(rng.standard_normal((n, 2)), rng.standard_normal(n))
        spec = LossSpec(family="squared")
        st = motaps_state(rng.standard_normal(2), rng.standard_normal(n), tau=2.0)
        for _ in range(8):
            gap = st.tau - st.alpha_bar
            st = motaps_step(
                st, spec, data, n, gamma=gamma, gamma_tau=gamma_tau, lam=0.0
            ).state_after
            assert_allclose(
                st.tau - st.alpha_bar, (1.0 - gamma_tau - gamma) * gap, rtol=1e-12
            )

    def test_incremental_mean_stays_consistent(self):
        rng = np.random.default_rng(73)
        n, d = 10, 4
        data = dense_dataset(rng.standard_normal((n, d)), rng.standard_normal(n))
        spec = LossSpec(family="logistic")
        st = motaps_state(rng.standard_normal(d), rng.standard_normal(n), tau=0.5)
        for _ in range(300):
            st = motaps_step(
                st, spec, data, int(rng.integers(n + 1)),
                gamma=0.9, gamma_tau=0.1, lam=0.1,
            ).state_after
            drift = abs(st.alpha_bar - float(np.mean(st.alpha)))
            assert drift <= 1e-9 * (1.0 + abs(st.alpha_bar))


class TestMomentumStep:
    def test_beta_zero_is_plain(self):
        w = np.array([2.0, -1.0])
        z = w.copy()
        d = np.array([1.0, 3.0])
        z1, w1 = momentum_step(z, w, lambda v: d, beta=0.0, gamma=0.5)
        assert_allclose(z1, w - 0.5 * d)
        assert_allclose(w1, z1)

    def test_beta_half_doubles_the_inner_step(self):
        z = np.array([1.0])
        w = np.array([4.0])
        d = np.array([2.0])
        z1, w1 = momentum_step(z, w, lambda v: d, beta=0.5, gamma=0.3)
        assert_allclose(z1, z - 0.6 * d, rtol=1e-15)
        assert_allclose(w1, 0.5 * w + 0.5 * z1, rtol=1e-15)

    def test_zero_direction_averages(self):
        z = np.array([1.0, 0.0])
        w = np.array([0.0, 1.0])
        z1, w1 = momentum_step(z, w, lambda v: np.zeros(2), beta=0.25, gamma=1.0)
        assert_array_equal(z1, z)
        assert_allclose(w1, 0.25 * w + 0.75 * z)

    def test_direction_evaluated_at_w_not_z(self):
        z = np.array([10.0])
        w = np.array([3.0])
        z1, _ = momentum_step(z, w, lambda v: v, beta=0.5, gamma=0.5)
        assert_allclose(z1, z - 1.0 * w)

    def test_beta_bounds(self):
        z = np.zeros(1)
        with pytest.raises(ValueError):
            momentum_step(z, z, lambda v: v, beta=1.0, gamma=0.1)
        with pytest.raises(ValueError):
            momentum_step(z, z, lambda v: v, beta=-0.1, gamma=0.1)


def interpolating_problem(seed=8, n=30, d=5):
    from polyak_opt.data import synth_dataset

    data, w_true = synth_dataset(seed, n, d, "underparam", noise=0.0)
    assert w_true is not None
    return LossSpec(family="squared"), data


class TestRunEpochs:
    def test_epoch_counting(self):
        spec, data = interpolating_problem(n=3, d=2)
        hyper = HyperParams(gamma=0.5)
        recs = run_epochs("sp", spec, data, hyper, epochs=1, seed=0)
        assert len(recs) == 1
        assert recs[0].passes == 1.0  # 3 steps over n=3
        recs = run_epochs("taps", spec, data, hyper, epochs=2, seed=0)
        assert recs[0].passes == 4 / 3  # tracker methods take n+1 steps
        assert recs[1].epoch == 2

    def test_epochs_zero_rejected(self):
        spec, data = half_square_1d()
        with pytest.raises(ValueError):
            run_epochs("sp", spec, data, HyperParams(), epochs=0, seed=0)

    def test_unknown_method(self):
        spec, data = half_square_1d()
        with pytest.raises(ValueError):
            run_epochs("sgd", spec, data, HyperParams(), epochs=1, seed=0)

    def test_determinism(self):
        spec, data = interpolating_problem()
        hyper = HyperParams(gamma=0.9, gamma_tau=0.1, lam=0.1)
        for method in ("sp", "spsmax", "taps", "motaps"):
            a = run_epochs(method, spec, data, hyper, epochs=4, seed=123)
            b = run_epochs(method, spec, data, hyper, epochs=4, seed=123)
            assert a == b
            c = run_epochs(method, spec, data, hyper, epochs=4, seed=124)
            assert a != c

    def test_driver_matches_public_single_steps(self):
        spec, data = interpolating_problem(n=8, d=3)
        n = data.n
        hyper = HyperParams(gamma=0.7)
        seen = []
        run_epochs(
            "taps", spec, data, hyper, epochs=3, seed=5, tau=0.2,
            observer=lambda epoch, st: seen.append(st.w.copy()),
        )
        rng = np.random.default_rng(5)
        st = taps_state(np.zeros(3), np.zeros(n), tau=0.2)
        manual = []
        for _ in range(3):
            for i in rng.integers(0, n + 1, size=n + 1):
                st = taps_step(st, spec, data, int(i), gamma=0.7).state_after
            manual.append(st.w.copy())
        for ours, ref in zip(seen, manual):
            assert_array_equal(ours, ref)

    def test_sp_driver_matches_sp_step(self):
        spec, data = interpolating_problem(n=6, d=3)
        seen = []
        run_epochs(
            "sp", spec, data, HyperParams(gamma=0.8), epochs=2, seed=9,
            observer=lambda epoch, w: seen.append(w.copy()),
        )
        rng = np.random.default_rng(9)
        w = np.zeros(3)
        manual = []
        for _ in range(2):
            for i in rng.integers(0, data.n, size=data.n):
                w = sp_step(spec, data, w, int(i), gamma=0.8).state_after
            manual.append(w.copy())
        for ours, ref in zip(seen, manual):
            assert_array_equal(ours, ref)

    def test_spsmax_cap_binds(self):
        spec, data = interpolating_problem()
        plain = run_epochs("sp", spec, data, HyperParams(gamma=0.9), epochs=2, seed=1)
        capped = run_epochs(
            "spsmax", spec, data, HyperParams(gamma=0.9, step_cap=1e-3), epochs=2, seed=1
        )
        uncapped = run_epochs("spsmax", spec, data, HyperParams(gamma=0.9), epochs=2, seed=1)
        assert plain == uncapped
        assert plain != capped

    def test_sp_ignores_step_cap(self):
        # only spsmax caps: sp with a binding step_cap is sp, in run_epochs,
        # in run_grid, and in agreement with its own SGD view
        data = resolve_dataset("synth:separable:n=50,d=5,seed=1")
        spec = LossSpec(family="logistic")
        capped, plain = HyperParams(step_cap=0.01), HyperParams()
        sp = run_epochs("sp", spec, data, capped, epochs=2, seed=0)
        assert sp == run_epochs("sp", spec, data, plain, epochs=2, seed=0)
        assert sp != run_epochs("spsmax", spec, data, capped, epochs=2, seed=0)
        assert sp == run_epochs_sgd_view("sp", spec, data, capped, epochs=2, seed=0)
        cells = [(0.5, 0.1), (0.9, 0.1)]
        grid = run_grid("sp", spec, data, capped, cells, 2, 0)
        assert grid == run_grid("sp", spec, data, plain, cells, 2, 0)
        assert grid != run_grid("spsmax", spec, data, capped, cells, 2, 0)

    def test_taps_gradient_decay_on_interpolating_data(self):
        spec, data = interpolating_problem()
        initial = float(np.linalg.norm(full_grad(spec, data, np.zeros(data.dim))))
        recs = run_epochs(
            "taps", spec, data, HyperParams(gamma=0.9), epochs=50, seed=0, tau=0.0
        )
        assert recs[-1].grad_norm < initial / 10

    def test_motaps_lambda_cap_checked_up_front(self):
        spec, data = half_square_1d()
        with pytest.raises(ValueError):
            run_epochs("motaps", spec, data, HyperParams(lam=0.7), epochs=1, seed=0)

    def test_lambda_max_itself_rejected_up_front(self):
        spec, data = interpolating_problem(n=8, d=3)
        with pytest.raises(ValueError, match="lambda_max"):
            run_epochs("motaps", spec, data, HyperParams(lam=lambda_max(8)), epochs=1, seed=0)
        # choose_lambda's 0.99 cap always lands inside the admissible range
        lam = choose_lambda(1.0, 1.0, 8, 0.0)
        assert lam < lambda_max(8)
        run_epochs("motaps", spec, data, HyperParams(lam=lam), epochs=1, seed=0)

    def test_fi_star_length_checked(self):
        spec, data = interpolating_problem(n=6, d=3)
        with pytest.raises(ValueError):
            run_epochs(
                "sp", spec, data, HyperParams(), epochs=1, seed=0,
                fi_star=np.zeros(4),
            )

    def test_init_state_used_and_not_mutated(self):
        spec, data = interpolating_problem(n=6, d=3)
        st0 = taps_state(np.full(3, 2.0), np.full(6, 0.5), tau=0.1)
        w_before = st0.w.copy()
        from_zero = run_epochs("taps", spec, data, HyperParams(), epochs=1, seed=3, tau=0.1)
        warm = run_epochs(
            "taps", spec, data, HyperParams(), epochs=1, seed=3, init_state=st0
        )
        assert_array_equal(st0.w, w_before)
        assert st0.t == 0
        assert warm != from_zero

    def test_observer_called_per_epoch(self):
        spec, data = interpolating_problem(n=6, d=3)
        calls = []
        run_epochs(
            "motaps", spec, data, HyperParams(), epochs=4, seed=2,
            observer=lambda epoch, st: calls.append(epoch),
        )
        assert calls == [1, 2, 3, 4]

    def test_divergence_attaches_partial_trace(self):
        # gamma=10 on f(w) = (w-1)^2/2 multiplies the residual by -4 each
        # step, so the iterates overflow after a few hundred epochs
        data = dense_dataset([[1.0]], [1.0])
        spec = LossSpec(family="squared")
        with pytest.raises(NumericError) as exc, np.errstate(all="ignore"):
            run_epochs("sp", spec, data, HyperParams(gamma=10.0), epochs=2000, seed=0)
        assert exc.value.sample_index == 0
        assert 0 < len(exc.value.records) < 2000
        assert exc.value.records[-1].epoch == len(exc.value.records)

    def test_decreasing_schedule_smoke(self):
        spec, data = interpolating_problem(n=6, d=3)
        hyper = HyperParams(lam=0.2, schedule="motaps_decreasing", mu=0.5)
        recs = run_epochs("motaps", spec, data, hyper, epochs=3, seed=0)
        assert len(recs) == 3
        assert all(np.isfinite(r.full_loss) for r in recs)
        with pytest.raises(ValueError):
            HyperParams(schedule="motaps_decreasing", mu=0.0)

    def test_momentum_beta_zero_matches_plain_exactly(self):
        spec, data = interpolating_problem()
        for method in ("sp", "taps", "motaps"):
            plain = run_epochs(method, spec, data, HyperParams(gamma=0.9), epochs=3, seed=7)
            wrapped = run_epochs(
                method, spec, data, HyperParams(gamma=0.9, beta=0.0), epochs=3, seed=7
            )
            assert plain == wrapped

    def test_momentum_run_is_finite_and_different(self):
        spec, data = interpolating_problem()
        plain = run_epochs("sp", spec, data, HyperParams(gamma=0.9), epochs=3, seed=7)
        heavy = run_epochs(
            "sp", spec, data, HyperParams(gamma=0.9, beta=0.5), epochs=3, seed=7
        )
        assert plain != heavy
        assert all(np.isfinite(r.full_loss) for r in heavy)

    def test_epoch_boundary_mean_is_exact(self):
        spec, data = interpolating_problem()
        states = []
        run_epochs(
            "motaps", spec, data, HyperParams(), epochs=3, seed=4,
            observer=lambda epoch, st: states.append(st),
        )
        for st in states:
            assert st.alpha_bar == float(np.mean(st.alpha))


def dense_phi(spec, t, y):
    """φ_i(t) and φ_i′(t) written out for the dense reference: logistic,
    squared, and the monomial family at r = 1 with unit scales and the
    labels as offsets."""
    if spec.family == "logistic":
        with np.errstate(over="ignore"):  # e^yt = inf gives the limit φ′ = -0.0
            return np.logaddexp(0.0, -y * t), -y / (1.0 + np.exp(y * t))
    if spec.family == "squared":
        return 0.5 * (t - y) ** 2, t - y
    assert spec.power_r == 1.0 and spec.offsets is None and spec.scales is None
    return (t - y) ** 2, 2.0 * (t - y)


def dense_reference_run(method, spec, rows, labels, hyper, epochs, seed, tau=0.0):
    """The four methods and sgd (coefficient 1) written out on dense rows,
    one dense gradient per step, with β > 0 as iterate averaging: the
    O(nnz) kernel must land on the same iterate. Returns the final
    (w, alpha, tau) and how many data steps had 1 - gamma*c*sigma <= 0."""
    n, d = rows.shape
    sigma, gamma, gamma_tau, beta = spec.sigma, hyper.gamma, hyper.gamma_tau, hyper.beta
    w, alpha, alpha_bar = np.zeros(d), np.zeros(n), 0.0
    z = w.copy()
    flips = 0
    rng = np.random.default_rng(seed)
    high = n + 1 if method in ("taps", "motaps") else n
    for _ in range(epochs):
        for i in rng.integers(0, high, size=high):
            if i == n:
                delta = gamma * (tau - alpha_bar)
                if method == "motaps":
                    tau = (1 - gamma_tau) * tau + gamma_tau * motaps_tau_coeff(hyper.lam, n) * alpha_bar
                alpha += delta
                alpha_bar += delta
                if beta:
                    w = beta * w + (1.0 - beta) * z
                continue
            x = rows[i]
            phi, dphi = dense_phi(spec, float(x @ w), labels[i])
            f = phi + 0.5 * sigma * float(w @ w)
            g = dphi * x + sigma * w
            gsq = float(g @ g)
            if method == "sgd":
                c = 1.0
            elif method in ("sp", "spsmax"):
                c = 0.0 if gsq <= 1e-30 else f / gsq
                if method == "spsmax":
                    c = min(c, hyper.step_cap)
            else:
                c = (f - alpha[i]) / (gsq + 1.0)
                alpha[i] += gamma * c
                alpha_bar += gamma * c / n
            flips += 1.0 - gamma * c * sigma <= 0.0
            if beta:
                z = z - gamma * c / (1.0 - beta) * g
                w = beta * w + (1.0 - beta) * z
            else:
                w = w - gamma * c * g
        alpha_bar = float(np.mean(alpha))
    return w, alpha, tau, flips


def sparse_problem(seed=3, n=12, d=40, k=4):
    """Logistic rows with k nonzeros each, the first row empty."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((n, d))
    for r in range(1, n):
        rows[r, rng.choice(d, k, replace=False)] = rng.standard_normal(k)
    labels = rng.choice([-1.0, 1.0], size=n)
    return rows, labels, dense_dataset(rows, labels)


class TestStepKernel:
    @pytest.mark.parametrize("sigma", [0.0, 1e-3, 0.5])
    @pytest.mark.parametrize("method", ["sp", "spsmax", "taps", "motaps"])
    def test_matches_dense_reference(self, method, sigma):
        rows, labels, data = sparse_problem()
        spec = LossSpec(family="logistic", sigma=sigma)
        hyper = HyperParams(gamma=0.8, gamma_tau=0.3, lam=0.2,
                            step_cap=0.5 if method == "spsmax" else math.inf)
        final = {}
        run_epochs(method, spec, data, hyper, epochs=6, seed=17, tau=0.1,
                   observer=lambda epoch, st: final.update(st=copy.deepcopy(st)))
        w_ref, alpha_ref, tau_ref, _ = dense_reference_run(
            method, spec, rows, labels, hyper, epochs=6, seed=17, tau=0.1
        )
        st = final["st"]
        if method in ("sp", "spsmax"):
            assert_allclose(st, w_ref, rtol=1e-10, atol=1e-14)
            return
        assert_allclose(st.w, w_ref, rtol=1e-10, atol=1e-14)
        assert_allclose(st.alpha, alpha_ref, rtol=1e-10, atol=1e-14)
        tau = st.tau if method == "motaps" else st.tau_fixed
        assert_allclose(tau, tau_ref, rtol=1e-10)

    def test_scale_collapse_folds_to_the_dense_step(self):
        # gamma*c*sigma >= 1 zeroes or flips the scale of w, so the kernel
        # must apply that step densely, mid-epoch
        rows, labels, data = sparse_problem(seed=5)
        spec = LossSpec(family="logistic", sigma=0.5)
        hyper = HyperParams(gamma=0.95)
        w_ref, _, _, flips = dense_reference_run("sp", spec, rows, labels, hyper, 3, 2)
        assert flips > 0
        final = {}
        run_epochs("sp", spec, data, hyper, epochs=3, seed=2,
                   observer=lambda epoch, w: final.update(w=w.copy()))
        assert_allclose(final["w"], w_ref, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("gamma, expected", [(5.0, [-4.0, 0.0]), (7.5, [-7.0, -1.0])])
    def test_zero_or_negative_scale_single_step(self, gamma, expected):
        # one sparse row x = (1, 0), squared loss with sigma = 0.5 at w = (2, 2):
        # f = 2 + 2 = 4 and g = (3, 1), so c = 0.4; gamma = 5 makes
        # 1 - gamma*c*sigma = 0 and 7.5 makes it -1/2
        data = dense_dataset([[1.0, 0.0]], [0.0])
        spec = LossSpec(family="squared", sigma=0.5)
        out = sp_step(spec, data, np.array([2.0, 2.0]), 0, gamma=gamma)
        assert out.polyak_coeff == pytest.approx(0.4, rel=1e-15)
        dense = np.array([2.0, 2.0]) - gamma * 0.4 * np.array([3.0, 1.0])
        assert_allclose(out.state_after, dense, rtol=1e-15, atol=1e-15)
        assert_allclose(out.state_after, expected, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    @pytest.mark.parametrize("method", ["sp", "spsmax", "taps", "motaps", "sgd"])
    def test_plain_step_is_the_loss_grad_i_step(self, method, sigma):
        # on all-dense rows the data step is in the SGD view's arithmetic: a
        # step built from loss_grad_i's (f_i, g) equals the kernel's bit for bit
        rng = np.random.default_rng(29)
        n, d = 6, 4
        data = dense_dataset(rng.standard_normal((n, d)), rng.choice([-1.0, 1.0], size=n))
        assert data.X.nnz == n * d
        spec = LossSpec(family="logistic", sigma=sigma)
        gamma, gamma_tau, lam, fi_star = 0.8, 0.3, 0.2, 0.01
        cap = 0.05 if method == "spsmax" else math.inf
        w, alpha = rng.standard_normal(d), rng.standard_normal(n)
        capped = 0
        for i in rng.integers(0, n, size=3 * n).tolist():
            fi, g = loss_grad_i(spec, data, w, i)
            gsq = float(g @ g)
            want_alpha = alpha.copy()
            if method == "sgd":
                c = 1.0
            elif method in ("sp", "spsmax"):
                c = 0.0 if gsq <= 1e-30 else min((fi - fi_star) / gsq, cap)
                capped += c == cap
            else:
                c = (fi - alpha[i]) / (gsq + 1.0)
                want_alpha[i] += gamma * c
            want_w = w - gamma * c * g
            if method == "sgd":
                w = sgd_step(spec, data, w, i, 1, schedule="constant", gamma=gamma)
            elif method in ("sp", "spsmax"):
                w = sp_step(spec, data, w, i, gamma=gamma, fi_star=fi_star, step_cap=cap).state_after
            elif method == "taps":
                state = taps_step(taps_state(w, alpha, 0.1), spec, data, i, gamma=gamma).state_after
                w, alpha = state.w, state.alpha
            else:
                state = motaps_step(motaps_state(w, alpha, 0.1), spec, data, i,
                                    gamma=gamma, gamma_tau=gamma_tau, lam=lam).state_after
                w, alpha = state.w, state.alpha
            assert w.tobytes() == want_w.tobytes()
            assert alpha.tobytes() == want_alpha.tobytes()
        assert (capped > 0) == (method == "spsmax")

    def test_dataset_memory_is_order_nnz(self):
        # n = 200, d = 50 000, 5 nonzeros per row: 1 000 nonzeros, where a
        # dense n x d copy alone would take 80 MB
        rng = np.random.default_rng(0)
        d = 50_000
        rows = [SparseVector(np.sort(rng.choice(d, 5, replace=False)), rng.standard_normal(5))
                for _ in range(200)]
        labels = rng.choice([-1.0, 1.0], size=200)
        tracemalloc.start()
        try:
            data = Dataset(rows, labels, dim=d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.n == 200 and data.dim == d and data.X.nnz == 1000
        assert peak < 2 * 2**20


@st.composite
def random_glms(draw, layout):
    """(spec, rows, labels): logistic, squared or monomial (r = 1) with
    σ ∈ {0, 1e-3, 0.5}, on rows that are all dense (entries of magnitude
    0.25 to 2), which take the plain data step, or on sparse rows with an
    empty first row, which take the lazy one at β = 0."""
    family = draw(st.sampled_from(["logistic", "squared", "monomial"]))
    sigma = draw(st.sampled_from([0.0, 1e-3, 0.5]))
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entries = draw(st.lists(st.floats(0.25, 2.0), min_size=n * d, max_size=n * d))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n * d, max_size=n * d))
    rows = (np.array(entries) * np.array(signs)).reshape(n, d)
    if layout == "sparse":
        keep = draw(st.lists(st.booleans(), min_size=n * d, max_size=n * d))
        rows *= np.array(keep).reshape(n, d)
        rows[0] = 0.0
    if family == "logistic":
        labels = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    else:
        labels = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return LossSpec(family=family, sigma=sigma), rows, np.array(labels)


class TestKernelProperties:
    """Two epochs of each method on random GLMs against the dense
    reference and, where it is defined (β = 0, no cap), ``aux``'s SGD
    view, at the tolerances of ``test_matches_dense_reference`` and
    ``test_trace_equivalence``."""

    @pytest.mark.parametrize("method, beta", [(m, b) for m in ("sp", "spsmax", "taps", "motaps")
                                              for b in (0.0, 0.5)] + [("sgd", 0.0)])
    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @settings(max_examples=15)
    @given(glm=st.data(), gamma=st.floats(0.1, 1.0), seed=st.integers(0, 2**16))
    def test_matches_references(self, method, beta, layout, glm, gamma, seed):
        spec, rows, labels = glm.draw(random_glms(layout))
        data = dense_dataset(rows, labels)
        assert (data.X.nnz < data.n * data.dim) == (layout == "sparse")
        if method == "sgd":  # a constant step below 1/L_max, so the run stays bounded
            hyper = HyperParams(gamma=gamma / (1.0 + float(np.max(data.row_sqnorms))))
            records = run_baseline("sgd", spec, data, 2, seed, gamma=hyper.gamma, sgd_schedule="constant")
            w_ref = dense_reference_run("sgd", spec, rows, labels, hyper, 2, seed)[0]
            assert_allclose(records[-1].full_loss, losses.full_loss(spec, data, w_ref), rtol=1e-10)
            assert_allclose(records[-1].grad_norm, float(np.linalg.norm(full_grad(spec, data, w_ref))),
                            rtol=1e-10, atol=1e-14)
            return
        hyper = HyperParams(gamma=gamma, gamma_tau=0.3, lam=0.2, beta=beta,
                            step_cap=0.3 if method == "spsmax" else math.inf)
        final = {}
        records = run_epochs(method, spec, data, hyper, 2, seed, tau=0.1,
                             observer=lambda epoch, state: final.update(state=copy.deepcopy(state)))
        w_ref, alpha_ref, tau_ref, _ = dense_reference_run(method, spec, rows, labels, hyper, 2, seed, tau=0.1)
        state = final["state"]
        if method in ("taps", "motaps"):
            assert_allclose(state.alpha, alpha_ref, rtol=1e-10, atol=1e-14)
            assert_allclose(state.tau if method == "motaps" else state.tau_fixed, tau_ref, rtol=1e-10)
            state = state.w
        assert_allclose(state, w_ref, rtol=1e-10, atol=1e-14)
        if beta or method == "spsmax":
            return
        view = run_epochs_sgd_view(method, spec, data, hyper, 2, seed, tau=0.1)
        for ours, ref in zip(records, view, strict=True):
            for name in ("full_loss", "grad_norm", "aux_value", "growth_ratio"):
                a, b = getattr(ours, name), getattr(ref, name)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (name, a, b)


GRID = [(g, gt) for g in (0.1, 0.7, 1.1) for gt in (1e-3, 0.5)]


class TestRunGrid:
    """``run_grid`` against one ``run_epochs`` per cell: whole last records,
    compared with ``==``."""

    @staticmethod
    def per_cell(method, spec, data, hyper, cells, epochs, seed, **kwargs):
        finals = []
        for g, gt in cells:
            cell = HyperParams(**{**vars(hyper), "gamma": g, "gamma_tau": gt})
            try:
                finals.append(run_epochs(method, spec, data, cell, epochs, seed, **kwargs)[-1])
            except NumericError:
                finals.append(None)
        return finals

    @pytest.mark.parametrize("method", ["sp", "spsmax", "taps", "motaps"])
    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize("variant", [
        dict(sigma=0.0),
        dict(sigma=1e-3, step_cap=0.4),
        dict(sigma=0.5),
        dict(sigma=1e-3, beta=0.5),
        dict(sigma=1e-3, schedule="motaps_decreasing", mu=0.5),
    ])
    def test_records_equal_run_epochs(self, method, layout, variant):
        variant = dict(variant)
        spec = LossSpec(family="logistic", sigma=variant.pop("sigma"))
        if layout == "dense":
            data = dense_dataset(*sparse_problem(seed=4, n=10, d=4, k=4)[:2])
        else:
            data = sparse_problem(seed=4)[2]
        hyper = HyperParams(lam=0.2, **variant)
        args = (method, spec, data, hyper, GRID, 5, 11)
        finals = run_grid(*args, tau=0.05, fi_star=0.01)
        assert None not in finals
        assert finals == self.per_cell(*args, tau=0.05, fi_star=0.01)

    @staticmethod
    def full_or_sparse(layout, scale_row1=1.0):
        """Ten logistic rows: all four entries nonzero on every row ("dense",
        the plain data step), or four of forty with the first row empty
        ("sparse", the lazy data step); row 1 multiplied by ``scale_row1``."""
        rows, labels, _ = sparse_problem(seed=4, n=10, d=4 if layout == "dense" else 40, k=4)
        if layout == "dense":
            rows[0] = 0.5
        rows[1] *= scale_row1
        return dense_dataset(rows, labels)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method", ["sp", "spsmax", "taps", "motaps"])
    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    @pytest.mark.parametrize("spec", [
        LossSpec(family="squared", sigma=1e-3),
        LossSpec(family="monomial", power_r=1.0),
        LossSpec(family="monomial", power_r=0.75, sigma=1e-3),
    ], ids=["squared", "monomial-1", "monomial-0.75"])
    def test_other_families_equal_run_epochs(self, method, layout, beta, spec):
        data = self.full_or_sparse(layout)
        hyper = HyperParams(lam=0.2, beta=beta, step_cap=0.4 if method == "spsmax" else math.inf)
        args = (method, spec, data, hyper, GRID, 5, 11)
        finals = run_grid(*args, tau=0.05, fi_star=0.01)
        assert finals.count(None) < len(GRID)
        assert finals == self.per_cell(*args, tau=0.05, fi_star=0.01)

    @pytest.mark.parametrize("method", ["sp", "spsmax", "taps", "motaps"])
    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    def test_logistic_overflow_cells(self, monkeypatch, method, layout):
        # once the other rows have moved w, row 1 (scaled by 5000) has
        # margins y*t far above 709.78, where math.exp(y*t) overflows and
        # the step falls back to _scalar_phi per cell
        data = self.full_or_sparse(layout, scale_row1=5000.0)
        fallbacks, scalar_phi = [], losses._scalar_phi

        def counting_phi(spec, data, t, i):
            fallbacks.append(t)
            return scalar_phi(spec, data, t, i)

        monkeypatch.setattr(losses, "_scalar_phi", counting_phi)
        hyper = HyperParams(lam=0.2, step_cap=0.4 if method == "spsmax" else math.inf)
        args = (method, LossSpec(family="logistic", sigma=1e-3), data, hyper, GRID, 5, 11)
        finals = run_grid(*args, tau=0.05, fi_star=0.01)
        assert fallbacks and max(map(abs, fallbacks)) > 709.79
        assert None not in finals
        assert finals == self.per_cell(*args, tau=0.05, fi_star=0.01)

    def test_fold_branch_cells(self):
        # the sp steps of test_scale_collapse_folds_to_the_dense_step
        rows, labels, data = sparse_problem(seed=5)
        spec = LossSpec(family="logistic", sigma=0.5)
        cells = [(0.5, 0.1), (0.95, 0.1), (1.1, 0.1)]
        flips = [dense_reference_run("sp", spec, rows, labels, HyperParams(gamma=g), 3, 2)[3]
                 for g, _ in cells]
        assert min(flips) > 0
        args = ("sp", spec, data, HyperParams(), cells, 3, 2)
        assert run_grid(*args) == self.per_cell(*args)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_aborting_cell_is_none(self):
        data = dense_dataset([[1.0], [1.0]], [1.0, 1.0])
        args = ("sp", LossSpec(family="squared"), data, HyperParams(),
                [(0.9, 0.1), (6.0, 0.1), (1.5, 0.1)], 400, 0)
        finals = run_grid(*args)
        assert finals[1] is None and None not in (finals[0], finals[2])
        assert finals == self.per_cell(*args)

    @staticmethod
    def raise_sites():
        """One grid per NumericError raise site of ``_Kernel._coefficient``:
        (method, spec, data, hyper, cells, epochs, keyword arguments, the
        cells whose run aborts, and the message they abort with). The
        comment names the finiteness checks of ``_Batch._coefficient`` that
        catch the aborting cells; all but the first are caught by one alone."""
        squared = LossSpec(family="squared")
        # a monomial loss a(t - b)^2, inf with φ′ = 2e250 at t = 0 on sample 0
        huge = LossSpec(family="monomial", power_r=1.0, offsets=np.array([-1e100, 0.0]),
                        scales=np.array([1e150, 1.0]))
        # a|t - b|^0.1 at t = 0 and b = 5e-324 on sample 0: a finite loss, φ′ = inf
        steep = LossSpec(family="monomial", power_r=0.05, offsets=np.array([5e-324, 1.0]),
                         scales=np.array([1e20, 1.0]))
        empty_first = Dataset([SparseVector([], []), SparseVector([0], [1.0])], [0.0, 1.0], dim=1)
        loss, gnorm, coeff = "non-finite loss/gradient", "gradient norm overflow", "non-finite step coefficient"
        return {
            # f and c: the margin's residual u grows 4× per step at γ = 10,
            # and 0.5u^2 overflows before (0.1u)^2
            "loss": ("sp", squared, dense_dataset([[0.1]], [1.0]), HyperParams(),
                     [(0.9, 0.1), (10.0, 0.1), (1.5, 0.1)], 300, {}, [1], loss),
            # dval: β > 0 takes the plain step, whose g on an empty row is 0
            "dval": ("sp", steep, empty_first, HyperParams(beta=0.5),
                     [(0.9, 0.1), (6.0, 0.1)], 2, {}, [0, 1], loss),
            # gsq: u grows 4× per step at γ = 10, and (10u)^2 overflows
            # before 0.5u^2, so c = f/inf = 0
            "gsq": ("sp", squared, dense_dataset([[10.0]], [1.0]), HyperParams(),
                    [(0.9, 0.1), (10.0, 0.1), (1.5, 0.1)], 300, {}, [1], gnorm),
            # c: the aggregate step at γ = 1 puts α at τ = -1.6e308, and then
            # f - α overflows in the run's last step, so no later check
            # sees the inf coefficient's effect (seed 2 draws 1, then 0)
            "c": ("taps", squared, dense_dataset([[1.0]], [6.4e153]), HyperParams(),
                  [(0.5, 0.1), (1.0, 0.1), (0.25, 0.1)], 1, {"tau": -1.6e308}, [1], coeff),
            # f: ‖g‖² = (2e250 · 1e-280)^2 takes sp's zero-gradient branch, c = 0
            "zero-gradient": ("sp", huge, dense_dataset([[1e-280], [1.0]], [0.0, 1.0]),
                              HyperParams(), [(0.9, 0.1), (6.0, 0.1)], 2, {}, [0, 1], loss),
            # f: the cap makes c = 0.4 finite; u grows 3× per step at γ = 1000,
            # and f overflows at step 325, the run's last
            "cap": ("spsmax", squared, dense_dataset([[0.1]], [1.0]), HyperParams(step_cap=0.4),
                    [(1.0, 0.1), (1000.0, 0.1), (100.0, 0.1)], 325, {}, [1], loss),
        }

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("site", ["loss", "dval", "gsq", "c", "zero-gradient", "cap"])
    def test_numeric_error_sites(self, site):
        method, spec, data, hyper, cells, epochs, kwargs, aborts, message = self.raise_sites()[site]
        finals, errors = [], []
        for g, gt in cells:
            cell = HyperParams(**{**vars(hyper), "gamma": g, "gamma_tau": gt})
            try:
                finals.append(run_epochs(method, spec, data, cell, epochs, 2, **kwargs)[-1])
            except NumericError as err:
                finals.append(None)
                errors.append(str(err))
        assert [r for r, rec in enumerate(finals) if rec is None] == aborts
        assert all(err.startswith(message) for err in errors)
        grid = run_grid(method, spec, data, hyper, cells, epochs, 2, **kwargs)
        # repr, since a surviving cell's huge iterate can give a NaN growth ratio
        assert list(map(repr, grid)) == list(map(repr, finals))

    def test_arguments_checked(self):
        spec, data = interpolating_problem(n=4, d=2)
        with pytest.raises(ValueError, match="gamma_tau"):
            run_grid("taps", spec, data, HyperParams(), [(0.5, 0.1), (0.5, 2.0)], 1, 0)
        with pytest.raises(ValueError, match="unknown method"):
            run_grid("sgd", spec, data, HyperParams(), [(0.5, 0.1)], 1, 0)
        with pytest.raises(ValueError, match="lambda"):
            run_grid("motaps", spec, data, HyperParams(lam=0.99), [(0.5, 0.1)], 1, 0)
        assert run_grid("sp", spec, data, HyperParams(), [], 2, 0) == []


class TestHyperParamsValidation:
    def test_rejections(self):
        for kwargs in (
            dict(gamma=0.0),
            dict(gamma=math.inf),
            dict(gamma_tau=1.5),
            dict(gamma_tau=-0.1),
            dict(lam=1.0),
            dict(beta=1.0),
            dict(step_cap=0.0),
            dict(schedule="linear"),
        ):
            with pytest.raises(ValueError):
                HyperParams(**kwargs)

    def test_defaults(self):
        h = HyperParams()
        assert (h.gamma, h.gamma_tau, h.lam) == (0.9, 0.1, 0.1)
        assert h.beta == 0.0 and math.isinf(h.step_cap)
