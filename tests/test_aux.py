"""Surrogate objectives, their gradients and growth identities, projection
oracles, the explicit-SGD view of each method, and the fault-injection
self-test of the verification machinery."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from polyak_opt.aux import (
    aux_value_motaps,
    aux_value_sp,
    aux_value_taps,
    growth_check,
    growth_ratio,
    inject_tau_gradient_fault,
    joint_projection_taps,
    kkt_projection,
    mean_grad_motaps,
    mean_grad_sp,
    mean_grad_taps,
    project_hyperplane,
    run_epochs_sgd_view,
    sgd_view_motaps_step,
    sgd_view_sp_step,
    sgd_view_taps_step,
    star_convexity_probe,
)
from polyak_opt.data import Dataset, synth_dataset
from polyak_opt.losses import (
    LossSpec,
    batch_eval,
    loss_grad_i,
    optimum_oracle,
)
from polyak_opt.polyak import (
    HyperParams,
    TrackerState,
    lambda_max,
    motaps_step,
    run_epochs,
    taps_step,
)


def random_problem(rng, n=6, d=4, sigma=0.15):
    data = Dataset(rng.standard_normal((n, d)), rng.standard_normal(n))
    return LossSpec(family="logistic", sigma=sigma), data


class TestGrowthRatio:
    def test_cases(self):
        assert growth_ratio(0.0, 0.0) == 1.0
        assert growth_ratio(3.0, 2.0) == 1.5
        assert growth_ratio(1.0, 0.0) == np.inf


class TestProjectHyperplane:
    def test_axis_projection(self):
        assert_array_equal(project_hyperplane([3.0, 4.0], [1.0, 0.0], 0.0), [0.0, 4.0])

    def test_symmetric_projection(self):
        assert_array_equal(project_hyperplane([0.0, 0.0], [1.0, 1.0], 2.0), [1.0, 1.0])

    def test_zero_normal_returns_input(self):
        x0 = np.array([1.0, 2.0])
        out = project_hyperplane(x0, np.zeros(2), 5.0)
        assert_array_equal(out, x0)
        assert out is not x0

    def test_constraint_satisfied(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            d = int(rng.integers(1, 9))
            x0, a = rng.standard_normal(d), rng.standard_normal(d)
            b = float(rng.standard_normal())
            x = project_hyperplane(x0, a, b)
            assert abs(float(a @ x) - b) <= 1e-10 * max(1.0, abs(b))

    def test_matches_kkt_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            d = int(rng.integers(1, 9))
            x0, a = rng.standard_normal(d), rng.standard_normal(d)
            b = float(rng.standard_normal())
            assert_allclose(
                project_hyperplane(x0, a, b), kkt_projection(x0, a, b),
                rtol=1e-8, atol=1e-10,
            )


class TestJointProjection:
    def test_satisfied_constraint_is_identity(self):
        rng = np.random.default_rng(7)
        spec, data = random_problem(rng)
        w = rng.standard_normal(data.dim)
        fi, _ = loss_grad_i(spec, data, w, 2)
        w2, a2 = joint_projection_taps(w, fi, spec, data, 2)
        assert_array_equal(w2, w)
        assert a2 == fi

    def test_quadratic_worked_example(self):
        data = Dataset([[1.0]], [0.0])
        spec = LossSpec(family="squared")
        w2, a2 = joint_projection_taps(np.array([2.0]), 0.0, spec, data, 0)
        assert_allclose(w2, [1.2], rtol=1e-15)
        assert_allclose(a2, 0.4, rtol=1e-15)

    def test_matches_stacked_hyperplane_projection(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            spec, data = random_problem(rng)
            w = rng.standard_normal(data.dim)
            alpha_i = float(rng.standard_normal())
            i = int(rng.integers(data.n))
            fi, g = loss_grad_i(spec, data, w, i)
            # linearized constraint over the stacked (w, alpha) variable:
            # <g, w'> - alpha' = <g, w> - f_i(w)
            stacked = project_hyperplane(
                np.append(w, alpha_i), np.append(g, -1.0), float(g @ w) - fi
            )
            w2, a2 = joint_projection_taps(w, alpha_i, spec, data, i)
            assert_allclose(np.append(w2, a2), stacked, rtol=1e-12, atol=1e-12)


class TestAuxValueSp:
    def test_quadratic_component(self):
        data = Dataset([[1.0]], [0.0])
        spec = LossSpec(family="squared")
        w = np.array([2.0])
        ev = aux_value_sp(w, w, spec, data, [0.0])
        assert_allclose(ev.component_values, [0.5], rtol=1e-15)
        assert ev.h_value == 0.5
        assert ev.component_values.shape == (1,)

    def test_zero_at_interpolation(self):
        data, _ = synth_dataset(8, 20, 4, "underparam", noise=0.0)
        spec = LossSpec(family="squared")
        cert = optimum_oracle(spec, data)
        ev = aux_value_sp(cert.w_star, cert.w_star, spec, data, np.zeros(data.n))
        assert ev.h_value < 1e-25

    def test_dead_gradient_component_dropped(self):
        data = Dataset([[1.0], [0.0]], [0.0, 0.0])
        spec = LossSpec(family="squared")
        w = np.array([3.0])
        ev = aux_value_sp(w, w, spec, data, np.zeros(2))
        assert ev.component_values[1] == 0.0
        assert ev.component_grad_sqnorms[1] == 0.0
        assert np.isfinite(ev.h_value)

    def test_growth_equality_at_anchor(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            spec, data = random_problem(rng)
            w = rng.standard_normal(data.dim)
            stars = rng.standard_normal(data.n) * 0.1
            ev = aux_value_sp(w, w, spec, data, stars)
            assert abs(growth_ratio(ev.growth_lhs, ev.growth_rhs) - 1.0) <= 1e-12

    def test_mean_identity(self):
        rng = np.random.default_rng(17)
        spec, data = random_problem(rng)
        ev = aux_value_sp(
            rng.standard_normal(data.dim), rng.standard_normal(data.dim),
            spec, data, np.zeros(data.n),
        )
        assert_allclose(ev.h_value, np.mean(ev.component_values), rtol=1e-12)

    def test_scaling_invariance(self):
        # replacing f_i by c_i f_i (targets scaled along) leaves the
        # surrogate value unchanged
        rng = np.random.default_rng(19)
        n, d = 5, 3
        data = Dataset(rng.standard_normal((n, d)), np.zeros(n))
        scales = rng.uniform(0.5, 2.0, n)
        c = rng.uniform(0.2, 5.0, n)
        base = LossSpec(family="monomial", power_r=1.2, scales=scales)
        scaled = LossSpec(family="monomial", power_r=1.2, scales=c * scales)
        w = rng.standard_normal(d)
        w_t = rng.standard_normal(d)
        stars = 0.5 * batch_eval(base, data, w).values
        a = aux_value_sp(w, w_t, base, data, stars)
        b = aux_value_sp(w, w_t, scaled, data, c * stars)
        assert_allclose(b.h_value, a.h_value, rtol=1e-12)
        assert_allclose(b.component_values, a.component_values, rtol=1e-12)

    def test_star_length_checked(self):
        rng = np.random.default_rng(23)
        spec, data = random_problem(rng)
        with pytest.raises(ValueError):
            aux_value_sp(np.zeros(data.dim), np.zeros(data.dim), spec, data, [0.0])


class TestAuxValueTaps:
    def test_worked_example(self):
        data = Dataset([[1.0]], [0.0])
        spec = LossSpec(family="squared")
        w = np.array([2.0])
        ev = aux_value_taps(w, [0.0], w, spec, data, 0.0)
        assert_allclose(ev.component_values, [0.4, 0.0], rtol=1e-15)
        assert_allclose(ev.h_value, 0.2, rtol=1e-15)

    def test_zero_at_matched_state(self):
        rng = np.random.default_rng(29)
        spec, data = random_problem(rng)
        w = rng.standard_normal(data.dim)
        alpha = batch_eval(spec, data, w).values
        ev = aux_value_taps(w, alpha, w, spec, data, float(np.mean(alpha)))
        assert ev.h_value == 0.0
        assert_array_equal(ev.component_values, np.zeros(data.n + 1))

    def test_growth_equality_at_anchor(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            spec, data = random_problem(rng)
            w = rng.standard_normal(data.dim)
            alpha = rng.standard_normal(data.n)
            tau = float(rng.standard_normal())
            ev = aux_value_taps(w, alpha, w, spec, data, tau)
            assert abs(growth_ratio(ev.growth_lhs, ev.growth_rhs) - 1.0) <= 1e-12

    def test_mean_identity_and_shape(self):
        rng = np.random.default_rng(37)
        spec, data = random_problem(rng)
        ev = aux_value_taps(
            rng.standard_normal(data.dim), rng.standard_normal(data.n),
            rng.standard_normal(data.dim), spec, data, 0.3,
        )
        assert ev.component_values.shape == (data.n + 1,)
        assert_allclose(ev.h_value, np.mean(ev.component_values), rtol=1e-12)


class TestAuxValueMotaps:
    def test_lemma_value_at_solution(self):
        data, _ = synth_dataset(10, 25, 5, "underparam", noise=0.5)
        spec = LossSpec(family="squared", sigma=0.2)
        cert = optimum_oracle(spec, data)
        assert cert.f_star > 0.0
        for lam in (0.1, 0.4, 0.8):
            ev = aux_value_motaps(
                cert.w_star, cert.fi_star, cert.f_star, cert.w_star, spec, data, lam
            )
            expected = lam * cert.f_star**2 / (2.0 * (data.n + 1))
            assert_allclose(ev.h_value, expected, rtol=1e-12)

    def test_lambda_zero_matches_taps_values(self):
        # the objective loses its dampening at lambda=0; the stacked
        # gradient space still contains tau, so only values coincide
        rng = np.random.default_rng(41)
        spec, data = random_problem(rng)
        w, w_t = rng.standard_normal(data.dim), rng.standard_normal(data.dim)
        alpha = rng.standard_normal(data.n)
        tau = 0.7
        a = aux_value_taps(w, alpha, w_t, spec, data, tau)
        b = aux_value_motaps(w, alpha, tau, w_t, spec, data, 0.0)
        assert_allclose(b.component_values, a.component_values, rtol=1e-15, atol=1e-15)
        assert_allclose(b.h_value, a.h_value, rtol=1e-15)

    def test_growth_bound_random_sweep(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            d = int(rng.integers(1, 5))
            data = Dataset(rng.standard_normal((n, d)), rng.standard_normal(n))
            spec = LossSpec(family="squared", sigma=float(rng.uniform(0.0, 0.5)))
            lam = float(rng.uniform(0.0, lambda_max(n)))
            w = rng.standard_normal(d)
            ev = aux_value_motaps(
                w, rng.standard_normal(n), float(rng.standard_normal()),
                w, spec, data, lam,
            )
            assert growth_ratio(ev.growth_lhs, ev.growth_rhs) <= 1.0 + 1e-12

    def test_lambda_validated(self):
        rng = np.random.default_rng(47)
        spec, data = random_problem(rng)
        z = np.zeros(data.dim)
        for lam in (-0.1, 1.0):
            with pytest.raises(ValueError):
                aux_value_motaps(z, np.zeros(data.n), 0.0, z, spec, data, lam)


def fd_gradient(fun, x, h=1e-6):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros(x.size)
    for j in range(x.size):
        step = h * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += step
        xm[j] -= step
        g[j] = (fun(xp) - fun(xm)) / (2.0 * step)
    return g


class TestMeanGradients:
    def test_sp_matches_finite_differences(self):
        rng = np.random.default_rng(53)
        for spec_family in ("logistic", "squared"):
            spec = LossSpec(family=spec_family, sigma=0.2)
            data = Dataset(rng.standard_normal((6, 4)), rng.standard_normal(6))
            w_t = rng.standard_normal(4)
            w = rng.standard_normal(4)
            stars = 0.1 * rng.standard_normal(6)
            grad = mean_grad_sp(w, w_t, spec, data, stars)
            approx = fd_gradient(
                lambda v: aux_value_sp(v, w_t, spec, data, stars).h_value, w
            )
            assert np.linalg.norm(grad - approx) <= 1e-5 * max(1.0, np.linalg.norm(grad))

    def test_taps_matches_finite_differences(self):
        rng = np.random.default_rng(59)
        spec = LossSpec(family="logistic", sigma=0.3)
        data = Dataset(rng.standard_normal((5, 3)), rng.standard_normal(5))
        w_t = rng.standard_normal(3)
        w = rng.standard_normal(3)
        alpha = rng.standard_normal(5)
        tau = 0.4
        grad = mean_grad_taps(w, alpha, w_t, spec, data, tau)

        def h_of(stacked):
            return aux_value_taps(stacked[:3], stacked[3:], w_t, spec, data, tau).h_value

        approx = fd_gradient(h_of, np.concatenate([w, alpha]))
        assert np.linalg.norm(grad - approx) <= 1e-5 * max(1.0, np.linalg.norm(grad))

    def test_motaps_matches_finite_differences(self):
        rng = np.random.default_rng(61)
        spec = LossSpec(family="squared", sigma=0.1)
        data = Dataset(rng.standard_normal((5, 3)), rng.standard_normal(5))
        w_t = rng.standard_normal(3)
        point = np.concatenate([rng.standard_normal(3), rng.standard_normal(5), [0.6]])
        lam = 0.3
        grad = mean_grad_motaps(
            point[:3], point[3:8], float(point[8]), w_t, spec, data, lam
        )

        def h_of(stacked):
            return aux_value_motaps(
                stacked[:3], stacked[3:8], float(stacked[8]), w_t, spec, data, lam
            ).h_value

        approx = fd_gradient(h_of, point)
        assert np.linalg.norm(grad - approx) <= 1e-5 * max(1.0, np.linalg.norm(grad))

    def test_motaps_rejects_lambda_outside_unit_interval(self):
        spec, data = LossSpec(family="squared"), Dataset([[1.0], [2.0]], [0.0, 1.0])
        for lam in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match=r"^lambda must lie in \[0, 1\)$"):
                mean_grad_motaps(np.zeros(1), np.zeros(2), 0.0, np.zeros(1), spec, data, lam)


class TestGrowthCheck:
    def test_sp_accepts_bare_weights(self):
        rng = np.random.default_rng(67)
        spec, data = random_problem(rng)
        w = rng.standard_normal(data.dim)
        lhs, rhs, ratio = growth_check("sp", w, spec, data)
        assert abs(ratio - 1.0) <= 1e-12
        assert lhs > 0.0 and rhs > 0.0

    def test_taps_equality(self):
        rng = np.random.default_rng(71)
        spec, data = random_problem(rng)
        st = TrackerState(
            rng.standard_normal(data.dim), rng.standard_normal(data.n), 0.0, 0.5
        )
        _, _, ratio = growth_check("taps", st, spec, data)
        assert abs(ratio - 1.0) <= 1e-12

    def test_motaps_bound(self):
        rng = np.random.default_rng(73)
        spec, data = random_problem(rng)
        hyper = HyperParams(lam=0.4)
        st = TrackerState(
            rng.standard_normal(data.dim), rng.standard_normal(data.n), 0.0, 0.2
        )
        _, _, ratio = growth_check("motaps", st, spec, data, hyper=hyper)
        assert ratio <= 1.0 + 1e-12

    def test_motaps_needs_lambda(self):
        rng = np.random.default_rng(73)
        spec, data = random_problem(rng)
        st = TrackerState(
            rng.standard_normal(data.dim), rng.standard_normal(data.n), 0.0, 0.2
        )
        with pytest.raises(ValueError, match="lambda"):
            growth_check("motaps", st, spec, data)

    def test_stationary_state_ratio_is_one(self):
        data = Dataset([[1.0]], [0.0])
        spec = LossSpec(family="squared")
        lhs, rhs, ratio = growth_check("sp", np.zeros(1), spec, data)
        assert (lhs, rhs, ratio) == (0.0, 0.0, 1.0)

    def test_unknown_method(self):
        rng = np.random.default_rng(79)
        spec, data = random_problem(rng)
        with pytest.raises(ValueError):
            growth_check("sag", np.zeros(data.dim), spec, data)


class TestStarConvexityProbe:
    def test_zero_at_coincident_points(self):
        z = np.array([1.0, 2.0])
        assert star_convexity_probe(0.3, 0.3, np.array([0.5, -0.5]), z, z) == 0.0

    def test_convex_quadratics_nonnegative(self):
        rng = np.random.default_rng(83)
        data, _ = synth_dataset(12, 20, 4, "underparam", noise=0.0)
        spec = LossSpec(family="squared")
        cert = optimum_oracle(spec, data)
        stars = np.zeros(data.n)
        h_star = aux_value_sp(cert.w_star, cert.w_star, spec, data, stars)
        for _ in range(200):
            w_t = rng.standard_normal(data.dim)
            ev = aux_value_sp(w_t, w_t, spec, data, stars)
            h_at_star = aux_value_sp(cert.w_star, w_t, spec, data, stars).h_value
            grad = mean_grad_sp(w_t, w_t, spec, data, stars)
            margin = star_convexity_probe(ev.h_value, h_at_star, grad, w_t, cert.w_star)
            assert margin >= -1e-10

    def test_concave_monomial_falsified(self):
        # 2r = 0.4 makes f_i^2 = |u|^0.8 strictly concave away from its
        # root, so the inequality must fail somewhere
        rng = np.random.default_rng(89)
        w_star = np.array([0.5, -1.0])
        rows = rng.standard_normal((3, 2))
        data = Dataset(rows, np.zeros(3))
        spec = LossSpec(
            family="monomial", power_r=0.2, offsets=rows @ w_star
        )
        stars = np.zeros(3)
        found_negative = False
        for _ in range(50):
            w_t = rng.standard_normal(2)
            ev = aux_value_sp(w_t, w_t, spec, data, stars)
            h_at_star = aux_value_sp(w_star, w_t, spec, data, stars).h_value
            grad = mean_grad_sp(w_t, w_t, spec, data, stars)
            if star_convexity_probe(ev.h_value, h_at_star, grad, w_t, w_star) < -1e-12:
                found_negative = True
                break
        assert found_negative


class TestSgdViewSteps:
    def test_sp_view_equals_sp_step(self):
        rng = np.random.default_rng(97)
        spec, data = random_problem(rng)
        from polyak_opt.polyak import sp_step

        w = rng.standard_normal(data.dim)
        for i in range(data.n):
            ours = sgd_view_sp_step(spec, data, w, i, 0.7, fi_star=0.05)
            ref = sp_step(spec, data, w, i, gamma=0.7, fi_star=0.05).state_after
            assert_allclose(ours, ref, rtol=1e-12, atol=1e-14)

    def test_taps_view_equals_taps_step(self):
        rng = np.random.default_rng(101)
        spec, data = random_problem(rng)
        n = data.n
        w0 = rng.standard_normal(data.dim)
        a0 = rng.standard_normal(n)
        tau = 0.3
        for i in range(n + 1):
            st0 = TrackerState(w0.copy(), a0.copy(), float(np.mean(a0)), tau)
            ref = taps_step(st0, spec, data, i, gamma=0.8).state_after
            w2, a2 = sgd_view_taps_step(w0, a0, spec, data, i, 0.8, tau)
            assert_allclose(w2, ref.w, rtol=1e-12, atol=1e-14)
            assert_allclose(a2, ref.alpha, rtol=1e-12, atol=1e-14)

    def test_motaps_view_equals_motaps_step(self):
        rng = np.random.default_rng(103)
        spec, data = random_problem(rng)
        n = data.n
        w0 = rng.standard_normal(data.dim)
        a0 = rng.standard_normal(n)
        tau = 0.4
        for lam, gamma, gamma_tau in [(0.1, 0.9, 0.1), (0.5, 0.3, 0.7), (0.0, 1.0, 0.2)]:
            for i in range(n + 1):
                st0 = TrackerState(w0.copy(), a0.copy(), float(np.mean(a0)), tau)
                ref = motaps_step(
                    st0, spec, data, i, gamma=gamma, gamma_tau=gamma_tau, lam=lam
                ).state_after
                w2, a2, t2 = sgd_view_motaps_step(
                    w0, a0, tau, spec, data, i, gamma, gamma_tau, lam
                )
                assert_allclose(w2, ref.w, rtol=1e-12, atol=1e-14)
                assert_allclose(a2, ref.alpha, rtol=1e-12, atol=1e-14)
                assert_allclose(t2, ref.tau, rtol=1e-12, atol=1e-14)

    def test_trace_equivalence(self):
        data, _ = synth_dataset(5, 12, 4, "underparam", noise=0.2)
        spec = LossSpec(family="squared", sigma=0.1)
        hyper = HyperParams(gamma=0.9, gamma_tau=0.1, lam=0.1)
        for method in ("sp", "taps", "motaps"):
            ours = run_epochs_sgd_view(
                method, spec, data, hyper, epochs=3, seed=11, tau=0.05
            )
            ref = run_epochs(method, spec, data, hyper, epochs=3, seed=11, tau=0.05)
            assert len(ours) == len(ref)
            for a, b in zip(ours, ref):
                for name in ("full_loss", "grad_norm", "aux_value", "growth_ratio"):
                    va, vb = getattr(a, name), getattr(b, name)
                    assert abs(va - vb) <= 1e-12 * max(1.0, abs(vb)), (method, name)

    def test_sp_trace_on_dense_rows_is_the_view_bit_for_bit(self):
        # on all-dense rows the kernel steps in the reference arithmetic: an sp
        # trajectory near a sample's stationary point amplifies any rounding
        # difference, and the view must then agree exactly, not to roundoff
        rng = np.random.default_rng(131)
        for sigma in (0.0, 0.3):
            spec, data = random_problem(rng, n=5, d=3, sigma=sigma)
            hyper = HyperParams(gamma=0.7)
            ours = run_epochs_sgd_view("sp", spec, data, hyper, epochs=4, seed=3)
            assert ours == run_epochs("sp", spec, data, hyper, epochs=4, seed=3)

    def test_view_driver_rejects_momentum_and_caps(self):
        rng = np.random.default_rng(107)
        spec, data = random_problem(rng)
        with pytest.raises(ValueError):
            run_epochs_sgd_view(
                "taps", spec, data, HyperParams(beta=0.5), epochs=1, seed=0
            )
        with pytest.raises(ValueError):
            run_epochs_sgd_view(
                "spsmax", spec, data, HyperParams(step_cap=0.5), epochs=1, seed=0
            )
        with pytest.raises(ValueError):
            run_epochs_sgd_view("adam", spec, data, HyperParams(), epochs=1, seed=0)


class TestFaultInjection:
    def test_tau_gradient_breaks_under_fault(self):
        rng = np.random.default_rng(109)
        spec = LossSpec(family="squared", sigma=0.1)
        data = Dataset(rng.standard_normal((5, 3)), rng.standard_normal(5))
        w_t = rng.standard_normal(3)
        point = np.concatenate([rng.standard_normal(3), rng.standard_normal(5), [0.8]])
        lam = 0.4

        def h_of(stacked):
            return aux_value_motaps(
                stacked[:3], stacked[3:8], float(stacked[8]), w_t, spec, data, lam
            ).h_value

        approx = fd_gradient(h_of, point)

        def analytic():
            return mean_grad_motaps(
                point[:3], point[3:8], float(point[8]), w_t, spec, data, lam
            )

        clean_err = np.linalg.norm(analytic() - approx)
        with inject_tau_gradient_fault():
            faulted_err = np.linalg.norm(analytic() - approx)
        restored_err = np.linalg.norm(analytic() - approx)
        scale = max(1.0, float(np.linalg.norm(approx)))
        assert clean_err / scale <= 1e-5
        assert faulted_err / scale > 1e-3
        assert restored_err == clean_err

    def test_aggregate_step_breaks_under_fault(self):
        rng = np.random.default_rng(113)
        spec, data = random_problem(rng)
        n = data.n
        w0 = rng.standard_normal(data.dim)
        a0 = rng.standard_normal(n)
        st0 = TrackerState(w0.copy(), a0.copy(), float(np.mean(a0)), 0.9)
        ref = motaps_step(st0, spec, data, n, gamma=0.9, gamma_tau=0.3, lam=0.4)
        with inject_tau_gradient_fault():
            _, _, tau_bad = sgd_view_motaps_step(
                w0, a0, 0.9, spec, data, n, 0.9, 0.3, 0.4
            )
        assert abs(tau_bad - ref.state_after.tau) > 1e-6
