"""Acceptance suite: one test per numbered contract, C01 through C14.

Each test exercises a mathematical or operational contract of the library
end to end at its stated tolerance and prints exactly one line

    C<k> PASS|FAIL  <what was measured>

so the suite's terminal output doubles as a checklist (run with ``-rA`` or
``-s`` to see the lines for passing tests too). The tests are independent
and deterministic: every problem instance is seeded, and runtime-bounded
criteria assert their wall-clock budget as part of the check.

C08 starts motaps at the oracle point, as C07 does for taps, so its tail
residual is the lambda-dependent bias of the fixed point rather than the
cold-start transient. From z0 = 0 that transient decays at a rate
proportional to lambda and still dominates at 500 epochs, which hides the
ordering (see the C08 docstring for the measured numbers).
"""

import math
import time
from functools import lru_cache

import numpy as np

from polyak_opt.aux import (
    aux_value_motaps,
    aux_value_sp,
    aux_value_taps,
    growth_check,
    joint_projection_taps,
    kkt_projection,
    mean_grad_motaps,
    mean_grad_sp,
    mean_grad_taps,
    run_epochs_sgd_view,
)
from polyak_opt.baselines import run_baseline
from polyak_opt.cli import main
from polyak_opt.data import Dataset, synth_dataset
from polyak_opt.losses import (
    LossSpec,
    full_grad,
    full_loss,
    loss_grad_i,
    optimum_oracle,
    smoothness_constants,
)
from polyak_opt.polyak import (
    HyperParams,
    TrackerState,
    decreasing_schedule,
    lambda_max,
    motaps_step,
    motaps_stepsizes,
    run_epochs,
    sp_step,
    taps_step,
)
from polyak_opt.traces import TraceRecord


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag} {'PASS' if ok else 'FAIL'}  {detail}")


def random_problem(rng, n, d, family_idx):
    """One random (spec, data) pair, cycling the loss families."""
    family = ("squared", "logistic", "monomial")[family_idx % 3]
    sigma = (0.0, 0.3)[family_idx % 2]
    if family == "logistic":
        labels = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
        spec = LossSpec("logistic", sigma)
    elif family == "squared":
        labels = rng.standard_normal(n)
        spec = LossSpec("squared", sigma)
    else:
        labels = rng.standard_normal(n)
        scales = np.exp(rng.uniform(-1.0, 1.0, n))
        spec = LossSpec("monomial", sigma, power_r=rng.uniform(0.6, 1.4), scales=scales)
    return spec, Dataset(rng.standard_normal((n, d)), labels)


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def fold_max(*devs):
    """Largest deviation, NaN if any is NaN (the builtin max drops a NaN
    that is not its first argument)."""
    return float(np.max(devs))


def fd_gradient(func, x, h_scale=1e-6):
    """Central finite differences of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for j in range(len(x)):
        h = h_scale * max(1.0, abs(x[j]))
        up, dn = x.copy(), x.copy()
        up[j] += h
        dn[j] -= h
        out[j] = (func(up) - func(dn)) / (2.0 * h)
    return out


# ---------------------------------------------------------------------------
# shared problem instances


@lru_cache(maxsize=1)
def interpolating_ls():
    """Interpolating regularized least squares with known per-sample
    constants: f_i(w) = 0.5(x_i.w)^2 + (sigma/2)|w|^2 has its common
    minimizer at w* = 0, per-sample strong convexity mu_i = sigma (the
    quadratic term is rank one), and per-sample smoothness L_i =
    |x_i|^2 + sigma."""
    rng = np.random.default_rng(2024)
    n = d = 20
    sigma = 0.5
    data = Dataset(rng.standard_normal((n, d)), np.zeros(n))
    spec = LossSpec("squared", sigma)
    l_i, _ = smoothness_constants(spec, data)
    mu_i = np.full(n, sigma)
    return spec, data, mu_i, l_i


@lru_cache(maxsize=1)
def residual_ls():
    """Underparametrized least squares (n=50, d=5) whose targets are the
    component of a random vector orthogonal to the column span, scaled to
    unit RMS: the minimizer is w* = 0 with f* = 1/2 exactly, so the whole
    optimal point z* = (w*, f_i(w*), f*) is known in closed form. Row norms
    0.5 keep the smoothness mild; the certificate supplies mu."""
    rng = np.random.default_rng(11)
    n, d = 50, 5
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    X *= 0.5
    u = rng.standard_normal(n)
    Q, _ = np.linalg.qr(X)
    resid = u - Q @ (Q.T @ u)
    y = resid / np.sqrt(np.mean(resid**2))
    data = Dataset(X, y)
    spec = LossSpec("squared", 0.0)
    cert = optimum_oracle(spec, data)
    return spec, data, cert


def motaps_distance_sq(state, cert):
    return float(
        np.sum((state.w - cert.w_star) ** 2)
        + np.sum((state.alpha - cert.fi_star) ** 2)
        + (state.tau - cert.f_star) ** 2
    )


# ---------------------------------------------------------------------------
# criteria


def test_c01_growth_equalities_sp_taps():
    """Gradient-growth equality at the anchor for sp and taps:
    ratio = 1 within 1e-12 over 1000 random states, under 5 s."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    count = 0
    while count < 1000:
        n = int(rng.choice([1, 5, 50]))
        d = int(rng.choice([1, 10]))
        spec, data = random_problem(rng, n, d, count)
        w = rng.standard_normal(d)
        fi_stars = rng.standard_normal(n)
        _, _, ratio = growth_check("sp", w, spec, data, fi_stars=fi_stars)
        worst = fold_max(worst, abs(ratio - 1.0))
        alpha = rng.standard_normal(n)
        state = TrackerState(w, alpha, float(np.mean(alpha)), rng.standard_normal())
        _, _, ratio = growth_check("taps", state, spec, data)
        worst = fold_max(worst, abs(ratio - 1.0))
        count += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    report("C01", ok, f"sp/taps growth equality: worst |ratio-1|={worst:.3e} "
                      f"tol=1e-12 over 1000 states in {elapsed:.2f}s (<5s)")
    assert ok


def test_c02_growth_inequality_motaps():
    """Gradient-growth bound for motaps: ratio <= 1 + 1e-12 over 1000
    random states with lambda ~ U[0, lambda_max(n)], and again with
    lambda = lambda_max(n) exactly. Under 5 s."""
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = -math.inf
    for count in range(1000):
        n = int(rng.choice([1, 5, 50]))
        d = int(rng.choice([1, 10]))
        spec, data = random_problem(rng, n, d, count)
        w = rng.standard_normal(d)
        alpha = rng.standard_normal(n)
        state = TrackerState(w, alpha, float(np.mean(alpha)), rng.standard_normal())
        for lam in (rng.uniform(0.0, lambda_max(n)), lambda_max(n)):
            hyper = HyperParams(lam=lam)
            _, _, ratio = growth_check("motaps", state, spec, data, hyper=hyper)
            worst = fold_max(worst, ratio)
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 + 1e-12 and elapsed < 5.0
    report("C02", ok, f"motaps growth bound: worst ratio={worst:.15f} "
                      f"tol=1+1e-12 over 1000 states (incl. lambda_max) in "
                      f"{elapsed:.2f}s (<5s)")
    assert ok


def test_c03_projection_equivalences():
    """taps_step at gamma=1 == joint closed-form projection == stacked
    least-norm KKT solve, max deviation <= 1e-8 over 500 instances."""
    rng = np.random.default_rng(103)
    worst = 0.0
    for count in range(500):
        n = int(rng.integers(1, 8))
        d = int(rng.integers(1, 6))
        spec, data = random_problem(rng, n, d, count)
        w = rng.standard_normal(d)
        alpha = rng.standard_normal(n)
        i = int(rng.integers(0, n))
        state = TrackerState(w, alpha, float(np.mean(alpha)), 0.0)
        stepped = taps_step(state, spec, data, i, gamma=1.0).state_after
        w_proj, a_proj = joint_projection_taps(w, float(alpha[i]), spec, data, i)
        fi, g = loss_grad_i(spec, data, w, i)
        stacked = kkt_projection(
            np.append(w, alpha[i]), np.append(g, -1.0), float(g @ w) - fi
        )
        for other_w, other_a in (
            (w_proj, a_proj),
            (stacked[:d], float(stacked[d])),
        ):
            worst = fold_max(
                worst,
                float(np.max(np.abs(stepped.w - other_w))),
                abs(float(stepped.alpha[i]) - other_a),
            )
    ok = worst <= 1e-8
    report("C03", ok, f"projection equivalences: max deviation={worst:.3e} "
                      f"tol=1e-8 over 500 instances")
    assert ok


def test_c04_sgd_viewpoint_trace_equality():
    """20-epoch traces from the optimizer steps and from explicit SGD on
    the surrogate components agree to 1e-10 in every recorded field."""
    data, _ = synth_dataset(5, 12, 6, "underparam", noise=0.3)
    spec = LossSpec("squared", 0.2)
    cert = optimum_oracle(spec, data)
    runs = {
        "sp": dict(hyper=HyperParams(gamma=0.5), kwargs={}),
        "taps": dict(hyper=HyperParams(gamma=0.9), kwargs=dict(tau=0.37)),
        "motaps": dict(
            hyper=HyperParams(gamma=0.9, gamma_tau=0.1, lam=0.1), kwargs={}
        ),
    }
    worst = 0.0
    for method, cfg in runs.items():
        a = run_epochs(method, spec, data, cfg["hyper"], 20, 77, cert, **cfg["kwargs"])
        b = run_epochs_sgd_view(
            method, spec, data, cfg["hyper"], 20, 77, cert, **cfg["kwargs"]
        )
        assert len(a) == len(b) == 20
        for ra, rb in zip(a, b):
            for field in TraceRecord.__dataclass_fields__:
                va, vb = getattr(ra, field), getattr(rb, field)
                if va is None or vb is None:
                    assert va is None and vb is None
                else:
                    worst = fold_max(worst, rel_err(float(va), float(vb)))
    ok = worst <= 1e-10
    report("C04", ok, f"sgd-view trace equality (sp/taps/motaps, 20 epochs): "
                      f"worst rel dev={worst:.3e} tol=1e-10")
    assert ok


def test_c05_sp_linear_rate_single_step():
    """Mean one-step contraction of sp on the interpolating problem is
    within 3 standard errors of the 1 - gamma*(1/2n)*sum(mu_i/L_i)
    rate, for gamma in {0.5, 1}; under 10 s."""
    spec, data, mu_i, l_i = interpolating_ls()
    n, d = data.n, data.dim
    rate_term = float(np.sum(mu_i / l_i)) / (2 * n)
    w0 = np.random.default_rng(12).standard_normal(d)
    w0 /= np.linalg.norm(w0)
    start = time.perf_counter()
    lines = []
    ok = True
    for gamma in (0.5, 1.0):
        draws = np.random.default_rng(7).integers(0, n, 2000)
        ratios = np.empty(2000)
        for k, i in enumerate(draws):
            w1 = sp_step(spec, data, w0, int(i), gamma=gamma).state_after
            ratios[k] = float(w1 @ w1)  # |w0| = 1, w* = 0
        mean = float(np.mean(ratios))
        se = float(np.std(ratios, ddof=1)) / math.sqrt(len(ratios))
        bound = 1.0 - gamma * rate_term + 3.0 * se
        ok = ok and mean <= bound
        lines.append(f"gamma={gamma}: mean={mean:.4f} <= bound={bound:.4f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report("C05", ok, f"sp one-step rate: {'; '.join(lines)} "
                      f"(2000 draws each, {elapsed:.2f}s <10s)")
    assert ok


def test_c06_sp_loss_decrease_over_epochs():
    """Same problem, gamma=0.5, 200 epochs: the running minimum of the
    5-seed mean of f(w)-f* shrinks by at least 50x from epoch 1."""
    spec, data, _, _ = interpolating_ls()
    w0 = np.random.default_rng(12).standard_normal(data.dim)
    w0 /= np.linalg.norm(w0)  # start away from the minimizer at the origin
    losses = np.zeros((5, 200))
    for s in range(5):
        records = run_epochs(
            "sp", spec, data, HyperParams(gamma=0.5), 200, 300 + s, init_state=w0
        )
        losses[s] = [r.full_loss for r in records]  # f* = 0
    mean_curve = losses.mean(axis=0)
    running_min = np.minimum.accumulate(mean_curve)
    factor = float(mean_curve[0] / running_min[-1])
    ok = factor >= 50.0
    report("C06", ok, f"sp epoch decrease: min-so-far shrank {factor:.3g}x "
                      f"from epoch 1 to 200 (need >=50x)")
    assert ok


def test_c07_taps_fixed_point():
    """taps initialized at the oracle point (w*, alpha_i = f_i(w*),
    tau = f*) moves no coordinate by more than 1e-12 in 10 epochs."""
    data, _ = synth_dataset(9, 15, 6, "underparam", noise=0.4)
    spec = LossSpec("squared", 0.3)
    cert = optimum_oracle(spec, data)
    init = TrackerState(
        cert.w_star.copy(), cert.fi_star.copy(), cert.f_star, cert.f_star
    )
    moved = [0.0]

    def observer(_epoch, state):
        moved[0] = fold_max(
            moved[0],
            float(np.max(np.abs(state.w - cert.w_star))),
            float(np.max(np.abs(state.alpha - cert.fi_star))),
        )

    run_epochs(
        "taps", spec, data, HyperParams(gamma=0.9), 10, 13,
        init_state=init, observer=observer,
    )
    ok = moved[0] <= 1e-12
    report("C07", ok, f"taps fixed point: max coordinate move={moved[0]:.3e} "
                      f"tol=1e-12 over 10 epochs")
    assert ok


def test_c08_motaps_lambda_residual_tradeoff():
    """motaps residual trade-off at the analysis step sizes: started at the
    oracle point z* = (w*, f_i(w*), f*) and run for 500 epochs, the
    tail-averaged |z-z*|^2 (last 50 epochs, 5 seeds) is strictly
    decreasing as lambda descends {0.5, 0.1, 0.01}, with the lambda=0.01
    residual at most a fifth of the lambda=0.5 one.

    The warm start isolates the lambda-bias. z* is not a fixed point of
    motaps when f* > 0: the target update shrinks alpha_bar by
    c = motaps_tau_coeff(lambda, n), so the mean update settles at
    w = w*, tau = c*alpha_bar and alpha_i = f_i(w*) - delta(|grad f_i(w*)|^2
    + 1) with delta = (1-c)*alpha_bar. Its squared distance from z* is
    7.96e-3 / 1.06e-4 / 8.86e-7 for the three lambdas, about 100x per
    step. Warm-started runs climb towards it from 0: the 500-epoch tails
    are 7.475e-3 / 7.784e-5 / 6.099e-7, and by 2000 epochs they are within
    2% of the closed form.

    From a cold start (z0 = 0) the same 500-epoch protocol measures
    1.078 / 2.213 / 2.593, inverted. The tail is then still the transient:
    its w block is about 0.17 at every lambda, the alpha block holds the
    rest (0.897 / 2.036 / 2.417), and along the tracker-consistent manifold
    the only restoring force is the lambda-weighted target term, so the
    slow mode decays at a rate proportional to 1-c ~ lambda/((1-lambda)n).
    No horizon within the test budget shows the bias ordering from there.
    """
    spec, data, cert = residual_ls()
    n = data.n
    assert cert.f_star > 0.1  # genuinely non-interpolating
    lams = (0.5, 0.1, 0.01)
    epochs, tail_len = 500, 50
    init = TrackerState(
        cert.w_star.copy(), cert.fi_star.copy(), cert.f_star, cert.f_star
    )
    res = {}
    for lam in lams:
        gamma, gamma_tau = motaps_stepsizes(lam, n, preset="half")
        hyper = HyperParams(gamma=gamma, gamma_tau=gamma_tau, lam=lam)
        seed_means = []
        for seed in range(5):
            tails = []

            def observer(epoch, state):
                if epoch > epochs - tail_len:
                    tails.append(motaps_distance_sq(state, cert))

            run_epochs("motaps", spec, data, hyper, epochs, 800 + seed,
                       init_state=init, observer=observer)
            seed_means.append(float(np.mean(tails)))
        res[lam] = float(np.mean(seed_means))
    ordered = res[0.5] > res[0.1] > res[0.01]
    five_fold = res[0.01] <= res[0.5] / 5.0
    ok = ordered and five_fold
    report("C08", ok, "motaps lambda trade-off from z*: tail residuals "
                      f"lam=0.5:{res[0.5]:.3e} lam=0.1:{res[0.1]:.3e} "
                      f"lam=0.01:{res[0.01]:.3e}; need strictly decreasing "
                      f"and res(0.01)<=res(0.5)/5={res[0.5] / 5.0:.3e}")
    assert ok, (
        "the lambda-bias of the motaps fixed point does not shrink with "
        f"lambda (measured {res[0.5]:.3e} / {res[0.1]:.3e} / {res[0.01]:.3e} "
        "for lambda = 0.5 / 0.1 / 0.01)"
    )


def test_c09_decreasing_schedule_contracts():
    """Same problem, lambda=0.1, decreasing schedule driven by the oracle
    strong-convexity constant: the 5-seed mean of |z-z*|^2 after 20000
    steps is at most half its value after 2000 steps."""
    spec, data, cert = residual_ls()
    n = data.n
    lam, mu = 0.1, cert.mu
    assert mu > 0.0
    at_2000, at_20000 = [], []
    for seed in range(5):
        rng = np.random.default_rng(900 + seed)
        state = TrackerState(np.zeros(data.dim), np.zeros(n), 0.0, 0.0)
        for t in range(20000):
            g_t = decreasing_schedule(t, lam, mu, n)
            i = int(rng.integers(0, n + 1))
            state = motaps_step(
                state, spec, data, i, gamma=g_t, gamma_tau=g_t, lam=lam
            ).state_after
            if t == 1999:
                at_2000.append(motaps_distance_sq(state, cert))
        at_20000.append(motaps_distance_sq(state, cert))
    ratio = float(np.mean(at_20000) / np.mean(at_2000))
    ok = ratio <= 0.5
    report("C09", ok, f"decreasing schedule: |z-z*|^2 ratio "
                      f"T=20000/T=2000 = {ratio:.4f} (need <=0.5, "
                      f"mu={mu:.4f})")
    assert ok


def test_c10_sp_invariances():
    """sp is invariant under per-sample scaling c_i f_i (identical
    iterates, surrogate values and growth ratios to 1e-12) and obeys the
    power rule: one step on f^p at gamma equals one step on f at gamma/p
    to 1e-10 for p in {2, 3}."""
    # scaling invariance along a 15-epoch run on interpolating data
    data, w_true = synth_dataset(3, 12, 5, "underparam", noise=0.0)
    assert w_true is not None
    scales = np.tile([0.01, 1.0, 100.0], 4)
    base = LossSpec("monomial", 0.0, power_r=1.0)
    scaled = LossSpec("monomial", 0.0, power_r=1.0, scales=scales)
    iterates = {}
    traces = {}
    for name, spec in (("base", base), ("scaled", scaled)):
        snaps = []
        traces[name] = run_epochs(
            "sp", spec, data, HyperParams(gamma=0.7), 15, 21,
            observer=lambda _e, w: snaps.append(w.copy()),
        )
        iterates[name] = snaps
    worst_scale = 0.0
    for wa, wb in zip(iterates["base"], iterates["scaled"]):
        worst_scale = fold_max(worst_scale, float(np.max(np.abs(wa - wb))))
    for ra, rb in zip(traces["base"], traces["scaled"]):
        worst_scale = fold_max(worst_scale, rel_err(ra.aux_value, rb.aux_value))
        worst_scale = fold_max(worst_scale, rel_err(ra.growth_ratio, rb.growth_ratio))

    # power rule on single monomial steps, margins kept away from zero
    rng = np.random.default_rng(104)
    worst_power = 0.0
    for _ in range(30):
        n, d = 6, 4
        prob = Dataset(rng.standard_normal((n, d)), np.zeros(n))
        w = rng.standard_normal(d)
        margins = prob.X @ w
        shift = np.where(rng.standard_normal(n) > 0, 1.0, -1.0) * rng.uniform(0.4, 1.5, n)
        offsets = margins + shift
        r = float(rng.choice([0.6, 1.0, 1.4]))
        a = np.exp(rng.uniform(-0.5, 0.5, n))
        i = int(rng.integers(0, n))
        for p in (2, 3):
            spec_base = LossSpec("monomial", 0.0, power_r=r, offsets=offsets, scales=a)
            spec_pow = LossSpec(
                "monomial", 0.0, power_r=r * p, offsets=offsets, scales=a**p
            )
            w_pow = sp_step(spec_pow, prob, w, i, gamma=0.8).state_after
            w_base = sp_step(spec_base, prob, w, i, gamma=0.8 / p).state_after
            worst_power = fold_max(worst_power, float(np.max(np.abs(w_pow - w_base))))
    ok = worst_scale <= 1e-12 and worst_power <= 1e-10
    report("C10", ok, f"sp invariances: scaling dev={worst_scale:.3e} "
                      f"(tol 1e-12), power-rule dev={worst_power:.3e} "
                      f"(tol 1e-10)")
    assert ok


def test_c11_motaps_surrogate_value_at_optimum():
    """The motaps surrogate at the oracle point equals
    lambda f*^2 / (2(n+1)) to 1e-12 for lambda in {0.1, 0.5} and
    n in {5, 50}."""
    worst = 0.0
    for seed, n, d in ((31, 5, 3), (32, 50, 7)):
        data, _ = synth_dataset(seed, n, d, "underparam", noise=0.5)
        spec = LossSpec("squared", 0.2)
        cert = optimum_oracle(spec, data)
        for lam in (0.1, 0.5):
            ev = aux_value_motaps(
                cert.w_star, cert.fi_star, cert.f_star, cert.w_star, spec, data, lam
            )
            expected = lam * cert.f_star**2 / (2 * (n + 1))
            worst = fold_max(worst, rel_err(ev.h_value, expected))
    ok = worst <= 1e-12
    report("C11", ok, f"motaps surrogate value at optimum: worst rel "
                      f"dev={worst:.3e} tol=1e-12")
    assert ok


def test_c12_gradient_checks():
    """Every analytic gradient (per-sample and full losses; sp, taps and
    motaps surrogate means) matches central finite differences to 1e-5
    relative over 100 random instances each."""
    rng = np.random.default_rng(105)

    def check(g, fd):
        err = float(np.linalg.norm(np.asarray(g) - fd))
        return err / max(1.0, float(np.linalg.norm(g)))

    worst = {"loss_i": 0.0, "full": 0.0, "sp": 0.0, "taps": 0.0, "motaps": 0.0}
    for count in range(100):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 5))
        spec, data = random_problem(rng, n, d, count)
        if spec.family == "monomial":
            # keep margins off the kink so the loss is differentiable
            w_ref = rng.standard_normal(d)
            shift = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
            offsets = data.X @ w_ref + shift * rng.uniform(0.5, 1.5, n)
            spec = LossSpec(
                spec.family, spec.sigma, power_r=max(spec.power_r, 0.75),
                offsets=offsets, scales=spec.scales,
            )
            w = w_ref + 0.05 * rng.standard_normal(d)
        else:
            w = rng.standard_normal(d)
        i = int(rng.integers(0, n))
        worst["loss_i"] = fold_max(
            worst["loss_i"],
            check(
                loss_grad_i(spec, data, w, i)[1],
                fd_gradient(lambda v: loss_grad_i(spec, data, v, i)[0], w),
            ),
        )
        worst["full"] = fold_max(
            worst["full"],
            check(full_grad(spec, data, w), fd_gradient(lambda v: full_loss(spec, data, v), w)),
        )
        w_t = w + 0.1 * rng.standard_normal(d)
        fi_stars = rng.standard_normal(n)
        alpha = rng.standard_normal(n)
        tau = float(rng.standard_normal())
        lam = float(rng.uniform(0.0, 0.8))
        worst["sp"] = fold_max(
            worst["sp"],
            check(
                mean_grad_sp(w, w_t, spec, data, fi_stars),
                fd_gradient(lambda v: aux_value_sp(v, w_t, spec, data, fi_stars).h_value, w),
            ),
        )
        worst["taps"] = fold_max(
            worst["taps"],
            check(
                mean_grad_taps(w, alpha, w_t, spec, data, tau),
                fd_gradient(
                    lambda v: aux_value_taps(v[:d], v[d:], w_t, spec, data, tau).h_value,
                    np.concatenate([w, alpha]),
                ),
            ),
        )
        worst["motaps"] = fold_max(
            worst["motaps"],
            check(
                mean_grad_motaps(w, alpha, tau, w_t, spec, data, lam),
                fd_gradient(
                    lambda v: aux_value_motaps(
                        v[:d], v[d:-1], float(v[-1]), w_t, spec, data, lam
                    ).h_value,
                    np.concatenate([w, alpha, [tau]]),
                ),
            ),
        )
    worst_all = fold_max(*worst.values())
    ok = worst_all <= 1e-5
    detail = " ".join(f"{k}={v:.2e}" for k, v in worst.items())
    report("C12", ok, f"gradient checks (100 instances each): {detail} "
                      f"tol=1e-5")
    assert ok


def test_c13_harness_grid_and_verify(tmp_path):
    """The sweep harness finishes the 7x7 grid on the separable synthetic
    problem (n=100, d=20, sigma=0) in under 60 s with 49 result rows,
    repeat runs are byte-identical, and the self-check command exits 0."""
    out_a, out_b = tmp_path / "grid_a.csv", tmp_path / "grid_b.csv"
    argv = [
        "grid", "--method", "motaps",
        "--dataset", "synth:separable:n=100,d=20",
        "--epochs", "50",
    ]
    start = time.perf_counter()
    rc_a = main(argv + ["--out", str(out_a)])
    rc_b = main(argv + ["--out", str(out_b)])
    elapsed = time.perf_counter() - start
    lines = out_a.read_text().splitlines()
    data_rows = [ln for ln in lines[1:] if not ln.startswith("#")]
    identical = out_a.read_bytes() == out_b.read_bytes()
    rc_verify = main(["verify"])
    ok = (
        rc_a == 0 and rc_b == 0 and rc_verify == 0
        and len(data_rows) == 49 and identical and elapsed < 60.0
    )
    report("C13", ok, f"harness: grid rc={rc_a}/{rc_b} rows={len(data_rows)} "
                      f"byte-identical={identical} verify rc={rc_verify} "
                      f"elapsed={elapsed:.1f}s (<60s)")
    assert ok


def test_c14_baseline_sanity():
    """On the strongly convex logistic problem (sigma = 1/n), sag and
    svrg at gamma = 1/(2 L_max) reach grad_norm <= 1e-6 within 100
    epochs; sgd with the decaying preset never gets there."""
    data, _ = synth_dataset(0, 100, 20, "separable")
    spec = LossSpec("logistic", sigma=1.0 / data.n)
    finals = {}
    reached = {}
    for method in ("sag", "svrg", "sgd"):
        records = run_baseline(method, spec, data, 100, 1)
        finals[method] = records[-1].grad_norm
        reached[method] = min(r.grad_norm for r in records) <= 1e-6
    ok = reached["sag"] and reached["svrg"] and not reached["sgd"]
    report("C14", ok, f"baselines: final grad norms sag={finals['sag']:.2e} "
                      f"svrg={finals['svrg']:.2e} (need <=1e-6) "
                      f"sgd={finals['sgd']:.2e} (must stay above)")
    assert ok
