import math
import warnings

import numpy as np
import pytest

from cadrepair import diffusion
from cadrepair.config import ModelTraining, RunConfig
from cadrepair.diffusion import (
    build_schedule,
    chain_constants,
    consistency_grad,
    infeasibility_grad,
    sample,
    sample_step,
)
from cadrepair.nets import (
    CLASSIFIER_HIDDEN,
    DENOISER_HIDDEN,
    TIMESTEP_EMBED_DIM,
    LinearRegressor,
    Mlp,
    OutputActivation,
    init_mlp,
    mlp_forward,
    mlp_grad_input,
    timestep_embedding,
    train_denoiser,
)
from cadrepair.pipeline import CHAIN_BLOCK

DEFAULT = build_schedule(100, 1e-4, 0.02)
UNGUIDED = [(None, None)]
# the default run's guidance: both scales 10, stop_gradient_y off
CFG = RunConfig()


def scales(classifier_scale, regressor_scale, stop_gradient_y=False, T=100):
    return RunConfig(
        timesteps=T,
        classifier_scale=classifier_scale,
        regressor_scale=regressor_scale,
        stop_gradient_y=stop_gradient_y,
    )


def step(z_t, t, eps_hat, noise, classifier=None, regressor=None, cfg=CFG):
    """sample_step on one latent (d,) of a one-plan, one-row stack; returns (d,)."""
    chain = chain_constants([(classifier, regressor)], cfg)
    noise = None if noise is None else np.asarray(noise, dtype=float)[None]
    return sample_step(np.asarray(z_t, dtype=float)[None, None], t, eps_hat, noise, chain)[0, 0]


def step_bound(regressor):
    """1 / lambda_max of the self-consistency loss's Hessian 2 (W - I)^T (W - I):
    1 / (2 ||W - I||_2^2), the cap on a regressor guide's step."""
    w_minus_i = regressor.weights - np.eye(len(regressor.weights))
    return 1.0 / (2.0 * np.linalg.norm(w_minus_i, 2) ** 2)


def posterior_mean(z_t, t, eps_hat):
    """The unguided step without noise: the posterior mean at every t."""
    return step(z_t, t, eps_hat, np.zeros(np.shape(z_t)))


# ---------------------------------------------------------------- schedule


def test_schedule_monotonicity():
    sched = DEFAULT
    assert (np.diff(sched.betas) > 0).all()
    assert 0 < sched.betas[0] < sched.betas[-1] < 1
    assert (np.diff(sched.alpha_bars) < 0).all()
    assert (sched.posterior_variance >= 0).all()
    assert sched.posterior_variance[0] == 0.0  # final-step convention


def test_schedule_first_alpha_bar():
    assert DEFAULT.alpha_bars[0] == 1.0 - DEFAULT.betas[0]


def test_schedule_terminal_alpha_bar_oracle():
    # independent product evaluation of the default linear schedule
    oracle = 1.0
    for beta in np.linspace(1e-4, 0.02, 100):
        oracle *= 1.0 - beta
    assert math.isclose(DEFAULT.alpha_bars[-1], oracle, rel_tol=1e-12)
    assert math.isclose(oracle, 0.3635632480554922, rel_tol=1e-12)


def test_posterior_variance_bounded_by_beta():
    sched = DEFAULT
    assert (sched.posterior_variance <= sched.betas + 1e-18).all()


# ---------------------------------------------------------------- posterior mean


def forward_diffuse(z0, t, eps, sched):
    """Sample of q(z_t | z0) at noise eps, the formula train_denoiser noises with."""
    ab = sched.alpha_bars[t - 1]
    return math.sqrt(ab) * z0 + math.sqrt(1.0 - ab) * eps


def test_posterior_mean_zero_eps_hat():
    z_t = np.linspace(-2, 2, 21)
    mu = posterior_mean(z_t, 10, np.zeros(21))
    np.testing.assert_allclose(mu, z_t / math.sqrt(DEFAULT.alphas[9]), atol=1e-15)


def test_posterior_mean_step_bounds():
    with pytest.raises(ValueError, match=r"step 0 outside \[1, 100\]"):
        posterior_mean(np.zeros(21), 0, np.zeros(21))
    with pytest.raises(ValueError, match=r"step 101 outside \[1, 100\]"):
        posterior_mean(np.zeros(21), 101, np.zeros(21))


def test_posterior_mean_recovers_z0_at_t1():
    rng = np.random.default_rng(2)
    z0 = rng.normal(size=21)
    eps = rng.standard_normal(21)
    z1 = forward_diffuse(z0, 1, eps, DEFAULT)
    mu = posterior_mean(z1, 1, eps)
    np.testing.assert_allclose(mu, z0, atol=1e-10)


def two_point_posterior_mean(z0, z_t, t, sched):
    ab_t = sched.alpha_bars[t - 1]
    ab_prev = 1.0 if t == 1 else sched.alpha_bars[t - 2]
    beta = sched.betas[t - 1]
    alpha = sched.alphas[t - 1]
    coef0 = math.sqrt(ab_prev) * beta / (1.0 - ab_t)
    coef_t = math.sqrt(alpha) * (1.0 - ab_prev) / (1.0 - ab_t)
    return coef0 * z0 + coef_t * z_t


def test_posterior_mean_matches_two_point_formula():
    rng = np.random.default_rng(3)
    for t in (1, 2, 17, 50, 100):
        z0 = rng.normal(size=21)
        eps = rng.standard_normal(21)
        z_t = forward_diffuse(z0, t, eps, DEFAULT)
        np.testing.assert_allclose(
            posterior_mean(z_t, t, eps),
            two_point_posterior_mean(z0, z_t, t, DEFAULT),
            atol=1e-10,
        )


# ---------------------------------------------------------------- guides


def one_dim_classifier(w=1.0, b=0.0):
    return Mlp([np.array([[w]])], [np.array([b])], OutputActivation.SIGMOID)


def shift(z_t, classifier=None, regressor=None, cfg=CFG):
    """What the guides add to the final (noiseless) step's mean at z_t."""
    eps_hat = np.zeros(np.shape(z_t))
    return step(z_t, 1, eps_hat, None, classifier, regressor, cfg) - posterior_mean(
        z_t, 1, eps_hat
    )


def guide_grad(z, classifier=None, regressor=None, stop_gradient_y=False):
    """The gradient of the one guide entry that a (classifier, regressor) plan
    gets at the default scales, evaluated at z."""
    chain = chain_constants([(classifier, regressor)], scales(10.0, 10.0, stop_gradient_y))
    (grad, _, _), = chain.guides
    return grad(np.asarray(z, dtype=float))


def self_consistency_loss(regressor, z):
    residual = regressor.weights @ z + regressor.bias - z
    return float(residual @ residual)


def _fd_grad(fn, x, h):
    grad = np.zeros_like(x)
    for i in range(len(x)):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fn(up) - fn(down)) / (2.0 * h)
    return grad


def test_classifier_guide_zero_scale_bitwise():
    # a zero-scale guide is left out of the chain, so its gradient never runs
    rng = np.random.default_rng(0)
    clf = init_mlp([21, 4, 1], OutputActivation.SIGMOID, rng)
    zero = RunConfig(classifier_scale=0.0)
    assert chain_constants([(clf, None)], zero).guides == ()
    z_t, eps_hat, noise = rng.normal(size=(3, 21))
    np.testing.assert_array_equal(
        step(z_t, 40, eps_hat, noise, clf, None, zero), step(z_t, 40, eps_hat, noise)
    )


def test_classifier_guide_one_dimensional_case():
    clf = one_dim_classifier()
    out = guide_grad(np.array([0.0]), clf)
    # sigmoid slope at 0 is 1/4: infeasibility gradient -0.25
    np.testing.assert_allclose(out, [-0.25], atol=1e-14)


def test_classifier_guide_increases_feasibility_first_order():
    rng = np.random.default_rng(4)
    clf = init_mlp([6, 16, 1], OutputActivation.SIGMOID, rng)
    small = scales(1e-4, 0.0)
    for _ in range(20):
        z = rng.normal(size=6)
        if np.linalg.norm(mlp_grad_input(clf, z)) < 1e-9:
            continue
        stepped = z + shift(z, clf, None, small)
        assert mlp_forward(clf, stepped)[0][0] >= mlp_forward(clf, z)[0][0] - 1e-12


def test_regressor_guide_zero_scale_and_identity():
    rng = np.random.default_rng(1)
    z_t, eps_hat, noise = rng.normal(size=(3, 21))
    plain = step(z_t, 40, eps_hat, noise)
    identity = LinearRegressor(np.eye(21), np.zeros(21))
    zero = RunConfig(regressor_scale=0.0)
    assert chain_constants([(None, identity)], zero).guides == ()
    np.testing.assert_array_equal(step(z_t, 40, eps_hat, noise, None, identity, zero), plain)
    # the identity map has zero self-consistency loss and zero gradient
    assert self_consistency_loss(identity, z_t) == 0.0
    for stop_gradient_y in (False, True):
        grad = guide_grad(z_t[None], None, identity, stop_gradient_y)
        np.testing.assert_array_equal(grad, np.zeros((1, 21)))


def test_regressor_guide_one_dimensional_case():
    # W = 0, b = 1 at z = 0: loss 1, gradient 2 (Wz + b - z)(W - 1) = -2
    reg = LinearRegressor(np.array([[0.0]]), np.array([1.0]))
    assert self_consistency_loss(reg, np.array([0.0])) == 1.0
    out = guide_grad(np.array([0.0]), None, reg)
    np.testing.assert_allclose(out, [-2.0], atol=1e-14)


def test_regressor_guide_stop_gradient_variant():
    rng = np.random.default_rng(5)
    reg = LinearRegressor(rng.normal(size=(4, 4)), rng.normal(size=4))
    z = rng.normal(size=4)
    full = guide_grad(z, None, reg, stop_gradient_y=False)
    stopped = guide_grad(z, None, reg, stop_gradient_y=True)
    y = reg.weights @ z + reg.bias
    np.testing.assert_allclose(stopped, 2.0 * (z - y), atol=1e-12)
    assert not np.allclose(full, stopped)


def test_regressor_guide_matches_finite_differences():
    rng = np.random.default_rng(4)
    reg = LinearRegressor(rng.normal(size=(6, 6)), rng.normal(size=6))
    for _ in range(100):
        z = rng.normal(size=6)
        analytic = guide_grad(z, None, reg)
        numeric = _fd_grad(lambda v: self_consistency_loss(reg, v), z, h=1e-4)
        err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert err < 1e-8


def test_regressor_guide_matches_finite_differences_per_row_of_a_stack():
    # two plans of five rows each, one regressor: every row of the stack gets
    # its own gradient
    rng = np.random.default_rng(14)
    reg = LinearRegressor(rng.normal(size=(6, 6)), rng.normal(size=6))
    z = rng.normal(size=(2, 5, 6))
    chain = chain_constants([(None, reg), (None, reg)], scales(0.0, 1.0))
    (gradient, _, rows), = chain.guides
    np.testing.assert_array_equal(rows, [0, 1])
    grad = gradient(z[rows])
    for p in range(2):
        for i in range(5):
            numeric = _fd_grad(lambda v: self_consistency_loss(reg, v), z[p, i], h=1e-4)
            err = np.linalg.norm(grad[p, i] - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert err < 1e-8


def test_regressor_guide_needs_a_square_regressor():
    reg = LinearRegressor(np.zeros((3, 21)), np.zeros(3))
    with pytest.raises(ValueError, match="square regressor"):
        chain_constants([(None, reg)], CFG)


def test_chain_constants_guide_table():
    # one entry per distinct model, classifiers first, each stepped at its
    # scale times beta_t, a regressor's capped at 1 / lambda_max; a zero-scale
    # guide has no entry
    rng = np.random.default_rng(19)
    clf, reg = _toy_guides(rng)
    other_clf, _ = _toy_guides(rng)
    plans = [(None, reg), (clf, reg), (other_clf, None), (clf, None)]
    cases = [
        (scales(2.0, 3.0, T=7), [(clf, 2.0, [1, 3]), (other_clf, 2.0, [2]), (reg, 3.0, [0, 1])]),
        (scales(0.0, 3.0, T=7), [(reg, 3.0, [0, 1])]),
        (scales(2.0, 0.0, T=7), [(clf, 2.0, [1, 3]), (other_clf, 2.0, [2])]),
        (scales(0.0, 0.0, T=7), []),
    ]
    betas = build_schedule(7, 1e-4, 0.02).betas
    for cfg, expected in cases:
        guides = chain_constants(plans, cfg).guides
        assert len(guides) == len(expected)
        for (grad, steps, rows), (model, scale, model_rows) in zip(guides, expected):
            kind = consistency_grad if model is reg else infeasibility_grad
            assert grad.func is kind and grad.args[0] is model
            assert steps.shape == (7,)
            bound = step_bound(model) if model is reg else np.inf
            np.testing.assert_array_equal(steps, np.minimum(scale * betas, bound))
            np.testing.assert_array_equal(rows, model_rows)


def test_guide_steps_are_scale_times_beta_capped_at_one_over_lambda_max():
    # ||W - I||_2 = 2, so lambda_max = 8: 10 beta_t passes 1/8 on the late
    # steps only; both stop_gradient_y forms step alike
    betas = DEFAULT.betas
    reg = LinearRegressor(np.eye(21) + np.diag(np.linspace(-2.0, 1.0, 21)), np.zeros(21))
    clf, _ = _toy_guides(np.random.default_rng(20))
    for stop_gradient_y in (False, True):
        (_, clf_steps, _), (_, reg_steps, _) = chain_constants(
            [(clf, reg)], scales(10.0, 10.0, stop_gradient_y)
        ).guides
        np.testing.assert_array_equal(clf_steps, 10.0 * betas)
        capped = 10.0 * betas > 0.125
        assert 0 < capped.sum() < len(betas)
        np.testing.assert_array_equal(reg_steps[capped], 0.125)
        np.testing.assert_array_equal(reg_steps[~capped], 10.0 * betas[~capped])
    # W = I: lambda_max is 0, no cap and no division
    identity = LinearRegressor(np.eye(21), np.zeros(21))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (_, steps, _), = chain_constants([(None, identity)], CFG).guides
    np.testing.assert_array_equal(steps, 10.0 * betas)


def test_guided_chain_stays_finite_under_a_regressor_of_large_lambda_max():
    # lambda_max = 2 ||W - I||_2^2 is in the thousands: a step of the scale
    # alone overshoots the loss's minimum at every t and overflows
    rng = np.random.default_rng(21)
    denoiser = _toy_denoiser(rng)
    clf, _ = _toy_guides(rng)
    reg = LinearRegressor(np.eye(21) + 3.0 * rng.normal(size=(21, 21)), rng.normal(size=21))
    assert 2.0 * np.linalg.norm(reg.weights - np.eye(21), 2) ** 2 > 1000.0
    c = rng.uniform(size=(4, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = sample(c, denoiser, [51, 52, 53, 54], [(None, reg), (clf, reg)], CFG)
    assert np.isfinite(z).all()
    assert np.abs(z).max() < 100.0


# ---------------------------------------------------------------- sample step


def test_sample_step_unguided_reduction_bitwise():
    rng = np.random.default_rng(6)
    z_t = rng.normal(size=21)
    eps_hat = rng.normal(size=21)
    noise = rng.standard_normal(21)
    clf = init_mlp([21, 8, 1], OutputActivation.SIGMOID, rng)
    reg = LinearRegressor(rng.normal(size=(21, 21)), rng.normal(size=21))
    plain = step(z_t, 50, eps_hat, noise)
    zero_scales = scales(0.0, 0.0)
    guided = step(z_t, 50, eps_hat, noise, clf, reg, zero_scales)
    np.testing.assert_array_equal(plain, guided)


def test_sample_step_final_step_deterministic():
    rng = np.random.default_rng(7)
    z1 = rng.normal(size=21)
    eps_hat = rng.normal(size=21)
    out = step(z1, 1, eps_hat, None)
    beta, ab, alpha = DEFAULT.betas[0], DEFAULT.alpha_bars[0], DEFAULT.alphas[0]
    np.testing.assert_array_equal(out, (z1 - beta / np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(alpha))


def test_sample_step_guidance_composition_exact():
    rng = np.random.default_rng(8)
    z_t = rng.normal(size=21)
    eps_hat = rng.normal(size=21)
    noise = rng.standard_normal(21)
    clf = init_mlp([21, 16, 1], OutputActivation.SIGMOID, rng)
    reg = LinearRegressor(rng.normal(size=(21, 21)) * 0.1, rng.normal(size=21) * 0.1)
    cfg = scales(10.0, 10.0)
    guided = step(z_t, 30, eps_hat, noise, clf, reg, cfg)
    plain = step(z_t, 30, eps_hat, noise)
    grad_inf = -mlp_grad_input(clf, z_t)
    w_minus_i = reg.weights - np.eye(21)
    grad_reg = 2.0 * w_minus_i.T @ (reg.weights @ z_t + reg.bias - z_t)
    beta = DEFAULT.betas[29]
    np.testing.assert_allclose(
        plain - guided,
        10.0 * beta * grad_inf + min(10.0 * beta, step_bound(reg)) * grad_reg,
        atol=1e-10,
    )


def test_sample_step_order_is_classifier_then_regressor():
    rng = np.random.default_rng(9)
    z_t = rng.normal(size=(1, 1, 21))
    eps_hat = rng.normal(size=(1, 1, 21))
    noise = rng.standard_normal((1, 21))
    clf = init_mlp([21, 16, 1], OutputActivation.SIGMOID, rng)
    reg = LinearRegressor(rng.normal(size=(21, 21)) * 0.2, rng.normal(size=21))
    chain = chain_constants([(clf, reg)], scales(10.0, 10.0))
    guided = sample_step(z_t, 30, eps_hat, noise, chain)
    beta, ab, alpha = DEFAULT.betas[29], DEFAULT.alpha_bars[29], DEFAULT.alphas[29]
    mu = (z_t - beta / np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(alpha)
    mu = mu - 10.0 * beta * -mlp_grad_input(clf, z_t)
    residual = z_t @ reg.weights.T + reg.bias - z_t
    mu = mu - min(10.0 * beta, step_bound(reg)) * (2.0 * residual @ (reg.weights - np.eye(21)))
    expected = mu + math.sqrt(DEFAULT.posterior_variance[29]) * noise
    np.testing.assert_array_equal(guided, expected)


# ---------------------------------------------------------------- full sampling


def _toy_denoiser(rng):
    return init_mlp([21 + 8 + 8, 32, 21], OutputActivation.IDENTITY, rng)


def _toy_guides(rng):
    clf = init_mlp([21, 8, 1], OutputActivation.SIGMOID, rng)
    reg = LinearRegressor(np.eye(21) * 0.9 + rng.normal(size=(21, 21)) * 0.01, np.zeros(21))
    return clf, reg


def test_sample_deterministic_per_seed():
    rng = np.random.default_rng(10)
    denoiser = _toy_denoiser(rng)
    c = rng.uniform(size=(3, 8))
    a = sample(c, denoiser, [11, 12, 13], UNGUIDED, CFG)
    b = sample(c, denoiser, [11, 12, 13], UNGUIDED, CFG)
    assert a.shape == (1, 3, 21)
    np.testing.assert_array_equal(a, b)
    other = sample(c, denoiser, [14, 12, 13], UNGUIDED, CFG)
    assert not np.array_equal(a[0, 0], other[0, 0])


def test_sample_needs_one_seed_per_condition_row():
    denoiser = _toy_denoiser(np.random.default_rng(10))
    with pytest.raises(ValueError):
        sample(np.zeros((3, 8)), denoiser, [1, 2], UNGUIDED, CFG)
    with pytest.raises(ValueError):
        sample(np.zeros(8), denoiser, [1], UNGUIDED, CFG)
    with pytest.raises(ValueError, match="at least one guidance plan"):
        sample(np.zeros((1, 8)), denoiser, [1], [], CFG)


def test_sample_zero_scale_guidance_bitwise_equals_unguided():
    rng = np.random.default_rng(13)
    denoiser = _toy_denoiser(rng)
    clf = init_mlp([21, 8, 1], OutputActivation.SIGMOID, rng)
    reg = LinearRegressor(np.eye(21) * 0.5, np.zeros(21))
    c = rng.uniform(size=(3, 8))
    plain = sample(c, denoiser, [21, 22, 23], UNGUIDED, CFG)
    zeroed = sample(c, denoiser, [21, 22, 23], [(clf, reg)], scales(0.0, 0.0))
    np.testing.assert_array_equal(plain, zeroed)


def test_sample_rows_keep_their_own_noise_stream(monkeypatch):
    # every plan of a stack, guided or not, starts from the same z_T and sees
    # the same per-step noise as an unguided chain alone, row by row, and each
    # row's stream is its seed's draws: the starting latent, then one
    # standard_normal(d) per step with t > 1
    rng = np.random.default_rng(16)
    denoiser = _toy_denoiser(rng)
    clf, reg = _toy_guides(rng)
    c = rng.uniform(size=(3, 8))
    seeds = [31, 32, 33]
    six_steps = RunConfig(timesteps=6)
    seen = []

    def spy(z_t, t, eps_hat, noise, chain):
        seen.append((np.copy(z_t), None if noise is None else np.copy(noise)))
        return sample_step(z_t, t, eps_hat, noise, chain)

    monkeypatch.setattr(diffusion, "sample_step", spy)
    sample(c, denoiser, seeds, UNGUIDED, six_steps)
    plain, seen = seen, []
    sample(c, denoiser, seeds, [(None, None), (clf, None), (clf, reg)], scales(1.0, 1.0, T=6))
    stacked = seen
    assert len(plain) == len(stacked) == 6
    for p in range(3):
        np.testing.assert_array_equal(stacked[0][0][p], plain[0][0][0])
    for (_, noise_plain), (_, noise_stacked) in zip(plain, stacked):
        if noise_plain is None:
            assert noise_stacked is None
        else:
            assert noise_stacked.shape == (3, 21)
            np.testing.assert_array_equal(noise_stacked, noise_plain)
    for row, seed in enumerate(seeds):
        serial = np.random.default_rng(seed)
        np.testing.assert_array_equal(plain[0][0][0, row], serial.standard_normal(21))
        for _, noise in plain[:-1]:
            np.testing.assert_array_equal(noise[row], serial.standard_normal(21))
    assert plain[-1][1] is None


@pytest.mark.parametrize("stop_gradient_y", [False, True])
# 20 and 40 rows are the eval-guided and eval-mmd benchmarks' chain blocks, where
# OpenBLAS takes its small-matrix path for the 21-wide output layer
@pytest.mark.parametrize("rows", [1, CHAIN_BLOCK, 5, 20, 40])
@pytest.mark.parametrize("T", [2, 12])
def test_sample_plans_in_lockstep_equal_single_plan_chains_bitwise(stop_gradient_y, rows, T):
    # plans 1 and 3 share a classifier, plans 2 to 4 a regressor; with the
    # classifier scale at 0 the classifier plans step as unguided ones
    rng = np.random.default_rng(18)
    denoiser = _toy_denoiser(rng)
    clf, reg = _toy_guides(rng)
    other_clf, _ = _toy_guides(rng)
    plans = [(None, None), (clf, None), (None, reg), (clf, reg), (other_clf, reg)]
    c = rng.uniform(size=(rows, 8))
    seeds = list(range(50, 50 + rows))
    for classifier_scale in (0.5, 0.0):
        cfg = scales(classifier_scale, 0.5, stop_gradient_y, T)
        stacked = sample(c, denoiser, seeds, plans, cfg)
        assert stacked.shape == (len(plans), rows, 21)
        for p, plan in enumerate(plans):
            alone = sample(c, denoiser, seeds, [plan], cfg)
            assert stacked[p].tobytes() == alone[0].tobytes(), (classifier_scale, p)


def in_out_forward(model, x):
    """The forward pass with each layer multiplied by a C-contiguous (in, out)
    copy of its weights, written out."""
    a, preacts = x, []
    for w, b in zip(model.weights, model.biases):
        s = a @ np.ascontiguousarray(w.T) + b
        preacts.append(s)
        a = np.maximum(s, 0.0)
    if model.output_activation is OutputActivation.SIGMOID:
        out = np.empty_like(s)
        pos = s >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
        out[~pos] = np.exp(s[~pos]) / (1.0 + np.exp(s[~pos]))
        return out, preacts
    return s, preacts


def in_out_chain(conditions, denoiser, seeds, plan, cfg):
    """One plan's reverse chains on a (B, c) batch, written out step by step:
    every forward pass on (in, out) copies, the classifier's backward pass on its
    own (out, in) weights."""
    classifier, regressor = plan
    sched = build_schedule(cfg.timesteps, cfg.beta_start, cfg.beta_end)
    T, d = cfg.timesteps, 21
    draws = np.stack([np.random.default_rng(seed).standard_normal((T, d)) for seed in seeds])
    z = draws[:, 0]
    for t in range(T, 0, -1):
        emb = np.broadcast_to(timestep_embedding(t), (len(seeds), TIMESTEP_EMBED_DIM))
        eps_hat, _ = in_out_forward(denoiser, np.concatenate([z, emb, conditions], axis=1))
        mu = (z - sched.betas[t - 1] / np.sqrt(1.0 - sched.alpha_bars[t - 1]) * eps_hat)
        mu = mu / np.sqrt(sched.alphas[t - 1])
        if classifier is not None and cfg.classifier_scale:
            out, preacts = in_out_forward(classifier, z)
            delta = out * (1.0 - out)
            for k in range(len(classifier.weights) - 1, 0, -1):
                delta = (delta @ classifier.weights[k]) * (preacts[k - 1] > 0)
            step = cfg.classifier_scale * sched.betas[t - 1]
            mu = mu - step * -(delta @ classifier.weights[0])
        if regressor is not None and cfg.regressor_scale:
            w_minus_i = regressor.weights - np.eye(d)
            residual = z @ regressor.weights.T + regressor.bias - z
            step = min(cfg.regressor_scale * sched.betas[t - 1], step_bound(regressor))
            mu = mu - step * (2.0 * residual @ w_minus_i)
        z = mu + np.sqrt(sched.posterior_variance[t - 1]) * draws[:, T - t + 1] if t > 1 else mu
    return z


@pytest.mark.parametrize("rows", [1, 20, CHAIN_BLOCK])
def test_sample_multiplies_each_layer_by_an_in_out_copy_bitwise(rows):
    # the run's network sizes, guided and unguided plans in one stack; products
    # against (in, out) copies round differently from those against transposed
    # (out, in) views at some of these sizes
    rng = np.random.default_rng(23)
    denoiser = init_mlp([21 + 8 + 8, *DENOISER_HIDDEN, 21], OutputActivation.IDENTITY, rng)
    clf = init_mlp([21, *CLASSIFIER_HIDDEN, 1], OutputActivation.SIGMOID, rng)
    _, reg = _toy_guides(rng)
    plans = [(None, None), (clf, None), (clf, reg)]
    c = rng.uniform(size=(rows, 8))
    seeds = list(range(80, 80 + rows))
    cfg = scales(0.5, 0.5, T=6)
    stacked = sample(c, denoiser, seeds, plans, cfg)
    for p, plan in enumerate(plans):
        expected = in_out_chain(c, denoiser, seeds, plan, cfg)
        assert stacked[p].tobytes() == expected.tobytes(), p


def test_sample_step_and_the_guide_gradients_leave_their_inputs_unchanged():
    rng = np.random.default_rng(24)
    clf, reg = _toy_guides(rng)
    z = rng.normal(size=(3, 4, 21))
    eps_hat = rng.normal(size=(3, 4, 21))
    noise = rng.normal(size=(4, 21))
    inputs = (z, eps_hat, noise)
    before = [a.tobytes() for a in inputs]
    for stop_gradient_y in (False, True):
        chain = chain_constants(
            [(clf, None), (None, reg), (clf, reg)], scales(0.5, 0.5, stop_gradient_y)
        )
        for t in (1, 30):
            sample_step(z, t, eps_hat, noise if t > 1 else None, chain)
        for grad, _, _ in chain.guides:
            grad(z)
        assert [a.tobytes() for a in inputs] == before


def test_sample_batch_rows_match_single_row_calls():
    # a row's result does not depend on the other rows of its batch; the
    # batched matrix products round differently from one-row products, so
    # agreement is to 1e-12, not bitwise
    rng = np.random.default_rng(17)
    denoiser = _toy_denoiser(rng)
    clf, reg = _toy_guides(rng)
    c = rng.uniform(size=(5, 8))
    seeds = [41, 42, 43, 44, 45]
    cfg = scales(0.5, 0.5)
    plans = [(None, None), (clf, reg)]
    batch = sample(c, denoiser, seeds, plans, cfg)
    for i, seed in enumerate(seeds):
        single = sample(c[i : i + 1], denoiser, [seed], plans, cfg)
        np.testing.assert_allclose(batch[:, i], single[:, 0], rtol=0.0, atol=1e-12)


def test_sample_collapses_to_fixed_latent():
    # denoiser trained on a single repeated latent: samples land near it
    rng = np.random.default_rng(15)
    target = rng.uniform(-0.6, 0.6, size=21)
    conditions = np.tile(rng.uniform(0.2, 0.8, size=8), (64, 1))
    latents = np.tile(target, (64, 1))
    model, _ = train_denoiser(
        conditions,
        latents,
        DEFAULT,
        ModelTraining(epochs=800, batch_size=32, learning_rate=5e-3),
        seed=3,
    )
    (draws,) = sample(conditions[:40], model, range(100, 140), UNGUIDED, CFG)
    mean_abs_err = np.abs(draws - target).mean(axis=0)
    assert mean_abs_err.max() < 0.1
