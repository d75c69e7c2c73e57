import math

import numpy as np
import pytest

from cadrepair import diffusion
from cadrepair.config import ModelTraining
from cadrepair.diffusion import (
    GuidanceConfig,
    build_schedule,
    chain_constants,
    sample,
    sample_step,
)
from cadrepair.nets import (
    LinearRegressor,
    Mlp,
    OutputActivation,
    init_mlp,
    mlp_forward,
    mlp_grad_input,
    train_denoiser,
)
from cadrepair.pipeline import CHAIN_BLOCK

DEFAULT = build_schedule(100, 1e-4, 0.02)
UNGUIDED = [(None, None)]


def step(z_t, t, eps_hat, noise, classifier=None, regressor=None, guidance=GuidanceConfig()):
    """sample_step on one latent (d,) of a one-plan, one-row stack; returns (d,)."""
    chain = chain_constants(DEFAULT, [(classifier, regressor)], guidance)
    noise = None if noise is None else np.asarray(noise, dtype=float)[None]
    return sample_step(np.asarray(z_t, dtype=float)[None, None], t, eps_hat, noise, chain)[0, 0]


def posterior_mean(z_t, t, eps_hat):
    """The unguided step without noise: the posterior mean at every t."""
    return step(z_t, t, eps_hat, np.zeros(np.shape(z_t)))


# ---------------------------------------------------------------- schedule


def test_schedule_bad_ranges():
    with pytest.raises(ValueError, match="T must be >= 2, got 1"):
        build_schedule(1, 1e-4, 0.02)
    for args in ((10, 0.0, 0.02), (10, 0.02, 0.02), (10, 1e-4, 1.0)):
        with pytest.raises(ValueError, match="need 0 < beta_start < beta_end < 1, got"):
            build_schedule(*args)


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


def shift(z_t, classifier=None, regressor=None, guidance=GuidanceConfig()):
    """What the guides add to the final (noiseless) step's mean at z_t."""
    eps_hat = np.zeros(np.shape(z_t))
    return step(z_t, 1, eps_hat, None, classifier, regressor, guidance) - posterior_mean(
        z_t, 1, eps_hat
    )


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
    zero = GuidanceConfig(classifier_scale=0.0)
    assert chain_constants(DEFAULT, [(clf, None)], zero).classifiers == ()
    z_t, eps_hat, noise = rng.normal(size=(3, 21))
    np.testing.assert_array_equal(
        step(z_t, 40, eps_hat, noise, clf, None, zero), step(z_t, 40, eps_hat, noise)
    )


def test_classifier_guide_one_dimensional_case():
    clf = one_dim_classifier()
    out = shift(np.array([0.0]), clf, None, GuidanceConfig(10.0, 0.0))
    # sigmoid slope at 0 is 1/4: infeasibility gradient -0.25, shift +2.5
    np.testing.assert_allclose(out, [2.5], atol=1e-14)


def test_classifier_guide_increases_feasibility_first_order():
    rng = np.random.default_rng(4)
    clf = init_mlp([6, 16, 1], OutputActivation.SIGMOID, rng)
    small = GuidanceConfig(1e-4, 0.0)
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
    zero = GuidanceConfig(regressor_scale=0.0)
    assert chain_constants(DEFAULT, [(None, identity)], zero).regressors == ()
    np.testing.assert_array_equal(step(z_t, 40, eps_hat, noise, None, identity, zero), plain)
    # the identity map has zero self-consistency loss and zero gradient
    assert self_consistency_loss(identity, z_t) == 0.0
    for stop_gradient_y in (False, True):
        cfg = GuidanceConfig(10.0, 10.0, stop_gradient_y)
        np.testing.assert_array_equal(step(z_t, 40, eps_hat, noise, None, identity, cfg), plain)


def test_regressor_guide_one_dimensional_case():
    # W = 0, b = 1 at z = 0: loss 1, gradient 2 (Wz + b - z)(W - 1) = -2
    reg = LinearRegressor(np.array([[0.0]]), np.array([1.0]))
    assert self_consistency_loss(reg, np.array([0.0])) == 1.0
    out = shift(np.array([0.0]), None, reg, GuidanceConfig(0.0, 10.0))
    np.testing.assert_allclose(out, [20.0], atol=1e-14)


def test_regressor_guide_stop_gradient_variant():
    rng = np.random.default_rng(5)
    reg = LinearRegressor(rng.normal(size=(4, 4)), rng.normal(size=4))
    z = rng.normal(size=4)
    full = shift(z, None, reg, GuidanceConfig(0.0, 3.0, stop_gradient_y=False))
    stopped = shift(z, None, reg, GuidanceConfig(0.0, 3.0, stop_gradient_y=True))
    y = reg.weights @ z + reg.bias
    np.testing.assert_allclose(stopped, -3.0 * 2.0 * (z - y), atol=1e-12)
    assert not np.allclose(full, stopped)


def test_regressor_guide_matches_finite_differences():
    rng = np.random.default_rng(4)
    reg = LinearRegressor(rng.normal(size=(6, 6)), rng.normal(size=6))
    for _ in range(100):
        z = rng.normal(size=6)
        analytic = -shift(z, None, reg, GuidanceConfig(0.0, 1.0))
        numeric = _fd_grad(lambda v: self_consistency_loss(reg, v), z, h=1e-4)
        err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert err < 1e-8


def test_regressor_guide_matches_finite_differences_per_row_of_a_stack():
    # two plans of five rows each, one regressor: every row of the stack gets
    # its own gradient
    rng = np.random.default_rng(14)
    reg = LinearRegressor(rng.normal(size=(6, 6)), rng.normal(size=6))
    z = rng.normal(size=(2, 5, 6))
    chain = chain_constants(DEFAULT, [(None, reg), (None, reg)], GuidanceConfig(0.0, 1.0))
    (_, _, rows), = chain.regressors
    np.testing.assert_array_equal(rows, [0, 1])
    plain = chain_constants(DEFAULT, UNGUIDED * 2)
    eps_hat = np.zeros_like(z)
    grad = sample_step(z, 1, eps_hat, None, plain) - sample_step(z, 1, eps_hat, None, chain)
    for p in range(2):
        for i in range(5):
            numeric = _fd_grad(lambda v: self_consistency_loss(reg, v), z[p, i], h=1e-4)
            err = np.linalg.norm(grad[p, i] - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert err < 1e-8


def test_regressor_guide_needs_a_square_regressor():
    reg = LinearRegressor(np.zeros((3, 21)), np.zeros(3))
    with pytest.raises(ValueError, match="square regressor"):
        chain_constants(DEFAULT, [(None, reg)])


# ---------------------------------------------------------------- sample step


def test_sample_step_unguided_reduction_bitwise():
    rng = np.random.default_rng(6)
    z_t = rng.normal(size=21)
    eps_hat = rng.normal(size=21)
    noise = rng.standard_normal(21)
    clf = init_mlp([21, 8, 1], OutputActivation.SIGMOID, rng)
    reg = LinearRegressor(rng.normal(size=(21, 21)), rng.normal(size=21))
    plain = step(z_t, 50, eps_hat, noise)
    zero_scales = GuidanceConfig(0.0, 0.0)
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
    cfg = GuidanceConfig(10.0, 10.0)
    guided = step(z_t, 30, eps_hat, noise, clf, reg, cfg)
    plain = step(z_t, 30, eps_hat, noise)
    grad_inf = -mlp_grad_input(clf, z_t)
    w_minus_i = reg.weights - np.eye(21)
    grad_reg = 2.0 * w_minus_i.T @ (reg.weights @ z_t + reg.bias - z_t)
    np.testing.assert_allclose(
        plain - guided, 10.0 * grad_inf + 10.0 * grad_reg, atol=1e-10
    )


def test_sample_step_order_is_classifier_then_regressor():
    rng = np.random.default_rng(9)
    z_t = rng.normal(size=(1, 1, 21))
    eps_hat = rng.normal(size=(1, 1, 21))
    noise = rng.standard_normal((1, 21))
    clf = init_mlp([21, 16, 1], OutputActivation.SIGMOID, rng)
    reg = LinearRegressor(rng.normal(size=(21, 21)) * 0.2, rng.normal(size=21))
    chain = chain_constants(DEFAULT, [(clf, reg)], GuidanceConfig(10.0, 10.0))
    guided = sample_step(z_t, 30, eps_hat, noise, chain)
    beta, ab, alpha = DEFAULT.betas[29], DEFAULT.alpha_bars[29], DEFAULT.alphas[29]
    mu = (z_t - beta / np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(alpha)
    mu = mu - 10.0 * -mlp_grad_input(clf, z_t)
    mu = mu - 10.0 * (2.0 * (z_t @ reg.weights.T + reg.bias - z_t) @ (reg.weights - np.eye(21)))
    expected = mu + math.sqrt(DEFAULT.posterior_variance[29]) * noise
    np.testing.assert_array_equal(guided, expected)


def test_guidance_config_validates_scales():
    with pytest.raises(ValueError):
        GuidanceConfig(classifier_scale=-1.0)
    with pytest.raises(ValueError):
        GuidanceConfig(regressor_scale=float("nan"))
    with pytest.raises(ValueError):
        GuidanceConfig(classifier_scale=float("inf"))


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
    a = sample(c, denoiser, DEFAULT, [11, 12, 13], UNGUIDED)
    b = sample(c, denoiser, DEFAULT, [11, 12, 13], UNGUIDED)
    assert a.shape == (1, 3, 21)
    np.testing.assert_array_equal(a, b)
    other = sample(c, denoiser, DEFAULT, [14, 12, 13], UNGUIDED)
    assert not np.array_equal(a[0, 0], other[0, 0])


def test_sample_needs_one_seed_per_condition_row():
    denoiser = _toy_denoiser(np.random.default_rng(10))
    with pytest.raises(ValueError):
        sample(np.zeros((3, 8)), denoiser, DEFAULT, [1, 2], UNGUIDED)
    with pytest.raises(ValueError):
        sample(np.zeros(8), denoiser, DEFAULT, [1], UNGUIDED)
    with pytest.raises(ValueError, match="at least one guidance plan"):
        sample(np.zeros((1, 8)), denoiser, DEFAULT, [1], [])


def test_sample_zero_scale_guidance_bitwise_equals_unguided():
    rng = np.random.default_rng(13)
    denoiser = _toy_denoiser(rng)
    clf = init_mlp([21, 8, 1], OutputActivation.SIGMOID, rng)
    reg = LinearRegressor(np.eye(21) * 0.5, np.zeros(21))
    c = rng.uniform(size=(3, 8))
    plain = sample(c, denoiser, DEFAULT, [21, 22, 23], UNGUIDED)
    zeroed = sample(c, denoiser, DEFAULT, [21, 22, 23], [(clf, reg)], GuidanceConfig(0.0, 0.0))
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
    sched = build_schedule(6, 1e-4, 0.02)
    seen = []

    def spy(z_t, t, eps_hat, noise, chain):
        seen.append((np.copy(z_t), None if noise is None else np.copy(noise)))
        return sample_step(z_t, t, eps_hat, noise, chain)

    monkeypatch.setattr(diffusion, "sample_step", spy)
    sample(c, denoiser, sched, seeds, UNGUIDED)
    plain, seen = seen, []
    sample(c, denoiser, sched, seeds, [(None, None), (clf, None), (clf, reg)],
           GuidanceConfig(1.0, 1.0))
    stacked = seen
    assert len(plain) == len(stacked) == sched.T
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
@pytest.mark.parametrize("rows", [1, CHAIN_BLOCK, 5])
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
    sched = build_schedule(T, 1e-4, 0.02)
    for scales in ((0.5, 0.5), (0.0, 0.5)):
        guidance = GuidanceConfig(*scales, stop_gradient_y=stop_gradient_y)
        stacked = sample(c, denoiser, sched, seeds, plans, guidance)
        assert stacked.shape == (len(plans), rows, 21)
        for p, plan in enumerate(plans):
            alone = sample(c, denoiser, sched, seeds, [plan], guidance)
            assert stacked[p].tobytes() == alone[0].tobytes(), (scales, p)


def test_sample_batch_rows_match_single_row_calls():
    # a row's result does not depend on the other rows of its batch; the
    # batched matrix products round differently from one-row products, so
    # agreement is to 1e-12, not bitwise
    rng = np.random.default_rng(17)
    denoiser = _toy_denoiser(rng)
    clf, reg = _toy_guides(rng)
    c = rng.uniform(size=(5, 8))
    seeds = [41, 42, 43, 44, 45]
    guidance = GuidanceConfig(0.5, 0.5)
    plans = [(None, None), (clf, reg)]
    batch = sample(c, denoiser, DEFAULT, seeds, plans, guidance)
    for i, seed in enumerate(seeds):
        single = sample(c[i : i + 1], denoiser, DEFAULT, [seed], plans, guidance)
        np.testing.assert_allclose(batch[:, i], single[:, 0], rtol=0.0, atol=1e-12)


def test_sample_collapses_to_fixed_latent():
    # denoiser trained on a single repeated latent: samples land near it
    rng = np.random.default_rng(15)
    target = rng.uniform(-0.6, 0.6, size=21)
    conditions = np.tile(rng.uniform(0.2, 0.8, size=8), (64, 1))
    latents = np.tile(target, (64, 1))
    result = train_denoiser(
        conditions,
        latents,
        DEFAULT,
        ModelTraining(epochs=800, batch_size=32, learning_rate=5e-3),
        seed=3,
    )
    (draws,) = sample(conditions[:40], result.model, DEFAULT, range(100, 140), UNGUIDED)
    mean_abs_err = np.abs(draws - target).mean(axis=0)
    assert mean_abs_err.max() < 0.1
