import math

import numpy as np
import pytest

from cadrepair import diffusion
from cadrepair.config import ModelTraining
from cadrepair.diffusion import (
    BadRange,
    GuidanceConfig,
    StepOutOfRange,
    build_schedule,
    classifier_guide,
    posterior_mean,
    regressor_guide,
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
    regressor_loss_grad,
    train_denoiser,
)

DEFAULT = build_schedule(100, 1e-4, 0.02)


# ---------------------------------------------------------------- schedule


def test_schedule_bad_ranges():
    for args in ((1, 1e-4, 0.02), (10, 0.0, 0.02), (10, 0.02, 0.02), (10, 1e-4, 1.0)):
        with pytest.raises(BadRange):
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
    mu = posterior_mean(z_t, 10, np.zeros(21), DEFAULT)
    np.testing.assert_allclose(mu, z_t / math.sqrt(DEFAULT.alphas[9]), atol=1e-15)


def test_posterior_mean_step_bounds():
    with pytest.raises(StepOutOfRange):
        posterior_mean(np.zeros(21), 0, np.zeros(21), DEFAULT)
    with pytest.raises(StepOutOfRange):
        posterior_mean(np.zeros(21), 101, np.zeros(21), DEFAULT)


def test_posterior_mean_recovers_z0_at_t1():
    rng = np.random.default_rng(2)
    z0 = rng.normal(size=21)
    eps = rng.standard_normal(21)
    z1 = forward_diffuse(z0, 1, eps, DEFAULT)
    mu = posterior_mean(z1, 1, eps, DEFAULT)
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
            posterior_mean(z_t, t, eps, DEFAULT),
            two_point_posterior_mean(z0, z_t, t, DEFAULT),
            atol=1e-10,
        )


# ---------------------------------------------------------------- guides


def one_dim_classifier(w=1.0, b=0.0):
    return Mlp([np.array([[w]])], [np.array([b])], OutputActivation.SIGMOID)


def test_classifier_guide_zero_scale_bitwise():
    mu = np.array([0.123456789, -0.5])
    clf = init_mlp([2, 4, 1], OutputActivation.SIGMOID, np.random.default_rng(0))
    out = classifier_guide(mu, np.array([1.0, 2.0]), clf, 0.0)
    assert out is mu


def test_classifier_guide_one_dimensional_case():
    clf = one_dim_classifier()
    mu = np.array([0.7])
    out = classifier_guide(mu, np.array([0.0]), clf, 10.0)
    # sigmoid slope at 0 is 1/4: infeasibility gradient -0.25, shift +2.5
    np.testing.assert_allclose(out, [0.7 + 2.5], atol=1e-14)


def test_classifier_guide_increases_feasibility_first_order():
    rng = np.random.default_rng(4)
    clf = init_mlp([6, 16, 1], OutputActivation.SIGMOID, rng)
    for _ in range(20):
        z = rng.normal(size=6)
        grad_inf = -mlp_grad_input(clf, z)
        if np.linalg.norm(grad_inf) < 1e-9:
            continue
        h = 1e-4
        stepped = z - h * grad_inf
        assert mlp_forward(clf, stepped)[0][0] >= mlp_forward(clf, z)[0][0] - 1e-12


def test_regressor_guide_zero_scale_and_identity():
    mu = np.array([1.0, 2.0, 3.0])
    identity = LinearRegressor(np.eye(3), np.zeros(3))
    assert regressor_guide(mu, np.array([9.0, 9.0, 9.0]), identity, 0.0) is mu
    out = regressor_guide(mu, np.array([4.0, 5.0, 6.0]), identity, 10.0)
    np.testing.assert_array_equal(out, mu)  # identity map has zero loss gradient


def test_regressor_guide_one_dimensional_case():
    reg = LinearRegressor(np.array([[0.0]]), np.array([1.0]))
    mu = np.array([0.25])
    out = regressor_guide(mu, np.array([0.0]), reg, 10.0)
    np.testing.assert_allclose(out, [0.25 + 20.0], atol=1e-14)


def test_regressor_guide_stop_gradient_variant():
    rng = np.random.default_rng(5)
    reg = LinearRegressor(rng.normal(size=(4, 4)), rng.normal(size=4))
    z = rng.normal(size=4)
    mu = rng.normal(size=4)
    full = regressor_guide(mu, z, reg, 3.0, stop_gradient_y=False)
    stopped = regressor_guide(mu, z, reg, 3.0, stop_gradient_y=True)
    y = reg.weights @ z + reg.bias
    np.testing.assert_allclose(stopped, mu - 3.0 * 2.0 * (z - y), atol=1e-12)
    assert not np.allclose(full, stopped)


# ---------------------------------------------------------------- sample step


def test_sample_step_unguided_reduction_bitwise():
    rng = np.random.default_rng(6)
    z_t = rng.normal(size=21)
    eps_hat = rng.normal(size=21)
    noise = rng.standard_normal(21)
    clf = init_mlp([21, 8, 1], OutputActivation.SIGMOID, rng)
    reg = LinearRegressor(rng.normal(size=(21, 21)), rng.normal(size=21))
    plain = sample_step(z_t, 50, eps_hat, noise, DEFAULT)
    zero_scales = GuidanceConfig(0.0, 0.0)
    guided = sample_step(z_t, 50, eps_hat, noise, DEFAULT, clf, reg, zero_scales)
    np.testing.assert_array_equal(plain, guided)


def test_sample_step_final_step_deterministic():
    rng = np.random.default_rng(7)
    z1 = rng.normal(size=21)
    eps_hat = rng.normal(size=21)
    out = sample_step(z1, 1, eps_hat, None, DEFAULT)
    np.testing.assert_array_equal(out, posterior_mean(z1, 1, eps_hat, DEFAULT))


def test_sample_step_guidance_composition_exact():
    rng = np.random.default_rng(8)
    z_t = rng.normal(size=21)
    eps_hat = rng.normal(size=21)
    noise = rng.standard_normal(21)
    clf = init_mlp([21, 16, 1], OutputActivation.SIGMOID, rng)
    reg = LinearRegressor(rng.normal(size=(21, 21)) * 0.1, rng.normal(size=21) * 0.1)
    cfg = GuidanceConfig(10.0, 10.0)
    guided = sample_step(z_t, 30, eps_hat, noise, DEFAULT, clf, reg, cfg)
    plain = sample_step(z_t, 30, eps_hat, noise, DEFAULT)
    grad_inf = -mlp_grad_input(clf, z_t)
    _, grad_reg = regressor_loss_grad(reg, z_t)
    np.testing.assert_allclose(
        plain - guided, 10.0 * grad_inf + 10.0 * grad_reg, atol=1e-10
    )


def test_sample_step_order_is_classifier_then_regressor():
    rng = np.random.default_rng(9)
    z_t = rng.normal(size=21)
    eps_hat = rng.normal(size=21)
    noise = rng.standard_normal(21)
    clf = init_mlp([21, 16, 1], OutputActivation.SIGMOID, rng)
    reg = LinearRegressor(rng.normal(size=(21, 21)) * 0.2, rng.normal(size=21))
    cfg = GuidanceConfig(10.0, 10.0)
    guided = sample_step(z_t, 30, eps_hat, noise, DEFAULT, clf, reg, cfg)
    mu = posterior_mean(z_t, 30, eps_hat, DEFAULT)
    mu = classifier_guide(mu, z_t, clf, 10.0)
    mu = regressor_guide(mu, z_t, reg, 10.0)
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
    a = sample(c, denoiser, DEFAULT, seeds=[11, 12, 13])
    b = sample(c, denoiser, DEFAULT, seeds=[11, 12, 13])
    assert a.shape == (3, 21)
    np.testing.assert_array_equal(a, b)
    other = sample(c, denoiser, DEFAULT, seeds=[14, 12, 13])
    assert not np.array_equal(a[0], other[0])


def test_sample_needs_one_seed_per_condition_row():
    denoiser = _toy_denoiser(np.random.default_rng(10))
    with pytest.raises(ValueError):
        sample(np.zeros((3, 8)), denoiser, DEFAULT, seeds=[1, 2])
    with pytest.raises(ValueError):
        sample(np.zeros(8), denoiser, DEFAULT, seeds=[1])


def test_sample_zero_scale_guidance_bitwise_equals_unguided():
    rng = np.random.default_rng(13)
    denoiser = _toy_denoiser(rng)
    clf = init_mlp([21, 8, 1], OutputActivation.SIGMOID, rng)
    reg = LinearRegressor(np.eye(21) * 0.5, np.zeros(21))
    c = rng.uniform(size=(3, 8))
    plain = sample(c, denoiser, DEFAULT, seeds=[21, 22, 23])
    zeroed = sample(
        c,
        denoiser,
        DEFAULT,
        seeds=[21, 22, 23],
        classifier=clf,
        regressor=reg,
        guidance=GuidanceConfig(0.0, 0.0),
    )
    np.testing.assert_array_equal(plain, zeroed)


def test_sample_rows_keep_their_own_noise_stream(monkeypatch):
    # every reverse step of a guided batch sees the same z_T and the same
    # per-step noise as the unguided batch, row by row, and each row's
    # stream is its seed's draws: the starting latent, then one
    # standard_normal(d) per step with t > 1
    rng = np.random.default_rng(16)
    denoiser = _toy_denoiser(rng)
    clf, reg = _toy_guides(rng)
    c = rng.uniform(size=(3, 8))
    seeds = [31, 32, 33]
    sched = build_schedule(6, 1e-4, 0.02)
    seen = []

    def spy(z_t, t, eps_hat, noise, *args):
        seen.append((np.copy(z_t), None if noise is None else np.copy(noise)))
        return sample_step(z_t, t, eps_hat, noise, *args)

    monkeypatch.setattr(diffusion, "sample_step", spy)
    sample(c, denoiser, sched, seeds=seeds)
    plain, seen = seen, []
    sample(c, denoiser, sched, seeds=seeds, classifier=clf, regressor=reg,
           guidance=GuidanceConfig(1.0, 1.0))
    guided = seen
    assert len(plain) == len(guided) == sched.T
    np.testing.assert_array_equal(guided[0][0], plain[0][0])
    for (_, noise_plain), (_, noise_guided) in zip(plain, guided):
        if noise_plain is None:
            assert noise_guided is None
        else:
            np.testing.assert_array_equal(noise_guided, noise_plain)
    for row, seed in enumerate(seeds):
        serial = np.random.default_rng(seed)
        np.testing.assert_array_equal(plain[0][0][row], serial.standard_normal(21))
        for _, noise in plain[:-1]:
            np.testing.assert_array_equal(noise[row], serial.standard_normal(21))
    assert plain[-1][1] is None


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
    for classifier, regressor in ((None, None), (clf, reg)):
        batch = sample(c, denoiser, DEFAULT, seeds, classifier, regressor, guidance)
        for i, seed in enumerate(seeds):
            single = sample(c[i : i + 1], denoiser, DEFAULT, [seed], classifier, regressor,
                            guidance)
            np.testing.assert_allclose(batch[i], single[0], rtol=0.0, atol=1e-12)


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
    draws = sample(conditions[:40], result.model, DEFAULT, seeds=range(100, 140))
    mean_abs_err = np.abs(draws - target).mean(axis=0)
    assert mean_abs_err.max() < 0.1
