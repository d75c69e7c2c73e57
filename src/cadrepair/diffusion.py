"""Conditional DDPM over latent vectors with feasibility-guided denoising.

Each reverse step forms the epsilon-parameterized posterior mean, shifts it
down the classifier's infeasibility gradient when a classifier is given and
down the regressor's self-consistency loss gradient when a regressor is given
(both evaluated at the current noisy latent, in that order), then adds
posterior-variance noise. The final step is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import (
    LinearRegressor,
    Mlp,
    denoiser_features,
    mlp_forward,
    mlp_grad_input,
    regressor_loss_grad,
    regressor_predict,
)


@dataclass(frozen=True)
class DiffusionSchedule:
    """Per-step noise constants; index t-1 holds the step-t values."""

    betas: np.ndarray
    alphas: np.ndarray
    alpha_bars: np.ndarray
    posterior_variance: np.ndarray

    @property
    def T(self) -> int:
        return len(self.betas)


@dataclass(frozen=True)
class GuidanceConfig:
    """Strengths of the guidance terms; a term runs only when its model is given."""

    classifier_scale: float = 10.0
    regressor_scale: float = 10.0
    stop_gradient_y: bool = False

    def __post_init__(self):
        # written so that NaN fails too
        if not (0.0 <= self.classifier_scale < np.inf and 0.0 <= self.regressor_scale < np.inf):
            raise ValueError("guidance scales must be finite and >= 0")


def build_schedule(T: int, beta_start: float, beta_end: float) -> DiffusionSchedule:
    """Linear beta schedule with precomputed alphas and posterior variances."""
    if T < 2:
        raise ValueError(f"T must be >= 2, got {T}")
    if not 0.0 < beta_start < beta_end < 1.0:
        raise ValueError(f"need 0 < beta_start < beta_end < 1, got ({beta_start}, {beta_end})")
    betas = np.linspace(beta_start, beta_end, T)
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
    prev_bars = np.concatenate([[1.0], alpha_bars[:-1]])
    posterior_variance = betas * (1.0 - prev_bars) / (1.0 - alpha_bars)
    return DiffusionSchedule(betas, alphas, alpha_bars, posterior_variance)


def _check_step(t: int, schedule: DiffusionSchedule) -> None:
    if not 1 <= t <= schedule.T:
        raise ValueError(f"step {t} outside [1, {schedule.T}]")


def posterior_mean(z_t, t: int, eps_hat, schedule: DiffusionSchedule) -> np.ndarray:
    """Epsilon-parameterized posterior mean of the reverse transition."""
    _check_step(t, schedule)
    beta = schedule.betas[t - 1]
    ab = schedule.alpha_bars[t - 1]
    z_t = np.asarray(z_t, dtype=float)
    eps_hat = np.asarray(eps_hat, dtype=float)
    return (z_t - beta / np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(schedule.alphas[t - 1])


def classifier_guide(mu, z_t, classifier: Mlp, scale: float) -> np.ndarray:
    """Shift the mean against the infeasibility-probability gradient at z_t."""
    if scale == 0.0:
        return mu
    grad_infeasible = -mlp_grad_input(classifier, z_t)
    return mu - scale * grad_infeasible


def regressor_guide(
    mu, z_t, regressor: LinearRegressor, scale: float, stop_gradient_y: bool = False
) -> np.ndarray:
    """Shift the mean against the regressor self-consistency loss gradient at z_t."""
    if scale == 0.0:
        return mu
    z_t = np.asarray(z_t, dtype=float)
    if stop_gradient_y:
        grad = 2.0 * (z_t - regressor_predict(regressor, z_t))
    else:
        _, grad = regressor_loss_grad(regressor, z_t)
    return mu - scale * grad


def sample_step(
    z_t,
    t: int,
    eps_hat,
    noise,
    schedule: DiffusionSchedule,
    classifier: Mlp | None = None,
    regressor: LinearRegressor | None = None,
    guidance: GuidanceConfig = GuidanceConfig(),
) -> np.ndarray:
    """One reverse step: posterior mean, a shift for each model given, then
    noise (none at t=1)."""
    mu = posterior_mean(z_t, t, eps_hat, schedule)
    if classifier is not None:
        mu = classifier_guide(mu, z_t, classifier, guidance.classifier_scale)
    if regressor is not None:
        mu = regressor_guide(mu, z_t, regressor, guidance.regressor_scale, guidance.stop_gradient_y)
    if t == 1:
        return mu
    return mu + np.sqrt(schedule.posterior_variance[t - 1]) * np.asarray(noise, dtype=float)


def sample(
    conditions,
    denoiser: Mlp,
    schedule: DiffusionSchedule,
    seeds,
    classifier: Mlp | None = None,
    regressor: LinearRegressor | None = None,
    guidance: GuidanceConfig = GuidanceConfig(),
) -> np.ndarray:
    """Draw one latent per row of the (B, c) ``conditions`` by iterating the
    reverse chain from t=T down to 1 on the whole batch; returns (B, d).

    Row i draws from its own generator, seeded by ``seeds[i]``: its starting
    latent, then one standard normal vector per step with t > 1. A generator's
    draws do not depend on how they are split into calls, so all T are taken
    up front. Each row is deterministic for its seed and independent of the
    other rows, and the noise stream never depends on which guidance models
    are given, so paired-seed comparisons across variants share both the
    starting latent and every per-step noise draw.
    """
    conditions = np.asarray(conditions, dtype=float)
    if conditions.ndim != 2 or len(conditions) != len(seeds):
        raise ValueError(
            f"need (B, c) conditions with one seed per row, got {conditions.shape} "
            f"and {len(seeds)} seeds"
        )
    latent_dim = denoiser.weights[-1].shape[0]
    # (B, T, d): step index 0 is the starting latent, T - t + 1 the step-t noise
    draws = np.empty((len(seeds), schedule.T, latent_dim))
    for row, seed in zip(draws, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    z = draws[:, 0]
    for t in range(schedule.T, 0, -1):
        eps_hat, _ = mlp_forward(denoiser, denoiser_features(z, t, conditions))
        noise = draws[:, schedule.T - t + 1] if t > 1 else None
        z = sample_step(z, t, eps_hat, noise, schedule, classifier, regressor, guidance)
    return z
