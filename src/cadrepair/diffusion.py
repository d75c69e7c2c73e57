"""Conditional DDPM over latent vectors with feasibility-guided denoising.

``sample`` runs the reverse chains of one batch of conditions under several
guidance plans at once. A plan is a (classifier, regressor) pair, either of
which may be None. The plans run in lockstep on a (P, B, d) stack and share
one noise buffer: each starts from the same z_T and adds the same per-step
noise, as paired seeds would give it anyway. Each reverse step forms the
epsilon-parameterized posterior mean, shifts it down the classifier's
infeasibility gradient where a plan has a classifier and down the
regressor's self-consistency loss gradient where it has a regressor (both
evaluated at the current noisy latent, in that order), then adds
posterior-variance noise. The final step is deterministic.

Stacking keeps each plan's bits. numpy multiplies a (P, B, K) stack by a
(K, N) matrix with one BLAS call per C-contiguous (B, K) slice, so each plan
rounds as its own chain would. Merging the plans into one (P*B, K) batch
would not: a row's product depends on the row count of its batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .nets import (
    TIMESTEP_EMBED_DIM,
    LinearRegressor,
    Mlp,
    mlp_forward,
    mlp_grad_input,
    regressor_predict,
    timestep_embedding,
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


def build_schedule(T: int, beta_start: float, beta_end: float) -> DiffusionSchedule:
    """Linear beta schedule with precomputed alphas and posterior variances;
    RunConfig checks T >= 2 and 0 < beta_start < beta_end < 1."""
    betas = np.linspace(beta_start, beta_end, T)
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
    prev_bars = np.concatenate([[1.0], alpha_bars[:-1]])
    posterior_variance = betas * (1.0 - prev_bars) / (1.0 - alpha_bars)
    return DiffusionSchedule(betas, alphas, alpha_bars, posterior_variance)


@dataclass(frozen=True)
class ChainConstants:
    """What every reverse step of one ``sample`` call reads, computed once per call.

    Per-step arrays hold the step-t value at index t-1. Each guide comes with
    the rows of the (P, B, d) stack whose plans use it. A guide whose scale in
    ``cfg`` is 0 is left out, so its plans step as unguided ones do; the steps
    read ``cfg``'s two scales and ``stop_gradient_y``.
    """

    eps_coefs: np.ndarray  # beta_t / sqrt(1 - alpha_bar_t)
    sqrt_alphas: np.ndarray
    noise_stds: np.ndarray  # sqrt of the posterior variance
    classifiers: tuple[tuple[Mlp, np.ndarray], ...]  # (classifier, rows)
    # (regressor, W - I, rows)
    regressors: tuple[tuple[LinearRegressor, np.ndarray, np.ndarray], ...]
    cfg: RunConfig


def _rows_by_model(models) -> tuple[tuple, ...]:
    """(model, stack rows that use it) per distinct model, matched by identity."""
    rows: dict[int, tuple] = {}
    for row, model in enumerate(models):
        if model is not None:
            rows.setdefault(id(model), (model, []))[1].append(row)
    return tuple((model, np.array(model_rows)) for model, model_rows in rows.values())


def chain_constants(schedule: DiffusionSchedule, plans, cfg: RunConfig) -> ChainConstants:
    """Per-call constants of the reverse chains of ``plans``, a list of
    (classifier, regressor) pairs, guided at ``cfg``'s scales."""
    classifiers = [c for c, _ in plans] if cfg.classifier_scale else []
    regressors = [r for _, r in plans] if cfg.regressor_scale else []
    regressor_rows = _rows_by_model(regressors)
    for regressor, _ in regressor_rows:
        if regressor.weights.shape[0] != regressor.weights.shape[1]:
            raise ValueError("self-consistency guidance needs a square regressor")
    return ChainConstants(
        schedule.betas / np.sqrt(1.0 - schedule.alpha_bars),
        np.sqrt(schedule.alphas),
        np.sqrt(schedule.posterior_variance),
        _rows_by_model(classifiers),
        tuple((r, r.weights - np.eye(len(r.weights)), rows) for r, rows in regressor_rows),
        cfg,
    )


def sample_step(z, t: int, eps_hat, noise, chain: ChainConstants) -> np.ndarray:
    """One reverse step of every plan's (B, d) slice of the (P, B, d) stack ``z``.

    Each slice gets the posterior mean, its classifier's shift, then its
    regressor's shift, both guides evaluated at ``z``, then the (B, d)
    ``noise`` that all plans share (none at t=1). Each guide's gradient is
    one call over the slices of the plans that use it.
    """
    T = len(chain.eps_coefs)
    if not 1 <= t <= T:
        raise ValueError(f"step {t} outside [1, {T}]")
    mu = (z - chain.eps_coefs[t - 1] * eps_hat) / chain.sqrt_alphas[t - 1]
    cfg = chain.cfg
    for classifier, rows in chain.classifiers:
        # down the infeasibility-probability gradient
        mu[rows] -= cfg.classifier_scale * -mlp_grad_input(classifier, z[rows])
    for regressor, w_minus_i, rows in chain.regressors:
        # down the gradient of ||Wz + b - z||^2: 2 (Wz + b - z) (W - I) per row,
        # or 2 (z - y) with the prediction y held fixed
        zr = z[rows]
        predicted = regressor_predict(regressor, zr)
        if cfg.stop_gradient_y:
            grad = 2.0 * (zr - predicted)
        else:
            grad = 2.0 * (predicted - zr) @ w_minus_i
        mu[rows] -= cfg.regressor_scale * grad
    if t == 1:
        return mu
    mu += chain.noise_stds[t - 1] * noise
    return mu


def sample(
    conditions, denoiser: Mlp, schedule: DiffusionSchedule, seeds, plans, cfg: RunConfig
) -> np.ndarray:
    """Draw one latent per row of the (B, c) ``conditions`` under each of the
    P guidance ``plans``, (classifier, regressor) pairs, run in lockstep from
    t=T down to 1 on one (P, B, d) stack; returns (P, B, d). The guides push at
    ``cfg``'s ``classifier_scale`` and ``regressor_scale``, the regressor's
    prediction held fixed when ``cfg.stop_gradient_y``.

    Row i draws from its own generator, seeded by ``seeds[i]``: its starting
    latent, then one standard normal vector per step with t > 1, all taken up
    front (a generator's draws do not depend on how they are split into
    calls) into one buffer that every plan reads. So each row is deterministic
    for its seed and independent of the other rows, and paired-seed
    comparisons across plans share the starting latent and every noise draw.
    Each plan's slice keeps the bits of its chain run alone, since numpy makes
    one BLAS call per 2-D slice of a stacked product.
    """
    conditions = np.asarray(conditions, dtype=float)
    if conditions.ndim != 2 or len(conditions) != len(seeds):
        raise ValueError(
            f"need (B, c) conditions with one seed per row, got {conditions.shape} "
            f"and {len(seeds)} seeds"
        )
    if not len(plans):
        raise ValueError("need at least one guidance plan")
    chain = chain_constants(schedule, plans, cfg)
    latent_dim = denoiser.weights[-1].shape[0]
    # (B, T, d): step index 0 is the starting latent, T - t + 1 the step-t noise
    draws = np.empty((len(seeds), schedule.T, latent_dim))
    for row, seed in zip(draws, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    embeddings = timestep_embedding(np.arange(1, schedule.T + 1))
    # denoiser input rows [z_t, embedding of t, condition]; the conditions stay put
    cond_lo = latent_dim + TIMESTEP_EMBED_DIM
    feats = np.empty((len(plans), len(seeds), cond_lo + conditions.shape[1]))
    feats[..., cond_lo:] = conditions
    z = np.broadcast_to(draws[:, 0], feats.shape[:2] + (latent_dim,))
    for t in range(schedule.T, 0, -1):
        feats[..., :latent_dim] = z
        feats[..., latent_dim:cond_lo] = embeddings[t - 1]
        eps_hat, _ = mlp_forward(denoiser, feats)
        noise = draws[:, schedule.T - t + 1] if t > 1 else None
        z = sample_step(z, t, eps_hat, noise, chain)
    return z
