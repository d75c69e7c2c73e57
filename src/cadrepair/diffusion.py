"""Conditional DDPM over latent vectors with feasibility-guided denoising.

``sample`` runs the reverse chains of one batch of conditions under several
guidance plans at once. A plan is a (classifier, regressor) pair, either of
which may be None. The plans run in lockstep on a (P, B, d) stack and share
one noise buffer: each starts from the same z_T and adds the same per-step
noise, as paired seeds would give it anyway. Each reverse step forms the
epsilon-parameterized posterior mean, steps it down the gradient of each guide of
the plan (the classifier's infeasibility, then the regressor's self-consistency
loss, both at the current noisy latent), then adds posterior-variance noise; the
final step is deterministic. Only ``chain_constants`` reads the run config: it
builds the schedule and the guide table of (gradient, step sizes, rows) entries.

The networks' forward passes multiply by (in, out) copies of their weights,
which ``chain_constants`` makes once per ``sample`` call: each weight matrix
copied to Fortran order, so that ``mlp_forward``'s ``w.T`` is C-contiguous.
At the sampler's block sizes OpenBLAS runs most of these NN products faster
than NT products against the (out, in) weights, some twice as fast, and rounds
some sizes differently, so the copies are part of what a seeded chain
computes. The classifier's backward pass multiplies by its own (out, in)
weights, already an NN product.

Stacking keeps each plan's bits. numpy multiplies a (P, B, K) stack by a
(K, N) matrix with one BLAS call per C-contiguous (B, K) slice, so each plan
rounds as its own chain would. Merging the plans into one (P*B, K) batch
would still not: with OpenBLAS, a one-row product rounds unlike a row of a
larger one, and so does the classifier's one-wide output product at most row
counts. Every other product gives a row the same bits at any row count from 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

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

    Per-step arrays hold the step-t value at index t-1, the guides' ``steps``
    too. Each distinct classifier, then each distinct regressor, has one guide: its
    gradient at each latent of a stack, and the ``rows`` of the (P, B, d) stack
    whose plans use it. ``denoiser`` is the (in, out) copy of the denoiser whose
    forward passes the chains run, or None when no denoiser was given.
    """

    eps_coefs: np.ndarray  # beta_t / sqrt(1 - alpha_bar_t)
    sqrt_alphas: np.ndarray
    noise_stds: np.ndarray  # sqrt of the posterior variance
    guides: tuple[tuple, ...]  # (gradient, steps, rows)
    denoiser: Mlp | None


def _in_out_copy(model: Mlp) -> Mlp:
    """``model`` with the same values, each weight matrix copied to Fortran
    order, so that each ``w.T`` that ``mlp_forward`` multiplies by is a
    C-contiguous (in, out) matrix."""
    return replace(model, weights=[np.asfortranarray(w) for w in model.weights])


def infeasibility_grad(classifier: Mlp, in_out: Mlp, z) -> np.ndarray:
    """Gradient of the infeasibility probability 1 - p(feasible | z), per row of
    ``z``: the forward pass runs on ``in_out``, the classifier's (in, out) copy,
    and the backward pass multiplies by the classifier's own (out, in) weights."""
    return -mlp_grad_input(classifier, z, mlp_forward(in_out, z))


def consistency_grad(regressor: LinearRegressor, w_minus_i, stop_gradient_y: bool, z):
    """Gradient of the self-consistency loss ||Wz + b - z||^2 per row of ``z``:
    2 (Wz + b - z) (W - I), or 2 (z - y) with the prediction y held fixed."""
    predicted = regressor_predict(regressor, z)
    if stop_gradient_y:
        return 2.0 * (z - predicted)
    return 2.0 * (predicted - z) @ w_minus_i


def _rows_by_model(models) -> tuple[tuple, ...]:
    """(model, stack rows that use it) per distinct model, matched by identity."""
    rows: dict[int, tuple] = {}
    for row, model in enumerate(models):
        if model is not None:
            rows.setdefault(id(model), (model, []))[1].append(row)
    return tuple((model, np.array(model_rows)) for model, model_rows in rows.values())


def chain_constants(plans, cfg: RunConfig, denoiser: Mlp | None = None) -> ChainConstants:
    """Per-call constants of the chains of ``plans``, (classifier, regressor) pairs,
    on ``cfg``'s schedule, each guide stepped at ``cfg``'s scale of its kind at every
    t. A kind whose scale is 0 gets no entries, so its plans step unguided. Each
    classifier's guide, and ``denoiser`` if given, get (in, out) copies."""
    schedule = build_schedule(cfg.timesteps, cfg.beta_start, cfg.beta_end)
    classifiers = _rows_by_model(c for c, _ in plans) if cfg.classifier_scale else ()
    regressors = _rows_by_model(r for _, r in plans) if cfg.regressor_scale else ()
    guides = [
        (
            partial(infeasibility_grad, c, _in_out_copy(c)),
            np.full(schedule.T, cfg.classifier_scale, float),
            rows,
        )
        for c, rows in classifiers
    ]
    for regressor, rows in regressors:
        w = regressor.weights
        if w.shape[0] != w.shape[1]:
            raise ValueError("self-consistency guidance needs a square regressor")
        grad = partial(consistency_grad, regressor, w - np.eye(len(w)), cfg.stop_gradient_y)
        guides.append((grad, np.full(schedule.T, cfg.regressor_scale, float), rows))
    return ChainConstants(
        schedule.betas / np.sqrt(1.0 - schedule.alpha_bars),
        np.sqrt(schedule.alphas),
        np.sqrt(schedule.posterior_variance),
        tuple(guides),
        None if denoiser is None else _in_out_copy(denoiser),
    )


def sample_step(z, t: int, eps_hat, noise, chain: ChainConstants) -> np.ndarray:
    """One reverse step of every plan's (B, d) slice of the (P, B, d) stack ``z``.

    Each slice gets the posterior mean, then a step of ``steps[t - 1]`` down the
    gradient at ``z`` of each guide of ``chain.guides`` that its plan uses, in
    table order, then the (B, d) ``noise`` that all plans share (none at t=1).
    Each guide's gradient is one call over the slices of the plans that use it.
    """
    T = len(chain.eps_coefs)
    if not 1 <= t <= T:
        raise ValueError(f"step {t} outside [1, {T}]")
    mu = (z - chain.eps_coefs[t - 1] * eps_hat) / chain.sqrt_alphas[t - 1]
    for grad, steps, rows in chain.guides:
        mu[rows] -= steps[t - 1] * grad(z[rows])
    if t == 1:
        return mu
    mu += chain.noise_stds[t - 1] * noise
    return mu


def sample(conditions, denoiser: Mlp, seeds, plans, cfg: RunConfig) -> np.ndarray:
    """Draw one latent per row of the (B, c) ``conditions`` under each of the
    P guidance ``plans``, (classifier, regressor) pairs, run in lockstep from
    t=T down to 1 on one (P, B, d) stack; returns (P, B, d). ``cfg`` fixes the
    schedule and the guides, through ``chain_constants``.

    Row i draws from its own generator, seeded by ``seeds[i]``: its starting
    latent, then one standard normal vector per step with t > 1, all taken up
    front (a generator's draws do not depend on how they are split into
    calls) into one buffer that every plan reads. So each row is deterministic
    for its seed and independent of the other rows, and paired-seed
    comparisons across plans share the starting latent and every noise draw.
    Each plan's slice keeps the bits of its chain run alone, since numpy makes
    one BLAS call per 2-D slice of a stacked product. The denoiser and each
    classifier run their forward passes on the (in, out) copies that
    ``chain_constants`` makes for this call.
    """
    conditions = np.asarray(conditions, dtype=float)
    if conditions.ndim != 2 or len(conditions) != len(seeds):
        raise ValueError(
            f"need (B, c) conditions with one seed per row, got {conditions.shape} "
            f"and {len(seeds)} seeds"
        )
    if not len(plans):
        raise ValueError("need at least one guidance plan")
    chain = chain_constants(plans, cfg, denoiser)
    T = cfg.timesteps
    latent_dim = denoiser.weights[-1].shape[0]
    # (B, T, d): step index 0 is the starting latent, T - t + 1 the step-t noise
    draws = np.empty((len(seeds), T, latent_dim))
    for row, seed in zip(draws, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    embeddings = timestep_embedding(np.arange(1, T + 1))
    # denoiser input rows [z_t, embedding of t, condition]; the conditions stay put
    cond_lo = latent_dim + TIMESTEP_EMBED_DIM
    feats = np.empty((len(plans), len(seeds), cond_lo + conditions.shape[1]))
    feats[..., cond_lo:] = conditions
    z = np.broadcast_to(draws[:, 0], feats.shape[:2] + (latent_dim,))
    for t in range(T, 0, -1):
        feats[..., :latent_dim] = z
        feats[..., latent_dim:cond_lo] = embeddings[t - 1]
        eps_hat, _ = mlp_forward(chain.denoiser, feats)
        noise = draws[:, T - t + 1] if t > 1 else None
        z = sample_step(z, t, eps_hat, noise, chain)
    return z
