"""End-to-end orchestration: ground truth, dataset generation, pairing, repair,
variant runs.

Every stochastic stage derives its generator from the master seed through
labeled SeedSequence streams, so regeneration is bitwise stable and every
variant of the evaluation matrix shares per-condition starting noise
(paired-seed discipline).

A model is one latent row throughout. Ground truth is drawn straight into rows
and returned as two arrays, its conditions and its latents. Latents are
kernel-checked by ``geometry.check_latents`` a block at a time, a ground-truth
chunk, a chain block or a variant's repaired rows: a row's uint16 reason mask
has bit i set for InvalidReason(i) and is 0 when the row is valid. Eval is
three array steps: chain tasks return each guidance plan's latents and masks,
``repair`` re-maps a repair variant's rejected rows and returns new latents and
masks, and score tasks score only the valid rows, sampling each one's point
cloud straight from its latent row.
"""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager
from enum import Enum

import numpy as np

from . import diffusion
from .codec import condition_descriptor
from .config import RunConfig
from .geometry import (
    CANONICAL_ARC,
    CANONICAL_INACTIVE,
    CANONICAL_LINE,
    MAX_EDGES,
    SamplingStall,
    canonical_row,
    check_latents,
    sample_point_cloud,
)
from .metrics import mmd
from .nets import LinearRegressor, Mlp, regressor_predict

logger = logging.getLogger(__name__)

# SeedSequence stream labels; streams are (master_seed, label, *indices).
STREAM_TRAIN_GT = 0
STREAM_DATASET_GEN = 1
STREAM_EVAL_GT = 2
STREAM_EVAL_SAMPLE = 3
STREAM_CLOUD_GT = 4
STREAM_CLOUD_GEN = 5
STREAM_TRAINING = 6

# Rows per batched reverse-chain call, in gen_dataset and run_variants alike.
# Both lay their chains out as rows, one condition row and one seed-stream key
# each, and cut them into blocks of CHAIN_BLOCK rows from the row order alone,
# never from the worker count, so results do not depend on --threads. Each block
# is one _chain_task: it runs every guidance plan on the block in lockstep, all
# plans sharing the block's one noise buffer of CHAIN_BLOCK x T x 21 float64s,
# then kernel-checks every plan's rows with one check_latents call. Measured on
# the benchmark's gen config (1000 chains of T=100, 2-vCPU host, BLAS threads 1;
# gen_dataset in process, median of 5), as the total, its denoiser GEMMs on the
# (in, out) copies and its kernel checks: 8 rows 0.52 s (GEMMs 0.28, check
# 0.07); 32 rows 0.30 s (0.16, 0.05); 64 rows 0.27 s (0.16, 0.04); 128 rows
# 0.24 s (0.14, 0.04). The gen-dataset CLI's peak RSS is 39 to 42 MB. 64 rows
# take most of the gain and still cut an eval of a few hundred conditions into
# several chain tasks. The value fixes the artifacts of guided chains, not of
# unguided ones: there, a denoiser GEMM's rows have the same bits at any row
# count from 2 (gen's 1000 latents are bitwise equal at all four sizes), but
# not in a one-row block, and the classifier's one-wide output product rounds
# by its row count at most counts.
CHAIN_BLOCK = 64

_REJECTION_MIN_DRAWS = 1_000_000
_REJECTION_MIN_RATE = 1e-3

# Ground-truth generator ranges: margins inside the kernel bounds so that a
# well-trained sampler lands mostly on feasible shapes.
_TARGET_RANGE = 0.8
_BULGE_RANGE = 0.8
_DEPTH_RANGE = (0.1, 0.9)
_ARC_PROBABILITY = 0.3
_EDGE_COUNTS = (3, 5)


def seed_stream(master_seed: int, label: int, *indices: int) -> np.random.SeedSequence:
    """Deterministic named child stream of the master seed."""
    return np.random.SeedSequence([int(master_seed), int(label), *[int(i) for i in indices]])


def derived_seed(master_seed: int, label: int, *indices: int) -> int:
    """Single-integer seed derived from a labeled stream (for model training)."""
    return int(seed_stream(master_seed, label, *indices).generate_state(1)[0])


def _random_row(rng: np.random.Generator) -> list[float]:
    """One ground-truth candidate, drawn straight into a latent row at the
    canonical channels: 3 to 5 edges, each an arc with probability
    _ARC_PROBABILITY, then canonical inactive slots and the depth."""
    count = int(rng.integers(_EDGE_COUNTS[0], _EDGE_COUNTS[1] + 1))
    row = []
    for _ in range(count):
        is_arc = rng.random() < _ARC_PROBABILITY
        x, y = rng.uniform(-_TARGET_RANGE, _TARGET_RANGE, 2)
        bulge = float(rng.uniform(-_BULGE_RANGE, _BULGE_RANGE)) if is_arc else 0.0
        row += (CANONICAL_ARC if is_arc else CANONICAL_LINE, float(x), float(y), bulge)
    row += [CANONICAL_INACTIVE, 0.0, 0.0, 0.0] * (MAX_EDGES - count)
    row.append(float(rng.uniform(*_DEPTH_RANGE)))
    return row


def gen_ground_truth(n_conditions: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Rejection-sample kernel-valid latent rows: their condition descriptors,
    (n_conditions, CONDITION_DIM), and their canonical rows, (n_conditions,
    LATENT_DIM), in draw order.

    Rows are drawn from one generator in a fixed order, a chunk at a time of
    twice the remaining need, and each chunk is kernel-checked with one
    ``check_latents`` call. Draws are accepted in order up to the need, so the
    rows, the stall rule and the logged draw count are those of drawing and
    checking one row at a time. Each accepted row is replaced by
    ``geometry.canonical_row``, one representative per cyclic/orientation
    class, so the condition -> latent map stays (near-)unimodal.
    """
    if n_conditions < 1:
        raise ValueError("n_conditions must be >= 1")
    rng = np.random.default_rng(seed)
    conditions, latents = [], []
    draws = 0
    while len(latents) < n_conditions:
        # about half the draws pass, so a chunk mostly meets the need
        chunk = [_random_row(rng) for _ in range(2 * (n_conditions - len(latents)))]
        for row, mask in zip(chunk, check_latents(np.array(chunk))):
            draws += 1
            if not mask:
                # the canonical row is the same solid, so it keeps the row's mask
                latents.append(canonical_row(row))
                conditions.append(condition_descriptor(latents[-1], mask))
                if len(latents) == n_conditions:
                    break
            elif draws >= _REJECTION_MIN_DRAWS and len(latents) / draws < _REJECTION_MIN_RATE:
                raise SamplingStall(f"acceptance {len(latents) / draws:.2e} after {draws} draws")
    logger.info(
        "ground-truth acceptance rate %.3f (%d/%d)", len(latents) / draws, len(latents), draws
    )
    return np.array(conditions), np.array(latents)


def gen_dataset(
    conditions: np.ndarray, denoiser: Mlp, cfg: RunConfig, threads: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Generate the labeled dataset: ``cfg.generations_per_condition`` unguided
    sampled latents per ground-truth condition, a row of ``conditions``, and
    each latent's kernel reason mask (``geometry.check_latents``: bit i for
    InvalidReason(i), 0 if valid).

    Latents are (len(conditions) * generations_per_condition, d) in
    condition-major order: generation g of condition c is chain row
    c * generations_per_condition + g, seeded by (STREAM_DATASET_GEN, c, g) of
    ``cfg.master_seed``, on ``cfg``'s schedule. The rows run as ``_chain_task``
    blocks of the one unguided plan, each given its rows, their seed keys, the
    denoiser and ``cfg``, on at most min(threads, blocks) worker processes; the
    results do not depend on threads.
    """
    per = cfg.generations_per_condition
    n = len(conditions) * per
    keys = [(STREAM_DATASET_GEN, *divmod(row, per)) for row in range(n)]
    with _worker_pool(threads, math.ceil(n / CHAIN_BLOCK)) as map_fn:
        latents, masks = _run_chains(
            map_fn, np.repeat(conditions, per, axis=0), keys, [(None, None)], denoiser, cfg
        )
    return latents[0], masks[0]


def build_ssl_pairs(latents, valid, generations_per_condition: int) -> np.ndarray:
    """Pair each invalid generation with its nearest valid sibling.

    ``latents`` and ``valid`` are the condition-major rows of ``gen_dataset``.
    Returns (k, 2) rows of (invalid_row, valid_row) indices into ``latents``;
    conditions without a valid sibling contribute nothing, so k may be 0.
    """
    valid = np.asarray(valid, dtype=bool)
    pairs = []
    for lo in range(0, len(latents), generations_per_condition):
        rows = np.arange(lo, lo + generations_per_condition)
        siblings = rows[valid[rows]]
        if not len(siblings):
            continue
        sibling_latents = latents[siblings]
        for i in rows[~valid[rows]]:
            dists = np.linalg.norm(sibling_latents - latents[i], axis=1)
            pairs.append((i, siblings[int(np.argmin(dists))]))
    return np.array(pairs, dtype=int).reshape(-1, 2)


def build_gt_pairs(n_generated: int, generations_per_condition: int) -> np.ndarray:
    """(generated_row, ground_truth_row) for every generation, valid or not."""
    rows = np.arange(n_generated)
    return np.column_stack([rows, rows // generations_per_condition])


def repair(latents, masks, regressor: LinearRegressor) -> tuple[np.ndarray, np.ndarray]:
    """Self-repair a block of latents: re-map each kernel-rejected row through
    the regressor once, then kernel-check the re-mapped rows as one block.

    ``masks`` are the rows' ``check_latents`` reason masks. Returns new
    (latents, masks) arrays. A row whose mask is 0 comes back as it is, and so
    does a row holding inf or NaN, with its mask: every output of W z + b then
    sums a non-finite term, so no re-mapping could pass the kernel. The others
    go through one stacked (k, 1, d) product, whose slices round as a single
    row's product does, so a row's bits do not depend on the rows beside it.
    """
    latents, masks = np.array(latents, dtype=float), np.array(masks)
    rows = np.flatnonzero((masks != 0) & np.isfinite(latents).all(axis=1))
    latents[rows] = regressor_predict(regressor, latents[rows, None])[:, 0]
    masks[rows] = check_latents(latents[rows])
    return latents, masks


class VariantId(Enum):
    BASELINE = "baseline"
    VAR1 = "var1"
    VAR2 = "var2"
    VAR3 = "var3"
    VAR4 = "var4"
    VAR5 = "var5"
    FULL = "full"


# each variant's chain guidance, the model names (cli.MODELS keys) of its
# (classifier, regressor) guides, each or None, and the model name of its repair
# regressor or None; variants of equal guidance share one chain
_VARIANT_PLANS: dict[VariantId, tuple[tuple[str | None, str | None], str | None]] = {
    VariantId.BASELINE: ((None, None), None),
    VariantId.VAR1: ((None, None), "ssl_regressor"),
    VariantId.VAR2: ((None, None), "gt_regressor"),
    VariantId.VAR3: (("classifier", None), None),
    VariantId.VAR4: ((None, "ssl_regressor"), None),
    VariantId.VAR5: (("classifier", "ssl_regressor"), None),
    VariantId.FULL: (("classifier", "ssl_regressor"), "ssl_regressor"),
}


def _required_models(variant: VariantId) -> list[str]:
    guidance, repair_model = _VARIANT_PLANS[variant]
    return [name for name in ("denoiser", *guidance, repair_model) if name]


def ground_truth_cloud(latent, condition_id: int, cfg: RunConfig) -> np.ndarray:
    """The ``cfg.cloud_size``-point cloud of a condition's ground-truth latent
    row, a kernel-valid row of ``gen_ground_truth``, seeded by the condition's
    id alone."""
    seed = seed_stream(cfg.master_seed, STREAM_CLOUD_GT, condition_id)
    return sample_point_cloud(latent, cfg.cloud_size, seed, mask=0)


@contextmanager
def _worker_pool(threads: int, tasks: int):
    """Yield a ``map`` for ``tasks`` tasks, each a tuple of all its inputs: a
    process pool's, of min(threads, tasks) workers, or the builtin ``map``, in
    process, when that is 1. It may be called more than once while the pool is
    open."""
    workers = min(threads, tasks)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield pool.map
    else:
        yield map


def _chain_task(task):
    """One chain block, ``(conditions, keys, plans, denoiser, cfg)``: the
    block's condition rows, run for every guidance plan in one lockstep
    ``diffusion.sample`` call, row i seeded by ``keys[i]``'s stream of
    ``cfg.master_seed`` on ``cfg``'s schedule and guides. Returns the latents,
    (plans, rows, d), and their kernel reason masks, (plans, rows), from one
    ``check_latents`` call."""
    conditions, keys, plans, denoiser, cfg = task
    seeds = [seed_stream(cfg.master_seed, *key) for key in keys]
    latents = diffusion.sample(conditions, denoiser, seeds, plans, cfg)
    masks = check_latents(latents.reshape(-1, latents.shape[-1]))
    return latents, masks.reshape(latents.shape[:2])


def _run_chains(map_fn, conditions, keys, plans, denoiser, cfg) -> tuple[np.ndarray, np.ndarray]:
    """Map one chain row per row of ``conditions``, seeded by its entry of
    ``keys``, as ``_chain_task`` blocks of CHAIN_BLOCK rows, joined in block
    order: each plan's latents, (plans, n, d), and kernel reason masks,
    (plans, n)."""
    tasks = [
        (conditions[lo : lo + CHAIN_BLOCK], keys[lo : lo + CHAIN_BLOCK], plans, denoiser, cfg)
        for lo in range(0, len(conditions), CHAIN_BLOCK)
    ]
    latents, masks = zip(*map_fn(_chain_task, tasks))
    return np.concatenate(latents, axis=1), np.concatenate(masks, axis=1)


def _score_task(task) -> list[float]:
    """Each variant's MMD score on condition ``cid``, from ``(cid, latents,
    masks, ground_truth, cfg)``: each variant's final latent and kernel reason
    mask for it, and its ground-truth latent row. NaN where the mask is not 0.

    Each distinct valid latent is sampled once, so variants that share a row
    share its score. When there is one, the ground-truth row's cloud is sampled,
    and one ``mmd`` call scores every distinct cloud against it under one
    kernel: ``cfg``'s fixed bandwidth, or the ground-truth cloud's median
    pairwise distance.
    """
    cid, latents, masks, ground_truth, cfg = task
    rows = {z.tobytes(): z for z, mask in zip(latents, masks) if not mask}
    scores = {}
    if rows:
        seed = seed_stream(cfg.master_seed, STREAM_CLOUD_GEN, cid)
        clouds = [sample_point_cloud(z, cfg.cloud_size, seed, mask=0) for z in rows.values()]
        points = ground_truth_cloud(ground_truth, cid, cfg)
        scores = dict(zip(rows, mmd(points, clouds, cfg.fixed_sigma)))
    return [math.nan if mask else scores[z.tobytes()] for z, mask in zip(latents, masks)]


def run_variants(
    variants,
    conditions: np.ndarray,
    latents: np.ndarray,
    models: dict[str, Mlp | LinearRegressor],
    cfg: RunConfig,
    threads: int = 1,
) -> dict[VariantId, dict[str, np.ndarray]]:
    """Evaluate variants over the conditions, rows of ``conditions`` with their
    ground-truth latent rows ``latents``, with shared ground-truth clouds and
    paired per-condition seeds. ``models`` maps the model names of
    every variant's plan (``_required_models``) to the models. ``cfg`` gives
    the master seed, the schedule, the guidance scales and ``stop_gradient_y``,
    the cloud size and the MMD bandwidth (``fixed_sigma``).

    Chain row cid is condition cid, seeded by (STREAM_EVAL_SAMPLE, cid). Three
    steps run in turn. The ``_chain_task`` blocks run every distinct guidance
    plan (its models resolved once, here) in lockstep and kernel-check each
    plan's rows. Then each repair variant runs ``repair`` on its plan's rows,
    here, as one block. Last, one ``_score_task`` per condition samples each
    distinct valid final latent's cloud once and, if there is any, the
    ground-truth cloud, and scores them all in one ``mmd`` call: every variant
    of a condition is scored under one kernel, whose bandwidth and reference
    sum are computed once. Sharing is exact: every chain row and cloud is seeded
    by condition id alone, a plan's rows round the same in the stack as alone,
    and a cloud's score does not depend on the clouds beside it. Chain and
    score tasks map on one ``_worker_pool``, the pool ``gen_dataset`` uses too:
    at most min(threads, conditions) worker processes when threads > 1. Each
    task carries its inputs, so no model or array outlives the call here.

    Returns each variant's table, in the order of ``variants``: four arrays in
    condition order, the same at any thread count. ``latents`` (n, d) holds each
    row's final latent, ``masks`` (n,) its ``check_latents`` reason mask (0 when
    valid), ``repaired`` (n,) whether self-repair ran on it, and ``scores`` (n,)
    its MMD score against the condition's ground-truth cloud, NaN where the mask
    is not 0.
    """
    variants = list(variants)
    for variant in variants:
        for name in _required_models(variant):
            if models.get(name) is None:
                raise ValueError(f"variant {variant.value} needs model {name!r}")
    by_name = {None: None, **models}
    chosen = [_VARIANT_PLANS[v] for v in variants]
    plans = list(dict.fromkeys(guidance for guidance, _ in chosen))
    n = len(conditions)
    keys = [(STREAM_EVAL_SAMPLE, cid) for cid in range(n)]
    plan_models = [tuple(by_name[name] for name in plan) for plan in plans]
    tables = {}
    with _worker_pool(threads, n) as map_fn:
        chains, masks = _run_chains(map_fn, conditions, keys, plan_models, models["denoiser"], cfg)
        for variant, (guidance, repair_model) in zip(variants, chosen):
            plan = plans.index(guidance)
            z, m = chains[plan], masks[plan]
            repaired = (m != 0) & (repair_model is not None)
            if repair_model:
                z, m = repair(z, m, models[repair_model])
            tables[variant] = {"latents": z, "masks": m, "repaired": repaired}
        finals = [np.stack([t[k] for t in tables.values()], axis=1) for k in ("latents", "masks")]
        tasks = [(cid, z, m, latents[cid], cfg) for cid, (z, m) in enumerate(zip(*finals))]
        scores = np.array(list(map_fn(_score_task, tasks)))
    for table, column in zip(tables.values(), scores.T):
        table["scores"] = column
    return tables
