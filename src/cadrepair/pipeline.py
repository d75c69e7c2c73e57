"""End-to-end orchestration: dataset generation, pairing, repair, variant runs.

Every stochastic stage derives its generator from the master seed through
labeled SeedSequence streams, so regeneration is bitwise stable and every
variant of the evaluation matrix shares per-condition starting noise
(paired-seed discipline).
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import diffusion
from .codec import condition_descriptor, decode, encode
from .geometry import (
    CommandSequence,
    EdgeKind,
    SamplingStall,
    SketchEdge,
    ValidityReport,
    canonicalize_sequence,
    kernel_check,
    sample_point_cloud,
)
from .metrics import MmdConfig, mmd
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
# Blocks are cut from the row order alone, never from the worker count, so
# results do not depend on --threads. In gen-dataset a block is one task, which
# runs the block's unguided chains and decodes and kernel-checks its rows. In
# eval a block is one chain task, which runs every guidance plan on the block
# in lockstep. All plans share the block's one noise buffer of
# CHAIN_BLOCK x T x 21 float64s. Measured on the
# benchmark's gen config (1000 chains of T=100, 2-vCPU host, BLAS threads 1;
# chain time in process, median of 5, then the gen-dataset CLI's peak RSS):
# 8 rows 0.79 s, 38.7 MB; 32 rows 0.36 s, 39.3 MB; 64 rows 0.32 s, 40.0 MB;
# 128 rows 0.27 s, 41.5 MB. 64 rows take most of the gain and still cut an
# eval of a few hundred conditions into several chain tasks.
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


@dataclass(frozen=True)
class GroundTruthCondition:
    condition: np.ndarray
    sequence: CommandSequence
    latent: np.ndarray


def _random_sequence(rng: np.random.Generator) -> CommandSequence:
    count = int(rng.integers(_EDGE_COUNTS[0], _EDGE_COUNTS[1] + 1))
    edges = []
    for _ in range(count):
        is_arc = rng.random() < _ARC_PROBABILITY
        x, y = rng.uniform(-_TARGET_RANGE, _TARGET_RANGE, 2)
        bulge = float(rng.uniform(-_BULGE_RANGE, _BULGE_RANGE)) if is_arc else 0.0
        edges.append(
            SketchEdge(EdgeKind.ARC if is_arc else EdgeKind.LINE, (float(x), float(y)), bulge)
        )
    return CommandSequence(tuple(edges), float(rng.uniform(*_DEPTH_RANGE)))


def gen_ground_truth(n_conditions: int, seed) -> list[GroundTruthCondition]:
    """Rejection-sample kernel-valid sequences with their descriptors and latents."""
    if n_conditions < 1:
        raise ValueError("n_conditions must be >= 1")
    rng = np.random.default_rng(seed)
    out: list[GroundTruthCondition] = []
    draws = 0
    while len(out) < n_conditions:
        seq = _random_sequence(rng)
        draws += 1
        if kernel_check(seq).valid:
            # one representative per cyclic/orientation class, so the
            # condition -> latent map stays (near-)unimodal
            seq = canonicalize_sequence(seq)
            out.append(GroundTruthCondition(condition_descriptor(seq), seq, encode(seq)))
        elif draws >= _REJECTION_MIN_DRAWS and len(out) / draws < _REJECTION_MIN_RATE:
            raise SamplingStall(f"acceptance {len(out) / draws:.2e} after {draws} draws")
    logger.info("ground-truth acceptance rate %.3f (%d/%d)", len(out) / draws, len(out), draws)
    return out


def gen_dataset(
    ground_truth: list[GroundTruthCondition],
    generations_per_condition: int,
    denoiser: Mlp,
    schedule: diffusion.DiffusionSchedule,
    seed: int,
    threads: int = 1,
) -> tuple[np.ndarray, list[ValidityReport]]:
    """Generate the labeled dataset: several unguided sampled latents per
    ground-truth condition, and each latent's kernel report.

    Latents are (len(ground_truth) * generations_per_condition, d) in
    condition-major order: generation g of condition cid is row
    cid * generations_per_condition + g. The rows are cut into blocks of
    CHAIN_BLOCK rows from that order; each block is one task
    (``_gen_block_task``) that runs the block's chains, then decodes and
    kernel-checks its rows. threads > 1 runs the tasks on at most
    min(threads, blocks) worker processes; results join in block order, so
    they do not depend on ``threads``.
    """
    n = len(ground_truth) * generations_per_condition
    payload = {
        "conditions": np.array([gt.condition for gt in ground_truth]),
        "generations_per_condition": generations_per_condition,
        "denoiser": denoiser,
        "schedule": schedule,
        "seed": seed,
    }
    tasks = [(lo, min(lo + CHAIN_BLOCK, n)) for lo in range(0, n, CHAIN_BLOCK)]
    with _worker_pool(payload, threads, len(tasks)) as map_fn:
        blocks = list(map_fn(_gen_block_task, tasks))
    latents = np.vstack([block_latents for block_latents, _ in blocks])
    return latents, [report for _, reports in blocks for report in reports]


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


class RepairStage(Enum):
    VALID_DIRECT = "ValidDirect"
    REPAIRED_VALID = "RepairedValid"
    REPAIRED_INVALID = "RepairedInvalid"


@dataclass(frozen=True)
class RepairOutcome:
    stage: RepairStage
    final_latent: np.ndarray
    sequence: CommandSequence
    report: ValidityReport


def self_repair(latent, regressor: LinearRegressor) -> RepairOutcome:
    """Re-map a latent through the regressor once, then decode and kernel-check it.

    Precondition: ``latent`` already failed the kernel check. The caller gates
    on that check and keeps a valid latent as ``VALID_DIRECT`` itself, so this
    returns ``REPAIRED_VALID`` or ``REPAIRED_INVALID`` only.
    """
    repaired = regressor_predict(regressor, latent)
    sequence = decode(repaired)
    report = kernel_check(sequence)
    stage = RepairStage.REPAIRED_VALID if report.valid else RepairStage.REPAIRED_INVALID
    return RepairOutcome(stage, repaired, sequence, report)


class VariantId(Enum):
    BASELINE = "baseline"
    VAR1 = "var1"
    VAR2 = "var2"
    VAR3 = "var3"
    VAR4 = "var4"
    VAR5 = "var5"
    FULL = "full"


@dataclass
class TrainedModels:
    denoiser: Mlp | None = None
    classifier: Mlp | None = None
    ssl_regressor: LinearRegressor | None = None
    gt_regressor: LinearRegressor | None = None


@dataclass(frozen=True)
class _VariantPlan:
    # TrainedModels attribute names of the chain's (classifier, regressor)
    # guides, each or None; variants of equal guidance share one chain
    guidance: tuple[str | None, str | None]
    repair_model: str | None  # TrainedModels attribute name


_VARIANT_PLANS: dict[VariantId, _VariantPlan] = {
    VariantId.BASELINE: _VariantPlan((None, None), None),
    VariantId.VAR1: _VariantPlan((None, None), "ssl_regressor"),
    VariantId.VAR2: _VariantPlan((None, None), "gt_regressor"),
    VariantId.VAR3: _VariantPlan(("classifier", None), None),
    VariantId.VAR4: _VariantPlan((None, "ssl_regressor"), None),
    VariantId.VAR5: _VariantPlan(("classifier", "ssl_regressor"), None),
    VariantId.FULL: _VariantPlan(("classifier", "ssl_regressor"), "ssl_regressor"),
}


def _required_models(variant: VariantId) -> list[str]:
    plan = _VARIANT_PLANS[variant]
    return [name for name in ("denoiser", *plan.guidance, plan.repair_model) if name]


@dataclass(frozen=True)
class ConditionOutcome:
    condition_id: int
    valid: bool
    stage: RepairStage | None
    final_latent: np.ndarray
    mmd_score: float | None


def ground_truth_cloud(
    condition: GroundTruthCondition, condition_id: int, seed: int, mmd_config: MmdConfig
) -> np.ndarray:
    return sample_point_cloud(
        condition.sequence, mmd_config.cloud_size, seed_stream(seed, STREAM_CLOUD_GT, condition_id)
    )


_WORKER_CONTEXT: dict = {}


def _init_worker(payload) -> None:
    _WORKER_CONTEXT.clear()
    _WORKER_CONTEXT.update(payload)


@contextmanager
def _worker_pool(payload: dict, threads: int, tasks: int):
    """Yield a ``map`` whose calls run with ``payload`` as the worker context.

    It maps on a process pool of min(threads, tasks) workers, each given the
    payload once by the pool's initializer, or in process when that is 1. It
    may be called more than once while the pool is open.
    """
    workers = min(threads, tasks)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(payload,)
        ) as pool:
            yield pool.map
    else:
        _init_worker(payload)
        yield map


def _gen_block_task(task) -> tuple[np.ndarray, list[ValidityReport]]:
    """The unguided latents of dataset rows [lo, hi), (hi - lo, d), and each
    one's kernel report."""
    lo, hi = task
    ctx = _WORKER_CONTEXT
    cids, gens = np.divmod(np.arange(lo, hi), ctx["generations_per_condition"])
    latents = diffusion.sample(
        ctx["conditions"][cids],
        ctx["denoiser"],
        ctx["schedule"],
        [seed_stream(ctx["seed"], STREAM_DATASET_GEN, c, g) for c, g in zip(cids, gens)],
        [(None, None)],
    )[0]
    return latents, [kernel_check(decode(z)) for z in latents]


def _chain_task(task) -> np.ndarray:
    """Every guidance plan's latents of the lockstep reverse chains over
    conditions [lo, hi); (plans, hi - lo, d)."""
    lo, hi = task
    ctx = _WORKER_CONTEXT
    models = ctx["models"]
    return diffusion.sample(
        np.array([c.condition for c in ctx["conditions"][lo:hi]]),
        models.denoiser,
        ctx["schedule"],
        [seed_stream(ctx["seed"], STREAM_EVAL_SAMPLE, cid) for cid in range(lo, hi)],
        [tuple(getattr(models, name) if name else None for name in plan) for plan in ctx["plans"]],
        ctx["guidance"],
    )


def _score_task(task) -> list[ConditionOutcome]:
    """Every variant's outcome on one condition, given each plan's latent for it.

    Each plan's latent is decoded, kernel-checked and, if valid, scored once. A
    repair variant keeps a row valid before repair, latent and score alike, as
    ``VALID_DIRECT``; only an invalid row is repaired and scored.
    """
    cid, plan_latents = task
    ctx = _WORKER_CONTEXT
    seed, mmd_config, models = ctx["seed"], ctx["mmd_config"], ctx["models"]
    points = ground_truth_cloud(ctx["conditions"][cid], cid, seed, mmd_config)

    def scored(stage, latent, sequence, report):
        score = None
        if report.valid:
            cloud = sample_point_cloud(
                sequence, mmd_config.cloud_size, seed_stream(seed, STREAM_CLOUD_GEN, cid)
            )
            score = mmd(cloud, points, mmd_config)
        return ConditionOutcome(cid, report.valid, stage, latent, score)

    unrepaired = {}
    for guidance, z0 in zip(ctx["plans"], plan_latents):
        sequence = decode(z0)
        unrepaired[guidance] = scored(None, z0, sequence, kernel_check(sequence))
    outcomes = []
    for variant in ctx["variants"]:
        plan = _VARIANT_PLANS[variant]
        row = unrepaired[plan.guidance]
        if plan.repair_model is None:
            outcomes.append(row)
        elif row.valid:
            outcomes.append(replace(row, stage=RepairStage.VALID_DIRECT))
        else:
            r = self_repair(row.final_latent, getattr(models, plan.repair_model))
            outcomes.append(scored(r.stage, r.final_latent, r.sequence, r.report))
    return outcomes


def run_variants(
    variants,
    eval_conditions,
    models: TrainedModels,
    schedule: diffusion.DiffusionSchedule,
    seed: int,
    guidance: diffusion.GuidanceConfig = diffusion.GuidanceConfig(),
    mmd_config: MmdConfig = MmdConfig(),
    threads: int = 1,
) -> dict[VariantId, list[ConditionOutcome]]:
    """Evaluate variants over the condition set with shared ground-truth
    clouds and paired per-condition seeds.

    Two kinds of task run in turn: one chain task per block of CHAIN_BLOCK
    conditions, which runs every distinct guidance plan of the block in one
    lockstep ``diffusion.sample`` call with one noise buffer shared by all
    plans and returns only the latents, then one scoring task per condition
    (``_score_task``), which samples the ground-truth cloud once. Sharing is
    exact: every chain row and cloud is seeded by condition id alone, and a
    plan's rows round the same in the stack as alone. Both kinds map on one
    ``_worker_pool``, the pool ``gen_dataset`` uses too: at most
    min(threads, conditions) worker processes when threads > 1.

    Returns each variant's outcomes in condition order, in the order of
    ``variants``, at any thread count.
    """
    variants = list(variants)
    for variant in variants:
        for name in _required_models(variant):
            if getattr(models, name) is None:
                raise ValueError(f"variant {variant.value} needs model {name!r}")
    plans = list(dict.fromkeys(_VARIANT_PLANS[v].guidance for v in variants))
    payload = {
        "variants": variants,
        "plans": plans,
        "conditions": list(eval_conditions),
        "models": models,
        "schedule": schedule,
        "seed": seed,
        "guidance": guidance,
        "mmd_config": mmd_config,
    }
    n = len(eval_conditions)
    chain_tasks = [(lo, min(lo + CHAIN_BLOCK, n)) for lo in range(0, n, CHAIN_BLOCK)]
    with _worker_pool(payload, threads, n) as map_fn:
        latents = np.concatenate(list(map_fn(_chain_task, chain_tasks)), axis=1)  # (plans, n, d)
        outcomes = list(map_fn(_score_task, [(cid, latents[:, cid]) for cid in range(n)]))
    return {variant: [row[k] for row in outcomes] for k, variant in enumerate(variants)}
