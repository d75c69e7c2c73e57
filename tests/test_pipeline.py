import concurrent.futures
import functools
import math
import multiprocessing

import numpy as np
import pytest

from cadrepair import pipeline
from cadrepair.codec import decode, encode
from cadrepair.config import ModelTraining
from cadrepair.diffusion import GuidanceConfig, build_schedule, sample
from cadrepair.geometry import kernel_check
from cadrepair.metrics import MmdConfig
from cadrepair.nets import (
    LinearRegressor,
    OutputActivation,
    fit_linear_regressor,
    init_mlp,
    regressor_predict,
    train_denoiser,
)
from cadrepair.pipeline import (
    CHAIN_BLOCK,
    STREAM_DATASET_GEN,
    STREAM_TRAIN_GT,
    RepairStage,
    TrainedModels,
    VariantId,
    build_gt_pairs,
    build_ssl_pairs,
    gen_dataset,
    gen_ground_truth,
    run_variants,
    seed_stream,
    self_repair,
)

SCHED = build_schedule(100, 1e-4, 0.02)


def toy_models(seed=0):
    rng = np.random.default_rng(seed)
    return TrainedModels(
        denoiser=init_mlp([21 + 8 + 8, 16, 21], OutputActivation.IDENTITY, rng),
        classifier=init_mlp([21, 8, 1], OutputActivation.SIGMOID, rng),
        ssl_regressor=LinearRegressor(np.eye(21) * 0.9, rng.normal(size=21) * 0.01),
        gt_regressor=LinearRegressor(np.eye(21) * 0.8, rng.normal(size=21) * 0.01),
    )


# ---------------------------------------------------------------- ground truth


def test_ground_truth_all_valid_and_roundtrip():
    cases = gen_ground_truth(30, seed=1)
    assert len(cases) == 30
    for case in cases:
        assert kernel_check(case.sequence).valid
        assert decode(case.latent) == case.sequence
        assert case.condition.shape == (8,)
        assert 0.0 < case.condition[0] <= 1.0


def test_ground_truth_deterministic():
    a = gen_ground_truth(10, seed=5)
    b = gen_ground_truth(10, seed=5)
    for ca, cb in zip(a, b):
        assert ca.sequence == cb.sequence
        np.testing.assert_array_equal(ca.latent, cb.latent)


def test_ground_truth_requires_positive_count():
    with pytest.raises(ValueError):
        gen_ground_truth(0, seed=1)


# ---------------------------------------------------------------- dataset


def train_gt(n, seed):
    """The training ground truth of master seed ``seed``, as the CLI draws it."""
    return gen_ground_truth(n, seed_stream(seed, STREAM_TRAIN_GT))


def test_gen_dataset_counts_and_determinism():
    models = toy_models()
    ground_truth = train_gt(4, 11)
    latents, reports = gen_dataset(ground_truth, 3, models.denoiser, SCHED, seed=11)
    assert len(ground_truth) == 4
    assert latents.shape == (12, 21)
    assert len(reports) == 12
    again_gt = train_gt(4, 11)
    again_latents, again_reports = gen_dataset(again_gt, 3, models.denoiser, SCHED, seed=11)
    assert [gt.sequence for gt in again_gt] == [gt.sequence for gt in ground_truth]
    np.testing.assert_array_equal(again_latents, latents)
    assert again_reports == reports


def test_gen_dataset_labels_match_kernel():
    models = toy_models()
    latents, reports = gen_dataset(train_gt(3, 2), 2, models.denoiser, SCHED, seed=2)
    assert reports == [kernel_check(decode(z)) for z in latents]


def test_gen_dataset_blocks_match_single_chains(monkeypatch):
    # 3 x 5 = 15 chains: one short block by default, three full blocks of 4
    # and a 3-row tail block with CHAIN_BLOCK = 4; each row equals its own
    # one-row chain (to 1e-12: batched products round differently) and keeps
    # its condition-major (condition, generation) seed
    models = toy_models(seed=6)
    for block in (CHAIN_BLOCK, 4):
        assert 15 % block != 0
        monkeypatch.setattr(pipeline, "CHAIN_BLOCK", block)
        ground_truth = train_gt(3, 8)
        latents, reports = gen_dataset(ground_truth, 5, models.denoiser, SCHED, seed=8)
        for row, (z, report) in enumerate(zip(latents, reports)):
            cid, g = divmod(row, 5)
            (single,) = sample(ground_truth[cid].condition[None], models.denoiser, SCHED,
                               [seed_stream(8, STREAM_DATASET_GEN, cid, g)], [(None, None)])
            np.testing.assert_allclose(z, single[0], rtol=0.0, atol=1e-12)
            assert report == kernel_check(decode(single[0]))


# ---------------------------------------------------------------- pairing


def test_ssl_pairs_two_invalid_three_valid():
    latents = np.random.default_rng(3).normal(size=(5, 21))
    pairs = build_ssl_pairs(latents, [False, True, False, True, True], 5)
    assert pairs.shape == (2, 2)
    assert set(pairs[:, 0]) == {0, 2}
    assert set(pairs[:, 1]) <= {1, 3, 4}


def test_ssl_pairs_picks_nearest_valid():
    base = np.zeros(21)
    latents = np.array([base, base + 0.1, base + 5.0])
    pairs = build_ssl_pairs(latents, [False, True, True], 3)
    assert pairs.tolist() == [[0, 1]]


def test_ssl_pairs_invalid_only_condition_contributes_nothing():
    latents = np.random.default_rng(4).normal(size=(6, 21))
    pairs = build_ssl_pairs(latents, [False, False, False, False, True, True], 3)
    assert (pairs[:, 0] // 3 == 1).all()  # only the second condition pairs up
    assert len(pairs) == 1


def test_ssl_pairs_outputs_are_valid_rows():
    rng = np.random.default_rng(5)
    latents = rng.normal(size=(24, 21))
    valid = rng.random(24) < 0.5
    pairs = build_ssl_pairs(latents, valid, 4)
    by_condition = valid.reshape(6, 4)
    # one pair per invalid row of each condition that has a valid sibling
    assert len(pairs) == (~by_condition).sum(axis=1)[by_condition.any(axis=1)].sum()
    for invalid_row, valid_row in pairs:
        assert not valid[invalid_row]
        assert valid[valid_row]
        assert invalid_row // 4 == valid_row // 4  # siblings share a condition


def test_ssl_pairs_none_is_empty():
    latents = np.random.default_rng(6).normal(size=(3, 21))
    pairs = build_ssl_pairs(latents, [False, False, False], 3)
    assert pairs.shape == (0, 2)
    assert pairs.dtype == int


def test_gt_pairs_cover_every_generation():
    models = toy_models()
    ground_truth = train_gt(3, 7)
    latents, _ = gen_dataset(ground_truth, 4, models.denoiser, SCHED, seed=7)
    pairs = build_gt_pairs(len(latents), 4)
    assert pairs.shape == (12, 2)
    assert pairs[:, 0].tolist() == list(range(12))
    assert pairs[:, 1].tolist() == [0] * 4 + [1] * 4 + [2] * 4
    for gt in ground_truth:
        np.testing.assert_array_equal(encode(decode(gt.latent)), gt.latent)  # targets are canonical


# ---------------------------------------------------------------- repair


def test_repair_identity_regressor_cannot_fix():
    bad = np.zeros(21)  # all slots inactive: too few vertices
    identity = LinearRegressor(np.eye(21), np.zeros(21))
    outcome = self_repair(bad, identity)
    assert outcome.stage is RepairStage.REPAIRED_INVALID
    np.testing.assert_array_equal(outcome.final_latent, bad)
    assert not outcome.report.valid


def test_repair_fixture_recovers_validity():
    # break a valid canonical latent by flipping one activity channel across
    # its threshold, then fit a local regressor that maps it back
    target = encode(gen_ground_truth(1, seed=9)[0].sequence)
    broken = target.copy()
    broken[0] = -0.1  # first slot inactive: decodes to an empty sequence
    assert not kernel_check(decode(broken)).valid
    rng = np.random.default_rng(10)
    inputs = broken + rng.normal(0.0, 0.02, size=(60, 21))
    targets = np.tile(target, (60, 1))
    regressor = fit_linear_regressor(inputs, targets, ridge=1e-6)
    outcome = self_repair(broken, regressor)
    assert outcome.stage is RepairStage.REPAIRED_VALID
    assert outcome.report.valid
    np.testing.assert_array_equal(outcome.final_latent, regressor_predict(regressor, broken))


def test_repair_applies_regressor_once():
    bad = np.zeros(21)
    nudger = LinearRegressor(np.eye(21), np.full(21, 0.05))
    one = self_repair(bad, nudger)
    np.testing.assert_allclose(one.final_latent, np.full(21, 0.05))


def test_repair_mismatched_regressor_raises():
    with pytest.raises(ValueError, match="input width 21 != expected 5"):
        self_repair(np.zeros(21), LinearRegressor(np.zeros((5, 5)), np.zeros(5)))


# ---------------------------------------------------------------- variants


def test_run_variant_missing_model():
    models = TrainedModels(denoiser=toy_models().denoiser)
    conditions = gen_ground_truth(2, seed=12)
    with pytest.raises(ValueError, match="variant var3 needs model 'classifier'"):
        run_variants([VariantId.VAR3], conditions, models, SCHED, seed=1)


def test_variant_rows_paired_and_monotone():
    models = toy_models(seed=1)
    conditions = gen_ground_truth(6, seed=13)
    cfg = MmdConfig(cloud_size=64)
    outcomes = run_variants(
        [VariantId.BASELINE, VariantId.VAR5, VariantId.FULL],
        conditions,
        models,
        SCHED,
        seed=3,
        mmd_config=cfg,
    )
    n_valid = {v: sum(o.valid for o in rows) for v, rows in outcomes.items()}
    assert n_valid[VariantId.FULL] >= n_valid[VariantId.VAR5]  # repair only adds validity
    for rows in outcomes.values():
        assert [o.condition_id for o in rows] == list(range(6))
        assert all((o.mmd_score is not None) == o.valid for o in rows)  # scored iff valid


def test_variant_repair_counts_consistent():
    models = toy_models(seed=2)
    conditions = gen_ground_truth(5, seed=14)
    outcomes = run_variants(
        [VariantId.VAR1], conditions, models, SCHED, seed=4, mmd_config=MmdConfig(cloud_size=64)
    )[VariantId.VAR1]
    assert len(outcomes) == 5
    for o in outcomes:
        assert isinstance(o.stage, RepairStage)  # every row goes through self-repair
        assert o.valid == (o.stage is not RepairStage.REPAIRED_INVALID)
        assert (o.mmd_score is not None) == o.valid


def test_baseline_never_repairs():
    models = toy_models(seed=3)
    conditions = gen_ground_truth(4, seed=15)
    outcomes = run_variants(
        [VariantId.BASELINE], conditions, models, SCHED, seed=5, mmd_config=MmdConfig(cloud_size=64)
    )[VariantId.BASELINE]
    assert len(outcomes) == 4
    assert all(o.stage is None for o in outcomes)


def test_run_variants_parallel_matches_serial():
    models = toy_models(seed=4)
    conditions = gen_ground_truth(4, seed=16)
    cfg = MmdConfig(cloud_size=64)
    serial = run_variants(
        [VariantId.BASELINE, VariantId.VAR1], conditions, models, SCHED, seed=6, mmd_config=cfg
    )
    parallel = run_variants(
        [VariantId.BASELINE, VariantId.VAR1],
        conditions,
        models,
        SCHED,
        seed=6,
        mmd_config=cfg,
        threads=2,
    )
    assert list(serial) == list(parallel)
    for variant in serial:
        a = [(o.condition_id, o.valid, o.stage, o.mmd_score) for o in serial[variant]]
        b = [(o.condition_id, o.valid, o.stage, o.mmd_score) for o in parallel[variant]]
        assert a == b


def test_guided_variants_use_guidance():
    # each guided variant passes exactly its own models: with the scales of
    # its own terms at zero it reproduces the baseline bitwise, whatever the
    # other term's scale; with its own scale non-zero it diverges from it
    models = toy_models(seed=5)
    conditions = gen_ground_truth(3, seed=17)
    cfg = MmdConfig(cloud_size=64)

    def final_latents(variant, guidance):
        outcomes = run_variants(
            [variant], conditions, models, SCHED, seed=7, guidance=guidance, mmd_config=cfg
        )[variant]
        return [o.final_latent for o in outcomes]

    base = final_latents(VariantId.BASELINE, GuidanceConfig())
    for variant, silent, active in (
        (VariantId.VAR3, GuidanceConfig(0.0, 10.0), GuidanceConfig(10.0, 0.0)),
        (VariantId.VAR4, GuidanceConfig(10.0, 0.0), GuidanceConfig(0.0, 10.0)),
        (VariantId.VAR5, GuidanceConfig(0.0, 0.0), GuidanceConfig()),
    ):
        for a, b in zip(base, final_latents(variant, silent)):
            np.testing.assert_array_equal(a, b)
        guided = final_latents(variant, active)
        assert any(not np.array_equal(a, b) for a, b in zip(base, guided)), variant


def test_run_variants_blocks_match_single_conditions(monkeypatch):
    # 11 conditions: one short block by default, two full blocks of 4 and a
    # 3-row tail block with CHAIN_BLOCK = 4; every row agrees with its own
    # one-row chain (CHAIN_BLOCK = 1) to 1e-12, since batched products round
    # differently, and blocks never depend on the worker count
    conditions = gen_ground_truth(11, seed=18)
    models = toy_models(seed=7)
    # var1 repairs every sample onto one valid latent, so every row is scored
    models.ssl_regressor = LinearRegressor(np.zeros((21, 21)), conditions[0].latent)
    cfg = MmdConfig(cloud_size=64)
    variants = [VariantId.BASELINE, VariantId.VAR1]

    def run(block, threads=1):
        monkeypatch.setattr(pipeline, "CHAIN_BLOCK", block)
        return run_variants(
            variants, conditions, models, SCHED, seed=9, mmd_config=cfg, threads=threads
        )

    single = run(1)
    for block in (CHAIN_BLOCK, 4):
        assert 11 % block != 0
        serial, parallel = run(block), run(block, threads=2)
        for variant in variants:
            outcomes = serial[variant]
            assert [o.condition_id for o in outcomes] == list(range(11))
            for a, b in zip(outcomes, parallel[variant]):
                np.testing.assert_array_equal(a.final_latent, b.final_latent)
                assert (a.valid, a.stage, a.mmd_score) == (b.valid, b.stage, b.mmd_score)
            for outcome, one in zip(outcomes, single[variant]):
                np.testing.assert_allclose(
                    outcome.final_latent, one.final_latent, rtol=0.0, atol=1e-12
                )
                assert (outcome.valid, outcome.stage) == (one.valid, one.stage)
                if one.mmd_score is not None:
                    assert abs(outcome.mmd_score - one.mmd_score) <= 1e-12
        assert all(o.mmd_score is not None for o in serial[VariantId.VAR1])


def _sharing_case(monkeypatch):
    # CHAIN_BLOCK = 8 gives a full block and a 3-row tail block; a briefly
    # trained denoiser and weak guidance make some samples valid before
    # repair, and the toy regressors repair some of the others
    monkeypatch.setattr(pipeline, "CHAIN_BLOCK", 8)
    conditions = gen_ground_truth(11, seed=19)
    train = gen_ground_truth(64, seed=30)
    models = toy_models(seed=8)
    models.denoiser = train_denoiser(
        [gt.condition for gt in train],
        [gt.latent for gt in train],
        SCHED,
        ModelTraining(epochs=100, batch_size=16, learning_rate=3e-3),
        seed=1,
    ).model
    return conditions, models, GuidanceConfig(0.1, 0.01), MmdConfig(cloud_size=64)


def test_run_variants_shared_chains_match_single_variants(monkeypatch):
    conditions, models, guidance, cfg = _sharing_case(monkeypatch)

    def run(variants, threads=1):
        return run_variants(variants, conditions, models, SCHED, 10, guidance, cfg, threads=threads)

    together = {threads: run(list(VariantId), threads) for threads in (1, 2)}
    for variant in VariantId:
        (alone,) = run([variant]).values()
        for outcomes in (together[1][variant], together[2][variant]):
            assert len(outcomes) == len(alone) == len(conditions)
            for a, b in zip(alone, outcomes):
                assert np.array_equal(a.final_latent, b.final_latent)
                assert (a.condition_id, a.valid, a.stage, a.mmd_score) == (
                    b.condition_id, b.valid, b.stage, b.mmd_score
                )
    for variant in (VariantId.VAR1, VariantId.VAR2, VariantId.FULL):
        assert {o.stage for o in together[1][variant]} == set(RepairStage), variant


def test_run_variants_runs_each_plan_once_and_scores_each_latent_once(monkeypatch):
    conditions, models, guidance, cfg = _sharing_case(monkeypatch)
    calls = {"sample": 0, "ground_truth_cloud": 0, "mmd": 0, "decode": 0, "self_repair": 0}

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(pipeline.diffusion, "sample", spy("sample", pipeline.diffusion.sample))
    for name in ("ground_truth_cloud", "mmd", "decode", "self_repair"):
        monkeypatch.setattr(pipeline, name, spy(name, getattr(pipeline, name)))
    outcomes = run_variants(list(VariantId), conditions, models, SCHED, 10, guidance, cfg)
    # one lockstep chain of all 4 guidance plans per block
    assert calls["sample"] == math.ceil(len(conditions) / pipeline.CHAIN_BLOCK) == 2
    assert calls["ground_truth_cloud"] == len(conditions)
    unrepaired = (VariantId.BASELINE, VariantId.VAR3, VariantId.VAR4, VariantId.VAR5)
    repaired = (VariantId.VAR1, VariantId.VAR2, VariantId.FULL)
    n_valid = sum(o.valid for v in unrepaired for o in outcomes[v])
    n_repaired = sum(o.stage is RepairStage.REPAIRED_VALID for v in repaired for o in outcomes[v])
    assert 0 < n_valid and 0 < n_repaired
    assert calls["mmd"] == n_valid + n_repaired
    # each chain row is decoded once; self-repair decodes only its repaired latent
    n_attempted = sum(
        o.stage is not RepairStage.VALID_DIRECT for v in repaired for o in outcomes[v]
    )
    assert calls["self_repair"] == n_attempted
    assert calls["decode"] == 4 * len(conditions) + n_attempted


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_run_variants_pool_matches_serial_under_start_method(monkeypatch, method):
    # workers that do not fork get the payload pickled: the default on macOS
    # (spawn) and, from Python 3.14, on Linux (forkserver)
    conditions = gen_ground_truth(11, seed=18)
    models = toy_models(seed=7)
    cfg = MmdConfig(cloud_size=64)
    variants = [VariantId.BASELINE, VariantId.VAR1]
    serial = run_variants(variants, conditions, models, SCHED, seed=9, mmd_config=cfg)
    pool = functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)
    )
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    pooled = run_variants(variants, conditions, models, SCHED, seed=9, mmd_config=cfg, threads=2)
    assert list(pooled) == variants
    for variant in variants:
        assert len(pooled[variant]) == len(conditions)
        for a, b in zip(serial[variant], pooled[variant]):
            np.testing.assert_array_equal(a.final_latent, b.final_latent)
            assert (a.condition_id, a.valid, a.stage, a.mmd_score) == (
                b.condition_id, b.valid, b.stage, b.mmd_score
            )


def test_run_variants_starts_no_more_workers_than_tasks(monkeypatch):
    # one scoring task per condition: at most min(threads, n) workers, and no
    # pool for a single condition
    pool_sizes = []

    class SerialPool:
        """ProcessPoolExecutor stand-in that records its size and maps in process."""

        def __init__(self, max_workers, initializer, initargs):
            pool_sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    for threads, n, workers in ((64, 11, [11]), (3, 11, [3]), (4, 1, [])):
        pool_sizes.clear()
        outcomes = run_variants(
            [VariantId.BASELINE],
            gen_ground_truth(n, seed=20),
            toy_models(seed=9),
            SCHED,
            seed=11,
            mmd_config=MmdConfig(cloud_size=64),
            threads=threads,
        )
        assert pool_sizes == workers, (threads, n)
        assert [o.condition_id for o in outcomes[VariantId.BASELINE]] == list(range(n))
