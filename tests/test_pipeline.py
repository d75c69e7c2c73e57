import numpy as np
import pytest

from cadrepair.codec import decode, encode
from cadrepair.diffusion import GuidanceConfig, build_schedule, sample
from cadrepair.geometry import kernel_check
from cadrepair.metrics import MmdConfig
from cadrepair.nets import (
    DimensionMismatch,
    LinearRegressor,
    OutputActivation,
    fit_linear_regressor,
    init_mlp,
)
from cadrepair.pipeline import (
    CHAIN_BLOCK,
    STREAM_DATASET_GEN,
    MissingModel,
    NoPairs,
    RepairStage,
    TrainedModels,
    VariantId,
    build_gt_pairs,
    build_ssl_pairs,
    gen_dataset,
    gen_ground_truth,
    evaluate_condition,
    ground_truth_cloud,
    run_variants,
    seed_stream,
    self_repair,
    summarize_outcomes,
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


def test_gen_dataset_counts_and_determinism():
    models = toy_models()
    ground_truth, latents, reports = gen_dataset(4, 3, models.denoiser, SCHED, seed=11)
    assert len(ground_truth) == 4
    assert latents.shape == (12, 21)
    assert len(reports) == 12
    again_gt, again_latents, again_reports = gen_dataset(4, 3, models.denoiser, SCHED, seed=11)
    assert [gt.sequence for gt in again_gt] == [gt.sequence for gt in ground_truth]
    np.testing.assert_array_equal(again_latents, latents)
    assert again_reports == reports


def test_gen_dataset_labels_match_kernel():
    models = toy_models()
    _, latents, reports = gen_dataset(3, 2, models.denoiser, SCHED, seed=2)
    assert reports == [kernel_check(decode(z)) for z in latents]


def test_gen_dataset_blocks_match_single_chains():
    # 3 x 5 = 15 chains: one full block and a 7-row tail block; each row
    # equals its own one-row chain (to 1e-12: batched products round
    # differently) and keeps its condition-major (condition, generation) seed
    assert 15 % CHAIN_BLOCK != 0
    models = toy_models(seed=6)
    ground_truth, latents, reports = gen_dataset(3, 5, models.denoiser, SCHED, seed=8)
    for row, (z, report) in enumerate(zip(latents, reports)):
        cid, g = divmod(row, 5)
        single = sample(ground_truth[cid].condition[None], models.denoiser, SCHED,
                        [seed_stream(8, STREAM_DATASET_GEN, cid, g)])
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


def test_ssl_pairs_none_raises():
    latents = np.random.default_rng(6).normal(size=(3, 21))
    with pytest.raises(NoPairs):
        build_ssl_pairs(latents, [False, False, False], 3)


def test_gt_pairs_cover_every_generation():
    models = toy_models()
    ground_truth, latents, _ = gen_dataset(3, 4, models.denoiser, SCHED, seed=7)
    pairs = build_gt_pairs(len(latents), 4)
    assert pairs.shape == (12, 2)
    assert pairs[:, 0].tolist() == list(range(12))
    assert pairs[:, 1].tolist() == [0] * 4 + [1] * 4 + [2] * 4
    for gt in ground_truth:
        np.testing.assert_array_equal(encode(decode(gt.latent)), gt.latent)  # targets are canonical


# ---------------------------------------------------------------- repair


def test_repair_valid_direct_never_calls_regressor():
    valid_latent = encode(gen_ground_truth(1, seed=8)[0].sequence)
    broken = LinearRegressor(np.zeros((5, 5)), np.zeros(5))  # would raise if applied
    outcome = self_repair(valid_latent, broken)
    assert outcome.stage is RepairStage.VALID_DIRECT
    assert outcome.post_repair is None
    np.testing.assert_array_equal(outcome.final_latent, valid_latent)


def test_repair_identity_regressor_cannot_fix():
    bad = np.zeros(21)  # all slots inactive: too few vertices
    identity = LinearRegressor(np.eye(21), np.zeros(21))
    outcome = self_repair(bad, identity)
    assert outcome.stage is RepairStage.REPAIRED_INVALID
    np.testing.assert_array_equal(outcome.post_repair, bad)
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
    np.testing.assert_array_equal(outcome.pre_repair, broken)


def test_repair_applies_regressor_once():
    bad = np.zeros(21)
    nudger = LinearRegressor(np.eye(21), np.full(21, 0.05))
    one = self_repair(bad, nudger)
    np.testing.assert_allclose(one.post_repair, np.full(21, 0.05))


def test_repair_mismatched_regressor_raises():
    with pytest.raises(DimensionMismatch):
        self_repair(np.zeros(21), LinearRegressor(np.zeros((5, 5)), np.zeros(5)))


# ---------------------------------------------------------------- variants


def test_run_variant_missing_model():
    models = TrainedModels(denoiser=toy_models().denoiser)
    conditions = gen_ground_truth(2, seed=12)
    with pytest.raises(MissingModel):
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
    rows = {v.value: summarize_outcomes(v, o) for v, o in outcomes.items()}
    assert rows["full"].n_valid >= rows["var5"].n_valid  # repair only adds validity
    for row in rows.values():
        assert row.n == 6
        assert row.feasibility == row.n_valid / row.n
        assert int(row.histogram.counts.sum()) == len(row.mmd_scores)


def test_variant_repair_counts_consistent():
    models = toy_models(seed=2)
    conditions = gen_ground_truth(5, seed=14)
    outcomes = run_variants(
        [VariantId.VAR1], conditions, models, SCHED, seed=4, mmd_config=MmdConfig(cloud_size=64)
    )[VariantId.VAR1]
    row = summarize_outcomes(VariantId.VAR1, outcomes)
    stages = [o.stage for o in outcomes]
    assert row.repaired_count == sum(s is RepairStage.REPAIRED_VALID for s in stages)
    assert row.repair_failed_count == sum(s is RepairStage.REPAIRED_INVALID for s in stages)
    direct = sum(s is RepairStage.VALID_DIRECT for s in stages)
    assert direct + row.repaired_count == row.n_valid


def test_baseline_never_repairs():
    models = toy_models(seed=3)
    conditions = gen_ground_truth(4, seed=15)
    outcomes = run_variants(
        [VariantId.BASELINE], conditions, models, SCHED, seed=5, mmd_config=MmdConfig(cloud_size=64)
    )[VariantId.BASELINE]
    row = summarize_outcomes(VariantId.BASELINE, outcomes)
    assert row.repaired_count == 0
    assert row.repair_failed_count == 0


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
        a = summarize_outcomes(variant, serial[variant])
        b = summarize_outcomes(variant, parallel[variant])
        assert a.n_valid == b.n_valid
        assert a.mmd_scores == b.mmd_scores


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


def test_run_variants_blocks_match_single_conditions():
    # 11 conditions: a full block and a 3-row tail block per variant
    assert 11 % CHAIN_BLOCK != 0
    conditions = gen_ground_truth(11, seed=18)
    models = toy_models(seed=7)
    # var1 repairs every sample onto one valid latent, so every row is scored
    models.ssl_regressor = LinearRegressor(np.zeros((21, 21)), conditions[0].latent)
    cfg = MmdConfig(cloud_size=64)
    variants = [VariantId.BASELINE, VariantId.VAR1]
    serial = run_variants(variants, conditions, models, SCHED, seed=9, mmd_config=cfg)
    parallel = run_variants(
        variants, conditions, models, SCHED, seed=9, mmd_config=cfg, threads=2
    )
    for variant in variants:
        outcomes = serial[variant]
        assert [o.condition_id for o in outcomes] == list(range(11))
        for a, b in zip(outcomes, parallel[variant]):
            np.testing.assert_array_equal(a.final_latent, b.final_latent)
            assert (a.valid, a.stage, a.mmd_score) == (b.valid, b.stage, b.mmd_score)
        for i, outcome in enumerate(outcomes):
            points = ground_truth_cloud(conditions[i], i, 9, cfg).points
            (single,) = evaluate_condition(
                variant, [i], [conditions[i]], [points], models, SCHED, 9, GuidanceConfig(), cfg
            )
            np.testing.assert_allclose(
                outcome.final_latent, single.final_latent, rtol=0.0, atol=1e-12
            )
            assert (outcome.valid, outcome.stage) == (single.valid, single.stage)
            if single.mmd_score is not None:
                assert abs(outcome.mmd_score - single.mmd_score) <= 1e-12
    assert all(o.mmd_score is not None for o in serial[VariantId.VAR1])
