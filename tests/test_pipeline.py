import numpy as np
import pytest

from cadrepair.codec import decode, encode, quantize
from cadrepair.diffusion import GuidanceConfig, UNGUIDED, build_schedule, initial_latent, sample
from cadrepair.geometry import InvalidReason, ValidityReport, kernel_check
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
    STREAM_EVAL_SAMPLE,
    DatasetRecord,
    Generation,
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
    stack_generated_latents,
    stack_ground_truth_latents,
)

SCHED = build_schedule(100, 1e-4, 0.02)
VALID = ValidityReport.from_reasons([])
INVALID = ValidityReport.from_reasons([InvalidReason.TOO_FEW_VERTICES])


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
    records = gen_dataset(4, 3, models.denoiser, UNGUIDED, SCHED, seed=11)
    assert len(records) == 4
    assert all(len(r.generations) == 3 for r in records)
    assert stack_generated_latents(records).shape == (12, 21)
    assert stack_ground_truth_latents(records).shape == (4, 21)
    again = gen_dataset(4, 3, models.denoiser, UNGUIDED, SCHED, seed=11)
    for r1, r2 in zip(records, again):
        for g1, g2 in zip(r1.generations, r2.generations):
            np.testing.assert_array_equal(g1.latent, g2.latent)
            assert g1.report == g2.report


def test_gen_dataset_labels_match_kernel():
    models = toy_models()
    records = gen_dataset(3, 2, models.denoiser, UNGUIDED, SCHED, seed=2)
    for r in records:
        for g in r.generations:
            assert g.report == kernel_check(g.sequence)
            assert decode(g.latent) == g.sequence


def test_gen_dataset_blocks_match_single_chains():
    # 3 x 5 = 15 chains: one full block and a 7-row tail block; each row
    # equals its own one-row chain (to 1e-12: batched products round
    # differently) and keeps its condition-major (condition, generation) seed
    assert 15 % CHAIN_BLOCK != 0
    models = toy_models(seed=6)
    records = gen_dataset(3, 5, models.denoiser, UNGUIDED, SCHED, seed=8)
    for r in records:
        for g in r.generations:
            single = sample(r.condition[None], models.denoiser, UNGUIDED, SCHED,
                            [seed_stream(8, STREAM_DATASET_GEN, r.condition_id, g.index)])
            np.testing.assert_allclose(g.latent, single[0], rtol=0.0, atol=1e-12)
            assert g.report == kernel_check(decode(single[0]))


# ---------------------------------------------------------------- pairing


def _record(condition_id, gen_latents, gen_valid, per_condition):
    gens = tuple(
        Generation(i, np.asarray(z, dtype=float), decode(np.asarray(z, dtype=float)),
                   VALID if ok else INVALID)
        for i, (z, ok) in enumerate(zip(gen_latents, gen_valid))
    )
    assert len(gens) == per_condition
    latent = np.zeros(21)
    return DatasetRecord(condition_id, np.zeros(8), decode(latent), latent, gens)


def test_ssl_pairs_two_invalid_three_valid():
    rng = np.random.default_rng(3)
    latents = [rng.normal(size=21) for _ in range(5)]
    record = _record(0, latents, [False, True, False, True, True], 5)
    pairs = build_ssl_pairs([record])
    assert pairs.shape == (2, 2)
    assert set(pairs[:, 0]) == {0, 2}
    assert set(pairs[:, 1]) <= {1, 3, 4}


def test_ssl_pairs_picks_nearest_valid():
    base = np.zeros(21)
    near = base + 0.1
    far = base + 5.0
    record = _record(0, [base, near, far], [False, True, True], 3)
    pairs = build_ssl_pairs([record])
    assert pairs.tolist() == [[0, 1]]


def test_ssl_pairs_invalid_only_condition_contributes_nothing():
    rng = np.random.default_rng(4)
    rec_a = _record(0, [rng.normal(size=21) for _ in range(3)], [False, False, False], 3)
    rec_b = _record(1, [rng.normal(size=21) for _ in range(3)], [False, True, True], 3)
    pairs = build_ssl_pairs([rec_a, rec_b])
    assert (pairs[:, 0] // 3 == 1).all()  # only the second condition pairs up
    assert len(pairs) == 1


def test_ssl_pairs_outputs_are_valid_rows():
    rng = np.random.default_rng(5)
    records = [
        _record(i, [rng.normal(size=21) for _ in range(4)],
                [bool(rng.random() < 0.5) for _ in range(4)], 4)
        for i in range(6)
    ]
    flat_valid = [g.report.valid for r in records for g in r.generations]
    try:
        pairs = build_ssl_pairs(records)
    except NoPairs:
        pytest.skip("random draw made no pairs")
    for invalid_row, valid_row in pairs:
        assert not flat_valid[invalid_row]
        assert flat_valid[valid_row]


def test_ssl_pairs_none_raises():
    rng = np.random.default_rng(6)
    record = _record(0, [rng.normal(size=21) for _ in range(3)], [False, False, False], 3)
    with pytest.raises(NoPairs):
        build_ssl_pairs([record])


def test_gt_pairs_cover_every_generation():
    models = toy_models()
    records = gen_dataset(3, 4, models.denoiser, UNGUIDED, SCHED, seed=7)
    pairs = build_gt_pairs(records)
    assert pairs.shape == (12, 2)
    assert pairs[:, 0].tolist() == list(range(12))
    assert pairs[:, 1].tolist() == [0] * 4 + [1] * 4 + [2] * 4
    gt = stack_ground_truth_latents(records)
    for row in gt:
        np.testing.assert_array_equal(quantize(row), row)  # targets are canonical


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


def test_repair_max_iters_applies_regressor_repeatedly():
    bad = np.zeros(21)
    nudger = LinearRegressor(np.eye(21), np.full(21, 0.05))
    one = self_repair(bad, nudger, max_iters=1)
    three = self_repair(bad, nudger, max_iters=3)
    np.testing.assert_allclose(one.post_repair, np.full(21, 0.05))
    np.testing.assert_allclose(three.post_repair, np.full(21, 0.15))


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
    report, outcomes = run_variants(
        [VariantId.BASELINE, VariantId.VAR5, VariantId.FULL],
        conditions,
        models,
        SCHED,
        seed=3,
        mmd_config=cfg,
    )
    rows = {row.variant: row for row in report.rows}
    hashes = {row.start_hash for row in report.rows}
    assert len(hashes) == 1  # same starting noise across variants
    assert rows["full"].n_valid >= rows["var5"].n_valid  # repair only adds validity
    for row in rows.values():
        assert row.n == 6
        assert row.feasibility == row.n_valid / row.n
        assert int(row.histogram.counts.sum()) == len(row.mmd_scores)


def test_variant_repair_counts_consistent():
    models = toy_models(seed=2)
    conditions = gen_ground_truth(5, seed=14)
    report, outcomes = run_variants(
        [VariantId.VAR1], conditions, models, SCHED, seed=4, mmd_config=MmdConfig(cloud_size=64)
    )
    (row,) = report.rows
    outcomes = outcomes[VariantId.VAR1]
    stages = [o.stage for o in outcomes]
    assert row.repaired_count == sum(s is RepairStage.REPAIRED_VALID for s in stages)
    assert row.repair_failed_count == sum(s is RepairStage.REPAIRED_INVALID for s in stages)
    direct = sum(s is RepairStage.VALID_DIRECT for s in stages)
    assert direct + row.repaired_count == row.n_valid


def test_baseline_never_repairs():
    models = toy_models(seed=3)
    conditions = gen_ground_truth(4, seed=15)
    report, _ = run_variants(
        [VariantId.BASELINE], conditions, models, SCHED, seed=5, mmd_config=MmdConfig(cloud_size=64)
    )
    (row,) = report.rows
    assert row.repaired_count == 0
    assert row.repair_failed_count == 0


def test_run_variants_parallel_matches_serial():
    models = toy_models(seed=4)
    conditions = gen_ground_truth(4, seed=16)
    cfg = MmdConfig(cloud_size=64)
    serial, _ = run_variants(
        [VariantId.BASELINE, VariantId.VAR1], conditions, models, SCHED, seed=6, mmd_config=cfg
    )
    parallel, _ = run_variants(
        [VariantId.BASELINE, VariantId.VAR1],
        conditions,
        models,
        SCHED,
        seed=6,
        mmd_config=cfg,
        threads=2,
    )
    for a, b in zip(serial.rows, parallel.rows):
        assert a.variant == b.variant
        assert a.n_valid == b.n_valid
        assert a.mmd_scores == b.mmd_scores
        assert a.start_hash == b.start_hash


def test_guided_variants_use_guidance():
    # with zero scales the guided variant reproduces the baseline bitwise;
    # with the default scales it generally diverges from it
    models = toy_models(seed=5)
    conditions = gen_ground_truth(3, seed=17)
    cfg = MmdConfig(cloud_size=64)
    _, base_out = run_variants(
        [VariantId.BASELINE], conditions, models, SCHED, seed=7, mmd_config=cfg
    )
    base_out = base_out[VariantId.BASELINE]
    _, zero_out = run_variants(
        [VariantId.VAR5], conditions, models, SCHED, seed=7,
        guidance=GuidanceConfig(True, True, 0.0, 0.0), mmd_config=cfg,
    )
    zero_out = zero_out[VariantId.VAR5]
    for a, b in zip(base_out, zero_out):
        np.testing.assert_array_equal(a.final_latent, b.final_latent)
    _, guided_out = run_variants([VariantId.VAR5], conditions, models, SCHED, seed=7, mmd_config=cfg)
    guided_out = guided_out[VariantId.VAR5]
    assert any(
        not np.array_equal(a.final_latent, b.final_latent)
        for a, b in zip(base_out, guided_out)
    )


def test_run_variants_blocks_match_single_conditions():
    # 11 conditions: a full block and a 3-row tail block per variant
    assert 11 % CHAIN_BLOCK != 0
    conditions = gen_ground_truth(11, seed=18)
    models = toy_models(seed=7)
    # var1 repairs every sample onto one valid latent, so every row is scored
    models.ssl_regressor = LinearRegressor(np.zeros((21, 21)), conditions[0].latent)
    cfg = MmdConfig(cloud_size=64)
    variants = [VariantId.BASELINE, VariantId.VAR1]
    _, serial = run_variants(variants, conditions, models, SCHED, seed=9, mmd_config=cfg)
    _, parallel = run_variants(
        variants, conditions, models, SCHED, seed=9, mmd_config=cfg, threads=2
    )
    for variant in variants:
        outcomes = serial[variant]
        assert [o.condition_id for o in outcomes] == list(range(11))
        for a, b in zip(outcomes, parallel[variant]):
            np.testing.assert_array_equal(a.final_latent, b.final_latent)
            assert (a.valid, a.stage, a.mmd_score) == (b.valid, b.stage, b.mmd_score)
        for i, outcome in enumerate(outcomes):
            np.testing.assert_array_equal(
                outcome.start_latent,
                initial_latent(seed_stream(9, STREAM_EVAL_SAMPLE, i), 21),
            )
            points = ground_truth_cloud(conditions[i], i, 9, cfg).points
            (single,) = evaluate_condition(
                variant, [i], [conditions[i]], [points], models, SCHED, 9, UNGUIDED, cfg
            )
            np.testing.assert_allclose(
                outcome.final_latent, single.final_latent, rtol=0.0, atol=1e-12
            )
            assert (outcome.valid, outcome.stage) == (single.valid, single.stage)
            if single.mmd_score is not None:
                assert abs(outcome.mmd_score - single.mmd_score) <= 1e-12
    assert all(o.mmd_score is not None for o in serial[VariantId.VAR1])
