import concurrent.futures
import functools
import gc
import logging
import math
import multiprocessing
import weakref

import numpy as np
import pytest

from cadrepair import metrics, pipeline
from cadrepair.config import ModelTraining, RunConfig
from cadrepair.diffusion import build_schedule, sample
from cadrepair.geometry import check_latents, sample_point_cloud
from cadrepair.metrics import mmd
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
    STREAM_CLOUD_GEN,
    STREAM_DATASET_GEN,
    STREAM_TRAIN_GT,
    VariantId,
    build_gt_pairs,
    build_ssl_pairs,
    gen_dataset,
    gen_ground_truth,
    ground_truth_cloud,
    repair,
    run_variants,
    seed_stream,
)

from conftest import encode, latent_row, one_draw_at_a_time_ground_truth
from test_geometry import oracle_decode, oracle_masks, random_latent_rows

# the default run's schedule, as RunConfig's timesteps and betas give it
SCHED = build_schedule(100, 1e-4, 0.02)


def gen_cfg(seed, generations_per_condition):
    return RunConfig(master_seed=seed, generations_per_condition=generations_per_condition)


def eval_cfg(seed, **fields):
    """The default run's guidance and median MMD bandwidth on 64-point clouds."""
    return RunConfig(master_seed=seed, cloud_size=64, **fields)


def toy_models(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "denoiser": init_mlp([21 + 8 + 8, 16, 21], OutputActivation.IDENTITY, rng),
        "classifier": init_mlp([21, 8, 1], OutputActivation.SIGMOID, rng),
        "ssl_regressor": LinearRegressor(np.eye(21) * 0.9, rng.normal(size=21) * 0.01),
        "gt_regressor": LinearRegressor(np.eye(21) * 0.8, rng.normal(size=21) * 0.01),
    }


# ---------------------------------------------------------------- ground truth


def test_ground_truth_all_valid_and_roundtrip():
    conditions, latents = gen_ground_truth(30, seed=1)
    assert conditions.shape == (30, 8) and latents.shape == (30, 21)
    assert (check_latents(latents) == 0).all()
    # each row is the former encoding of its decoded sequence, canonical channels included
    for z in latents:
        assert encode(oracle_decode(z)).tobytes() == z.tobytes()
    assert ((0.0 < conditions[:, 0]) & (conditions[:, 0] <= 1.0)).all()


def test_ground_truth_deterministic():
    a = gen_ground_truth(10, seed=5)
    b = gen_ground_truth(10, seed=5)
    for xa, xb in zip(a, b):
        assert xa.tobytes() == xb.tobytes()


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 300])
def test_ground_truth_equals_one_draw_at_a_time(n, caplog):
    # every chunk is twice the remaining need, so n = 300 takes several
    for seed in (0, 1, 2):
        _, want_conditions, want_latents, draws = one_draw_at_a_time_ground_truth(n, seed)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="cadrepair.pipeline"):
            conditions, latents = gen_ground_truth(n, seed)
        assert conditions.shape == (n, 8) and latents.shape == (n, 21)
        assert conditions.tobytes() == want_conditions.tobytes()
        assert latents.tobytes() == want_latents.tobytes()
        assert f"({n}/{draws})" in caplog.text


def test_ground_truth_requires_positive_count():
    with pytest.raises(ValueError):
        gen_ground_truth(0, seed=1)


# ---------------------------------------------------------------- dataset


def train_gt(n, seed):
    """The training ground truth of master seed ``seed``, as the CLI draws it."""
    return gen_ground_truth(n, seed_stream(seed, STREAM_TRAIN_GT))


def test_gen_dataset_counts_and_determinism():
    models = toy_models()
    conditions, gt_latents = train_gt(4, 11)
    latents, masks = gen_dataset(conditions, models["denoiser"], gen_cfg(11, 3))
    assert conditions.shape == (4, 8)
    assert latents.shape == (12, 21)
    assert masks.shape == (12,) and masks.dtype == np.uint16
    again_conditions, again_gt_latents = train_gt(4, 11)
    again_latents, again_masks = gen_dataset(again_conditions, models["denoiser"], gen_cfg(11, 3))
    assert again_gt_latents.tobytes() == gt_latents.tobytes()
    np.testing.assert_array_equal(again_latents, latents)
    np.testing.assert_array_equal(again_masks, masks)


def test_gen_dataset_labels_match_kernel():
    models = toy_models()
    latents, masks = gen_dataset(train_gt(3, 2)[0], models["denoiser"], gen_cfg(2, 2))
    np.testing.assert_array_equal(masks, oracle_masks(latents))


def test_gen_dataset_blocks_match_single_chains(monkeypatch):
    # 3 x 5 = 15 chains: one short block by default, three full blocks of 4
    # and a 3-row tail block with CHAIN_BLOCK = 4; each row equals its own
    # one-row chain (to 1e-12: batched products round differently) and keeps
    # its condition-major (condition, generation) seed
    models = toy_models(seed=6)
    for block in (CHAIN_BLOCK, 4):
        assert 15 % block != 0
        monkeypatch.setattr(pipeline, "CHAIN_BLOCK", block)
        conditions, _ = train_gt(3, 8)
        latents, masks = gen_dataset(conditions, models["denoiser"], gen_cfg(8, 5))
        for row, (z, mask) in enumerate(zip(latents, masks)):
            cid, g = divmod(row, 5)
            (single,) = sample(conditions[cid][None], models["denoiser"],
                               [seed_stream(8, STREAM_DATASET_GEN, cid, g)], [(None, None)],
                               gen_cfg(8, 5))
            np.testing.assert_allclose(z, single[0], rtol=0.0, atol=1e-12)
            assert mask == check_latents(single)[0]


def test_gen_dataset_does_not_depend_on_thread_count(monkeypatch):
    # 4 x 3 = 12 rows with CHAIN_BLOCK = 5: two full blocks and a 2-row tail
    # block, joined in block order whichever worker ran each
    monkeypatch.setattr(pipeline, "CHAIN_BLOCK", 5)
    models = toy_models(seed=3)
    conditions, _ = train_gt(4, 12)
    serial = gen_dataset(conditions, models["denoiser"], gen_cfg(12, 3), threads=1)
    pooled = gen_dataset(conditions, models["denoiser"], gen_cfg(12, 3), threads=2)
    assert serial[0].shape == (12, 21)
    assert serial[0].tobytes() == pooled[0].tobytes()
    assert serial[1].tobytes() == pooled[1].tobytes()


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
    conditions, gt_latents = train_gt(3, 7)
    latents, _ = gen_dataset(conditions, models["denoiser"], gen_cfg(7, 4))
    pairs = build_gt_pairs(len(latents), 4)
    assert pairs.shape == (12, 2)
    assert pairs[:, 0].tolist() == list(range(12))
    assert pairs[:, 1].tolist() == [0] * 4 + [1] * 4 + [2] * 4
    for gt in gt_latents:
        np.testing.assert_array_equal(encode(oracle_decode(gt)), gt)  # canonical


# ---------------------------------------------------------------- repair


def repair_one(row, regressor):
    """``repair`` of one row that failed the kernel check: its latent and mask."""
    (mask,) = check_latents(row[None])
    assert mask != 0
    latents, masks = repair(row[None], [mask], regressor)
    return latents[0], int(masks[0])


def test_repair_identity_regressor_cannot_fix():
    bad = np.zeros(21)  # all slots inactive: too few vertices
    identity = LinearRegressor(np.eye(21), np.zeros(21))
    final, mask = repair_one(bad, identity)
    np.testing.assert_array_equal(final, bad)
    assert mask != 0


def test_repair_fixture_recovers_validity():
    # break a valid canonical latent by flipping one activity channel across
    # its threshold, then fit a local regressor that maps it back
    target = gen_ground_truth(1, seed=9)[1][0]
    broken = target.copy()
    broken[0] = -0.1  # first slot inactive: decodes to an empty sequence
    assert check_latents(broken[None])[0] != 0
    rng = np.random.default_rng(10)
    inputs = broken + rng.normal(0.0, 0.02, size=(60, 21))
    targets = np.tile(target, (60, 1))
    regressor = fit_linear_regressor(inputs, targets, ridge=1e-6)
    final, mask = repair_one(broken, regressor)
    assert mask == 0
    np.testing.assert_array_equal(final, regressor_predict(regressor, broken))


def test_repair_applies_regressor_once():
    bad = np.zeros(21)
    nudger = LinearRegressor(np.eye(21), np.full(21, 0.05))
    final, _ = repair_one(bad, nudger)
    np.testing.assert_allclose(final, np.full(21, 0.05))


def test_repair_mask_is_the_kernel_check_of_the_decoded_latent():
    # the block's masks agree with decoding each final latent and
    # kernel-checking its sequence one rule at a time, on random and near-valid rows through a
    # random near-identity regressor; a valid row and a row holding NaN or inf
    # come back as they are, and every other row is re-mapped
    rng = np.random.default_rng(23)
    regressor = LinearRegressor(
        np.eye(21) + rng.normal(0.0, 0.03, size=(21, 21)), rng.normal(0.0, 0.02, size=21)
    )
    rows = random_latent_rows(3, 400)
    masks = check_latents(rows)
    finals, final_masks = repair(rows, masks, regressor)
    remapped = (masks != 0) & np.isfinite(rows).all(axis=1)
    outcomes = set()
    for row, mask, final, final_mask, mapped in zip(rows, masks, finals, final_masks, remapped):
        assert final_mask == oracle_masks([final])[0]
        if mapped:
            assert final.tobytes() == regressor_predict(regressor, row).tobytes()
            outcomes.add(final_mask == 0)
        else:
            assert final.tobytes() == row.tobytes() and final_mask == mask
    assert outcomes == {True, False}
    assert (masks == 0).any() and ((masks != 0) & ~remapped).any()


def test_repair_mismatched_regressor_raises():
    with pytest.raises(ValueError, match="input width 21 != expected 5"):
        repair_one(np.zeros(21), LinearRegressor(np.zeros((5, 5)), np.zeros(5)))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_repair_keeps_rows_that_are_not_finite(value):
    # a triangle that is too shallow to pass, with the value put in its first
    # (active) slot, its fourth (inactive) slot or its depth: every output of
    # the regressor would sum a non-finite term, so each row is kept as it is
    # with its mask, a failed repair, and the product never runs on it (it
    # would warn, which pyproject.toml turns into an error)
    shallow = latent_row([(0.25, 0.0, 0.0, 0.0), (0.25, 0.5, 0.0, 0.0), (0.25, 0.0, 0.5, 0.0)], 0.0)
    rows = np.tile(shallow, (4, 1))
    rows[0, 1], rows[1, 13], rows[2, 20] = value, value, value
    masks = check_latents(rows)
    assert (masks != 0).all()
    regressor = LinearRegressor(np.eye(21), np.full(21, 0.1))
    finals, final_masks = repair(rows, masks, regressor)
    assert finals[:3].tobytes() == rows[:3].tobytes()
    np.testing.assert_array_equal(final_masks[:3], masks[:3])
    # the finite row beside them is re-mapped: its depth becomes 0.1
    assert finals[3].tobytes() == regressor_predict(regressor, shallow).tobytes()
    assert final_masks[3] == 0


def test_repair_equals_the_per_row_product_bitwise():
    # a plain (k, d) @ (d, d) product rounds its rows differently from one
    # row's product; the stacked (k, 1, d) product must not, at any block size
    rng = np.random.default_rng(31)
    for k in [1, 2, 3, 7, 64, 65, 257, 300, *rng.integers(1, 301, size=12)]:
        regressor = LinearRegressor(rng.normal(size=(21, 21)), rng.normal(size=21))
        rows = rng.normal(size=(k, 21)) * rng.choice([1e-3, 1.0, 1e3])
        masks = np.ones(k, dtype=np.uint16)  # every row taken as rejected, to be re-mapped
        finals, final_masks = repair(rows, masks, regressor)
        oracle = np.array([regressor_predict(regressor, row) for row in rows])
        assert finals.tobytes() == oracle.tobytes(), k
        np.testing.assert_array_equal(final_masks, check_latents(oracle))


# ---------------------------------------------------------------- variants


def assert_tables_equal(a, b):
    """Two run_variants results hold the same variants in the same order, and
    each column of each variant's table is bitwise the same."""
    assert list(a) == list(b)
    for variant in a:
        assert list(a[variant]) == list(b[variant]) == ["latents", "masks", "repaired", "scores"]
        for name, column in a[variant].items():
            assert column.dtype == b[variant][name].dtype, (variant, name)
            assert column.tobytes() == b[variant][name].tobytes(), (variant, name)


def test_run_variant_missing_model():
    models = {"denoiser": toy_models()["denoiser"]}
    conditions, gt_latents = gen_ground_truth(2, seed=12)
    with pytest.raises(ValueError, match="variant var3 needs model 'classifier'"):
        run_variants([VariantId.VAR3], conditions, gt_latents, models, RunConfig(master_seed=1))


def test_variant_rows_paired_and_monotone():
    models = toy_models(seed=1)
    conditions, gt_latents = gen_ground_truth(6, seed=13)
    tables = run_variants(
        [VariantId.BASELINE, VariantId.VAR5, VariantId.FULL],
        conditions,
        gt_latents,
        models,
        eval_cfg(3),
    )
    n_valid = {v: int((table["masks"] == 0).sum()) for v, table in tables.items()}
    assert n_valid[VariantId.FULL] >= n_valid[VariantId.VAR5]  # repair only adds validity
    for table in tables.values():
        assert table["latents"].shape == (6, 21)  # one row per condition
        assert all(column.shape[0] == 6 for column in table.values())
        # scored iff valid
        np.testing.assert_array_equal(np.isnan(table["scores"]), table["masks"] != 0)


def test_variant_repair_counts_consistent():
    models = toy_models(seed=2)
    conditions, gt_latents = gen_ground_truth(5, seed=14)
    table = run_variants([VariantId.VAR1], conditions, gt_latents, models, eval_cfg(4))[
        VariantId.VAR1
    ]
    valid = table["masks"] == 0
    assert len(valid) == 5
    # every row goes through self-repair: a row it did not repair is valid
    assert (table["repaired"] | valid).all()
    np.testing.assert_array_equal(np.isnan(table["scores"]), ~valid)


def test_baseline_never_repairs():
    models = toy_models(seed=3)
    conditions, gt_latents = gen_ground_truth(4, seed=15)
    table = run_variants([VariantId.BASELINE], conditions, gt_latents, models, eval_cfg(5))[
        VariantId.BASELINE
    ]
    assert table["repaired"].shape == (4,)
    assert not table["repaired"].any()


def test_run_variants_parallel_matches_serial():
    models = toy_models(seed=4)
    conditions, gt_latents = gen_ground_truth(4, seed=16)
    variants = [VariantId.BASELINE, VariantId.VAR1]
    serial = run_variants(variants, conditions, gt_latents, models, eval_cfg(6))
    parallel = run_variants(variants, conditions, gt_latents, models, eval_cfg(6), threads=2)
    assert_tables_equal(serial, parallel)


def test_guided_variants_use_guidance():
    # each guided variant passes exactly its own models: with the scales of
    # its own terms at zero it reproduces the baseline bitwise, whatever the
    # other term's scale; with its own scale non-zero it diverges from it.
    # stop_gradient_y reaches the regressor's push: var4 moves with it
    models = toy_models(seed=5)
    conditions, gt_latents = gen_ground_truth(3, seed=17)

    def final_latents(variant, classifier_scale=10.0, regressor_scale=10.0, stop_gradient_y=False):
        cfg = eval_cfg(
            7,
            classifier_scale=classifier_scale,
            regressor_scale=regressor_scale,
            stop_gradient_y=stop_gradient_y,
        )
        tables = run_variants([variant], conditions, gt_latents, models, cfg)
        return list(tables[variant]["latents"])

    base = final_latents(VariantId.BASELINE)
    for variant, silent, active in (
        (VariantId.VAR3, (0.0, 10.0), (10.0, 0.0)),
        (VariantId.VAR4, (10.0, 0.0), (0.0, 10.0)),
        (VariantId.VAR5, (0.0, 0.0), (10.0, 10.0)),
    ):
        for a, b in zip(base, final_latents(variant, *silent)):
            np.testing.assert_array_equal(a, b)
        guided = final_latents(variant, *active)
        assert any(not np.array_equal(a, b) for a, b in zip(base, guided)), variant
    full_gradient = final_latents(VariantId.VAR4, 0.0, 10.0, stop_gradient_y=False)
    stopped = final_latents(VariantId.VAR4, 0.0, 10.0, stop_gradient_y=True)
    assert any(not np.array_equal(a, b) for a, b in zip(full_gradient, stopped))


def test_fixed_sigma_mode_scores_at_that_bandwidth():
    # var1 repairs every sample onto one valid latent, so every row is scored;
    # each score is the MMD at sigma 0.5 of its row's cloud and its ground-truth
    # cloud, and not the median-bandwidth MMD of the same clouds
    conditions, gt_latents = gen_ground_truth(4, seed=22)
    models = toy_models(seed=10)
    models["ssl_regressor"] = LinearRegressor(np.zeros((21, 21)), gt_latents[0])
    cfg = eval_cfg(12, sigma_mode=0.5)
    variants = [VariantId.BASELINE, VariantId.VAR1]
    tables = run_variants(variants, conditions, gt_latents, models, cfg)
    scored = [
        (cid, table["latents"][cid], table["scores"][cid])
        for table in tables.values()
        for cid in np.flatnonzero(table["masks"] == 0)
    ]
    assert len(scored) >= len(conditions)
    median_scores = []
    for cid, latent, score in scored:
        cloud = sample_point_cloud(latent, 64, seed_stream(12, STREAM_CLOUD_GEN, cid))
        points = ground_truth_cloud(gt_latents[cid], cid, cfg)
        assert [score] == mmd(points, [cloud], 0.5)
        median_scores += mmd(points, [cloud])
    assert [score for _, _, score in scored] != median_scores


def test_run_variants_blocks_match_single_conditions(monkeypatch):
    # 11 conditions: one short block by default, two full blocks of 4 and a
    # 3-row tail block with CHAIN_BLOCK = 4; every row agrees with its own
    # one-row chain (CHAIN_BLOCK = 1) to 1e-12, since batched products round
    # differently, and blocks never depend on the worker count
    conditions, gt_latents = gen_ground_truth(11, seed=18)
    models = toy_models(seed=7)
    # var1 repairs every sample onto one valid latent, so every row is scored
    models["ssl_regressor"] = LinearRegressor(np.zeros((21, 21)), gt_latents[0])
    variants = [VariantId.BASELINE, VariantId.VAR1]

    def run(block, threads=1):
        monkeypatch.setattr(pipeline, "CHAIN_BLOCK", block)
        return run_variants(variants, conditions, gt_latents, models, eval_cfg(9), threads)

    single = run(1)
    for block in (CHAIN_BLOCK, 4):
        assert 11 % block != 0
        serial, parallel = run(block), run(block, threads=2)
        assert_tables_equal(serial, parallel)
        for variant in variants:
            table, one = serial[variant], single[variant]
            assert table["latents"].shape == (11, 21)
            np.testing.assert_allclose(table["latents"], one["latents"], rtol=0.0, atol=1e-12)
            np.testing.assert_array_equal(table["masks"] == 0, one["masks"] == 0)
            np.testing.assert_array_equal(table["repaired"], one["repaired"])
            np.testing.assert_allclose(table["scores"], one["scores"], rtol=0.0, atol=1e-12)
        assert not np.isnan(serial[VariantId.VAR1]["scores"]).any()


def _sharing_case(monkeypatch):
    # CHAIN_BLOCK = 8 gives a full block and a 3-row tail block; a briefly
    # trained denoiser and weak guidance make some samples valid before
    # repair, and the toy regressors repair some of the others
    monkeypatch.setattr(pipeline, "CHAIN_BLOCK", 8)
    conditions, gt_latents = gen_ground_truth(11, seed=19)
    train = gen_ground_truth(64, seed=30)
    models = toy_models(seed=8)
    models["denoiser"], _ = train_denoiser(
        *train,
        SCHED,
        ModelTraining(epochs=100, batch_size=16, learning_rate=3e-3),
        seed=1,
    )
    cfg = eval_cfg(10, classifier_scale=0.1, regressor_scale=0.01)
    return conditions, gt_latents, models, cfg


def test_run_variants_shared_chains_match_single_variants(monkeypatch):
    conditions, gt_latents, models, cfg = _sharing_case(monkeypatch)

    def run(variants, threads=1):
        return run_variants(variants, conditions, gt_latents, models, cfg, threads)

    together = {threads: run(list(VariantId), threads) for threads in (1, 2)}
    for variant in VariantId:
        alone = run([variant])
        assert len(alone[variant]["latents"]) == len(conditions)
        for threads in (1, 2):
            assert_tables_equal(alone, {variant: together[threads][variant]})
    for variant in (VariantId.VAR1, VariantId.VAR2, VariantId.FULL):
        # each stage occurs: valid direct, repaired valid, repaired invalid
        table = together[1][variant]
        repaired, valid = table["repaired"], table["masks"] == 0
        assert (~repaired).any() and (repaired & valid).any() and (repaired & ~valid).any()


@pytest.mark.parametrize("threads", [1, 2])
def test_run_variants_tables_hold_the_kernel_verdict_of_each_final_latent(monkeypatch, threads):
    conditions, gt_latents, models, cfg = _sharing_case(monkeypatch)
    tables = run_variants(list(VariantId), conditions, gt_latents, models, cfg, threads)
    # the variant whose chain row each variant starts from
    chain_of = {VariantId.VAR1: VariantId.BASELINE, VariantId.VAR2: VariantId.BASELINE,
                VariantId.FULL: VariantId.VAR5}
    for variant, table in tables.items():
        n = len(conditions)
        assert table["latents"].shape == (n, 21) and table["latents"].dtype == np.float64
        assert table["masks"].shape == (n,) and table["masks"].dtype == np.uint16
        assert table["repaired"].shape == (n,) and table["repaired"].dtype == bool
        assert table["scores"].shape == (n,) and table["scores"].dtype == np.float64
        np.testing.assert_array_equal(table["masks"], check_latents(table["latents"]))
        np.testing.assert_array_equal(np.isnan(table["scores"]), table["masks"] != 0)
        chain = tables[chain_of.get(variant, variant)]
        if variant in chain_of:
            np.testing.assert_array_equal(table["repaired"], chain["masks"] != 0)
        else:
            assert not table["repaired"].any()
        kept = ~table["repaired"]
        for name, column in table.items():
            assert column[kept].tobytes() == chain[name][kept].tobytes(), (variant, name)
        if variant in chain_of:
            # the repair step is ``repair`` on the chain's rows, as one block
            regressor = models[pipeline._VARIANT_PLANS[variant][1]]
            latents, masks = repair(chain["latents"], chain["masks"], regressor)
            assert table["latents"].tobytes() == latents.tobytes(), variant
            assert table["masks"].tobytes() == masks.tobytes(), variant
    for variant in chain_of:
        assert tables[variant]["repaired"].any() and not tables[variant]["repaired"].all()


def test_run_variants_runs_each_plan_once_and_scores_each_latent_once(monkeypatch):
    conditions, gt_latents, models, cfg = _sharing_case(monkeypatch)
    calls = {
        "sample": 0, "ground_truth_cloud": 0, "sample_point_cloud": 0, "repair": 0,
        "check_latents": 0, "median_heuristic_sigma": 0,
    }
    scored_clouds = []  # the cloud count of each mmd call
    remapped = []  # the rows of each regressor_predict call

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def predict(regressor, z):
        remapped.append(len(z))
        return regressor_predict(regressor, z)

    monkeypatch.setattr(pipeline.diffusion, "sample", spy("sample", pipeline.diffusion.sample))
    for name in ("ground_truth_cloud", "sample_point_cloud", "repair", "check_latents"):
        monkeypatch.setattr(pipeline, name, spy(name, getattr(pipeline, name)))
    monkeypatch.setattr(pipeline, "regressor_predict", predict)
    monkeypatch.setattr(
        metrics,
        "median_heuristic_sigma",
        spy("median_heuristic_sigma", metrics.median_heuristic_sigma),
    )

    def score(reference, clouds, sigma=None):
        scored_clouds.append(len(clouds))
        return mmd(reference, clouds, sigma)

    monkeypatch.setattr(pipeline, "mmd", score)
    tables = run_variants(list(VariantId), conditions, gt_latents, models, cfg)
    # one lockstep chain of all 4 guidance plans per block
    assert calls["sample"] == math.ceil(len(conditions) / pipeline.CHAIN_BLOCK) == 2
    unrepaired = (VariantId.BASELINE, VariantId.VAR3, VariantId.VAR4, VariantId.VAR5)
    repaired = (VariantId.VAR1, VariantId.VAR2, VariantId.FULL)
    n_valid = sum(int((tables[v]["masks"] == 0).sum()) for v in unrepaired)
    n_repaired = sum(
        int((tables[v]["repaired"] & (tables[v]["masks"] == 0)).sum()) for v in repaired
    )
    assert 0 < n_valid and 0 < n_repaired
    # one mmd call, one bandwidth and one ground-truth cloud per condition that
    # has a valid row, the call scoring each of its distinct valid rows
    valid = np.stack([tables[v]["masks"] == 0 for v in VariantId], axis=1)
    n_scored = int(valid.any(axis=1).sum())
    assert 0 < n_scored < len(conditions)
    assert len(scored_clouds) == calls["median_heuristic_sigma"] == n_scored
    assert calls["ground_truth_cloud"] == n_scored
    assert sum(scored_clouds) == n_valid + n_repaired
    # chain rows are kernel-checked a block at a time, and each repair variant's
    # rows as one block, re-mapped by one product over exactly its invalid rows
    # (all finite here); only a valid row is sampled, once, to be scored, and
    # the ground truth of each condition that has one, once
    attempted = [int(tables[v]["repaired"].sum()) for v in repaired]
    assert all(np.isfinite(tables[v]["latents"]).all() for v in repaired)
    assert calls["repair"] == len(repaired)
    assert remapped == attempted
    assert calls["check_latents"] == calls["sample"] + len(repaired)
    assert calls["sample_point_cloud"] == n_valid + n_repaired + n_scored


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_run_variants_pool_matches_serial_under_start_method(monkeypatch, method):
    # workers that do not fork get the payload pickled: the default on macOS
    # (spawn) and, from Python 3.14, on Linux (forkserver)
    conditions, gt_latents = gen_ground_truth(11, seed=18)
    models = toy_models(seed=7)
    variants = [VariantId.BASELINE, VariantId.VAR1]
    serial = run_variants(variants, conditions, gt_latents, models, eval_cfg(9))
    pool = functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)
    )
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    pooled = run_variants(variants, conditions, gt_latents, models, eval_cfg(9), threads=2)
    assert list(pooled) == variants
    assert all(len(pooled[v]["latents"]) == len(conditions) for v in variants)
    assert_tables_equal(serial, pooled)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_gen_dataset_pool_matches_serial_under_start_method(monkeypatch, method):
    # the pickled payload carries gen-dataset's condition rows and seed keys;
    # 4 x 3 = 12 rows with CHAIN_BLOCK = 5 make three blocks on two workers
    monkeypatch.setattr(pipeline, "CHAIN_BLOCK", 5)
    models = toy_models(seed=3)
    conditions, _ = train_gt(4, 12)
    serial = gen_dataset(conditions, models["denoiser"], gen_cfg(12, 3))
    pool = functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context(method)
    )
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    pooled = gen_dataset(conditions, models["denoiser"], gen_cfg(12, 3), threads=2)
    assert serial[0].shape == (12, 21)
    assert serial[0].tobytes() == pooled[0].tobytes()
    assert serial[1].tobytes() == pooled[1].tobytes()


def test_run_variants_starts_no_more_workers_than_tasks(monkeypatch):
    # run_variants has one scoring task per condition: at most min(threads, n)
    # workers, and no pool for a single condition; gen_dataset has one task per
    # block of rows: at most min(threads, blocks) workers, no pool for one block
    pool_sizes = []

    class SerialPool:
        """ProcessPoolExecutor stand-in that records its size and maps in process."""

        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    for threads, n, workers in ((64, 11, [11]), (3, 11, [3]), (4, 1, [])):
        pool_sizes.clear()
        tables = run_variants(
            [VariantId.BASELINE],
            *gen_ground_truth(n, seed=20),
            toy_models(seed=9),
            eval_cfg(11),
            threads,
        )
        assert pool_sizes == workers, (threads, n)
        assert tables[VariantId.BASELINE]["latents"].shape == (n, 21)
    monkeypatch.setattr(pipeline, "CHAIN_BLOCK", 4)
    for threads, n, workers in ((64, 4, [3]), (2, 4, [2]), (4, 1, [])):
        pool_sizes.clear()
        latents, masks = gen_dataset(
            train_gt(n, 21)[0], toy_models(seed=9)["denoiser"], gen_cfg(21, 3), threads
        )
        assert pool_sizes == workers, (threads, n)
        assert latents.shape == (3 * n, 21) and masks.shape == (3 * n,)


def test_in_process_runs_keep_no_input_alive():
    # each task carries its own inputs, so once run_variants or gen_dataset
    # returns in process and the caller drops the denoiser and the ground-truth
    # latents, nothing in pipeline still holds them
    models = toy_models(seed=4)
    conditions, gt_latents = gen_ground_truth(3, seed=19)
    refs = [weakref.ref(models["denoiser"]), weakref.ref(gt_latents)]
    run_variants([VariantId.BASELINE, VariantId.VAR1], conditions, gt_latents, models, eval_cfg(4))
    del models, gt_latents
    gc.collect()
    assert [ref() is None for ref in refs] == [True, True]
    denoiser = toy_models(seed=5)["denoiser"]
    ref = weakref.ref(denoiser)
    gen_dataset(train_gt(2, 22)[0], denoiser, gen_cfg(22, 2), threads=1)
    del denoiser
    gc.collect()
    assert ref() is None
