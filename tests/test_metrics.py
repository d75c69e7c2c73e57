import math

import numpy as np
import pytest

from cadrepair.metrics import (
    MmdConfig,
    median_heuristic_sigma,
    mmd,
    mmd_histogram,
    pca_2d,
)


# ---------------------------------------------------------------- median heuristic


def test_median_two_points():
    x = np.array([[0.0, 0.0, 0.0]])
    y = np.array([[3.0, 4.0, 0.0]])
    assert median_heuristic_sigma(x, y) == 5.0


def test_median_identical_points_fallback():
    cloud = np.zeros((10, 3))
    assert median_heuristic_sigma(cloud, cloud) == 1.0


def test_median_matches_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=(60, 3))
        y = rng.normal(size=(40, 3))
        pooled = np.vstack([x, y])
        dists = sorted(
            float(np.linalg.norm(pooled[i] - pooled[j]))
            for i in range(len(pooled))
            for j in range(i + 1, len(pooled))
        )
        k = len(dists)
        oracle = dists[k // 2] if k % 2 else 0.5 * (dists[k // 2 - 1] + dists[k // 2])
        assert math.isclose(median_heuristic_sigma(x, y), oracle, rel_tol=1e-9)


def test_median_matches_sort_oracle_odd_pair_count():
    # 7 pooled points give 21 pairs: the median is the single middle rank
    rng = np.random.default_rng(10)
    for _ in range(10):
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(3, 3))
        pooled = np.vstack([x, y])
        dists = sorted(
            float(np.linalg.norm(pooled[i] - pooled[j]))
            for i in range(len(pooled))
            for j in range(i + 1, len(pooled))
        )
        assert len(dists) == 21
        assert math.isclose(median_heuristic_sigma(x, y), dists[10], rel_tol=1e-9)


def test_median_too_few_points():
    with pytest.raises(ValueError, match="need at least 2 pooled points"):
        median_heuristic_sigma(np.zeros((1, 3)), np.zeros((0, 3)))


def test_median_subsample_above_limit_deterministic():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1500, 3))
    y = rng.normal(size=(1500, 3))
    assert median_heuristic_sigma(x, y) == median_heuristic_sigma(x, y)


# ---------------------------------------------------------------- MMD


def mmd_oracle(x, y, sigma):
    m, n = len(x), len(y)

    def k(a, b):
        d = a - b
        return math.exp(-float(d @ d) / (2.0 * sigma * sigma))

    kxx = sum(k(x[i], x[j]) for i in range(m) for j in range(m)) / (m * m)
    kyy = sum(k(y[i], y[j]) for i in range(n) for j in range(n)) / (n * n)
    kxy = sum(k(x[i], y[j]) for i in range(m) for j in range(n)) * 2.0 / (m * n)
    return math.sqrt(max(kxx + kyy - kxy, 0.0))


def test_mmd_identical_clouds_is_zero():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 3))
    assert mmd(x, x.copy()) <= 1e-9


def test_mmd_hand_case():
    x = np.array([[0.0, 0.0, 0.0]])
    y = np.array([[1.0, 0.0, 0.0]])
    expected = math.sqrt(2.0 - 2.0 * math.exp(-0.5))
    assert abs(mmd(x, y, MmdConfig(sigma=1.0)) - expected) < 1e-9


def test_mmd_symmetric_bitwise():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(17, 3))
    y = rng.normal(size=(23, 3)) + 0.5
    cfg = MmdConfig(sigma=0.8)
    assert mmd(x, y, cfg) == mmd(y, x, cfg)


def test_mmd_matches_double_loop_oracle():
    rng = np.random.default_rng(4)
    for _ in range(12):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 65))
        x = rng.normal(size=(m, 3))
        y = rng.normal(size=(n, 3)) + rng.normal(scale=0.5, size=3)
        sigma = float(rng.uniform(0.3, 2.0))
        assert abs(mmd(x, y, MmdConfig(sigma=sigma)) - mmd_oracle(x, y, sigma)) < 1e-12


def test_mmd_translation_invariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=(30, 3))
    shift = np.array([10.0, -4.0, 2.5])
    cfg = MmdConfig(sigma=1.0)
    assert abs(mmd(x, y, cfg) - mmd(x + shift, y + shift, cfg)) < 1e-12


def test_mmd_empty_cloud_raises():
    with pytest.raises(ValueError, match="both clouds must be non-empty"):
        mmd(np.zeros((0, 3)), np.zeros((5, 3)))


def test_mmd_config_validates_sigma():
    with pytest.raises(ValueError, match="fixed sigma must be finite and > 0, got -1.0"):
        MmdConfig(sigma=-1.0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, 0.0])
def test_mmd_config_rejects_non_finite_or_zero_sigma(sigma):
    with pytest.raises(ValueError, match=f"fixed sigma must be finite and > 0, got {sigma}"):
        MmdConfig(sigma=sigma)


def mmd_broadcast_oracle(x, y, sigma=None):
    """The former broadcast formula: one (n, m, 3) difference tensor per block."""

    def square_dists(a, b):
        diff = a[:, None, :] - b[None, :, :]
        return (diff * diff).sum(axis=-1)

    if sigma is None:
        pooled = np.vstack([x, y])
        upper = square_dists(pooled, pooled)[np.triu_indices(len(pooled), k=1)]
        median = float(np.median(np.sqrt(upper)))
        sigma = median if median > 0.0 else 1.0
    m, n = len(x), len(y)
    denom = 2.0 * sigma * sigma
    kxx = float(np.exp(-square_dists(x, x) / denom).sum()) / (m * m)
    kyy = float(np.exp(-square_dists(y, y) / denom).sum()) / (n * n)
    kxy = float(np.exp(-square_dists(x, y) / denom).sum()) * 2.0 / (m * n)
    return math.sqrt(max(kxx + kyy - kxy, 0.0))


@pytest.mark.parametrize(
    "m, n, sigma, spread",
    [
        (512, 512, None, 1.0),
        (4, 3, None, 1.0),  # 21 pooled pairs: single middle rank
        (1, 40, None, 1.0),
        (40, 1, None, 1.0),
        (6, 5, None, 0.0),  # every point identical: median 0, sigma 1.0
        (60, 45, 0.7, 1.0),
    ],
    ids=["512+512", "odd-pairs", "one-point-x", "one-point-y", "identical", "fixed-sigma"],
)
def test_mmd_matches_broadcast_formula_bitwise(m, n, sigma, spread):
    rng = np.random.default_rng(m * 1000 + n)
    x = spread * rng.normal(size=(m, 3)) + 0.25
    y = spread * rng.normal(size=(n, 3)) + 0.25
    cfg = MmdConfig(sigma=sigma)
    assert mmd(x, y, cfg) == mmd_broadcast_oracle(x, y, sigma)


def test_mmd_matches_broadcast_formula_bitwise_random_sizes():
    # a change of summation order (coordinates, or the cross block's
    # orientation) moves the last bit of some of these scores
    rng = np.random.default_rng(12)
    for _ in range(60):
        m = int(rng.integers(1, 200))
        n = int(rng.integers(1, 200))
        x = rng.normal(size=(m, 3)) * rng.uniform(0.1, 5.0)
        y = rng.normal(size=(n, 3)) + rng.normal(size=3)
        sigma = float(rng.uniform(0.2, 3.0))
        assert mmd(x, y) == mmd_broadcast_oracle(x, y)
        assert mmd(x, y, MmdConfig(sigma=sigma)) == mmd_broadcast_oracle(x, y, sigma)


def test_mmd_above_subsample_limit_uses_median_heuristic_sigma():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(1300, 3))
    y = rng.normal(size=(900, 3)) + 0.3
    assert mmd(x, y) == mmd(x, y, MmdConfig(sigma=median_heuristic_sigma(x, y)))


# ---------------------------------------------------------------- histogram


def test_histogram_single_score():
    counts, edges = mmd_histogram([0.37], bins=16)
    assert counts.sum() == 1
    assert counts[-1] == 1
    assert edges[0] == 0.0
    assert math.isclose(edges[-1], 0.37)


def test_histogram_counts_sum():
    rng = np.random.default_rng(9)
    scores = rng.uniform(0, 1, 137)
    counts, _ = mmd_histogram(scores)
    assert counts.sum() == 137
    assert len(counts) == 16


def test_histogram_hand_fixture():
    counts, edges = mmd_histogram([0.1, 0.2, 0.4, 0.8], bins=4)
    np.testing.assert_array_equal(counts, [1, 1, 1, 1])
    np.testing.assert_allclose(edges, [0.0, 0.2, 0.4, 0.6, 0.8])


def test_histogram_empty_bins_unit_range():
    counts, edges = mmd_histogram([])
    np.testing.assert_array_equal(counts, np.zeros(16, dtype=int))
    assert edges.tobytes() == np.linspace(0.0, 1.0, 17).tobytes()


def test_histogram_all_zero_scores():
    counts, edges = mmd_histogram([0.0, 0.0], bins=4)
    assert counts.sum() == 2
    assert edges[-1] == 1.0  # degenerate range guard


# ---------------------------------------------------------------- PCA


def power_iteration_top2(cov, iters=2000, seed=0):
    rng = np.random.default_rng(seed)
    comps = []
    deflated = cov.copy()
    for _ in range(2):
        v = rng.normal(size=len(cov))
        v /= np.linalg.norm(v)
        for _ in range(iters):
            v = deflated @ v
            norm = np.linalg.norm(v)
            if norm == 0:
                break
            v /= norm
        lam = float(v @ cov @ v)
        comps.append(v.copy())
        deflated = deflated - lam * np.outer(v, v)
    return np.array(comps)


def principal_angles(a, b):
    sv = np.linalg.svd(a @ b.T, compute_uv=False)
    return np.arccos(np.clip(sv, -1.0, 1.0))


def test_pca_components_orthonormal():
    rng = np.random.default_rng(10)
    latents = rng.normal(size=(200, 21))
    proj = pca_2d(latents)
    gram = proj.components @ proj.components.T
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-9)


def test_pca_rank_one_data():
    rng = np.random.default_rng(11)
    direction = rng.normal(size=21)
    latents = np.outer(rng.normal(size=100), direction)
    proj = pca_2d(latents)
    assert proj.explained_variance[0] > 0.999
    assert proj.explained_variance[0] >= proj.explained_variance[1] >= 0.0


def test_pca_matches_power_iteration_oracle():
    rng = np.random.default_rng(12)
    latents = rng.normal(size=(300, 21)) @ np.diag(rng.uniform(0.2, 3.0, 21))
    proj = pca_2d(latents)
    centered = latents - latents.mean(axis=0)
    cov = centered.T @ centered / (len(latents) - 1)
    oracle = power_iteration_top2(cov)
    angles = principal_angles(proj.components, oracle)
    assert angles.max() < 1e-6


def test_pca_sign_convention():
    rng = np.random.default_rng(13)
    latents = rng.normal(size=(50, 21))
    proj = pca_2d(latents)
    for row in proj.components:
        assert row[np.argmax(np.abs(row))] > 0.0


def test_pca_projection_non_expansive():
    rng = np.random.default_rng(14)
    latents = rng.normal(size=(80, 21))
    proj = pca_2d(latents)
    for _ in range(100):
        i, j = rng.integers(0, 80, 2)
        d2 = np.linalg.norm(proj.coords[i] - proj.coords[j])
        dfull = np.linalg.norm(latents[i] - latents[j])
        assert d2 <= dfull + 1e-9


def test_pca_reconstruction_error_equals_trailing_eigenvalues():
    rng = np.random.default_rng(15)
    latents = rng.normal(size=(120, 21)) @ np.diag(rng.uniform(0.1, 2.0, 21))
    proj = pca_2d(latents)
    centered = latents - latents.mean(axis=0)
    resid = centered - proj.coords @ proj.components
    per_sample = (resid**2).sum() / (len(latents) - 1)
    eigvals = np.linalg.eigvalsh(centered.T @ centered / (len(latents) - 1))
    trailing = eigvals[:-2].sum()
    assert abs(per_sample - trailing) < 1e-8


def test_pca_too_few_rows():
    with pytest.raises(ValueError, match="need at least 3 latent rows"):
        pca_2d(np.zeros((2, 21)))

