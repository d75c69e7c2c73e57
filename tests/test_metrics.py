import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cadrepair import metrics
from cadrepair.config import ConfigError, RunConfig
from cadrepair.metrics import median_heuristic_sigma, mmd, mmd_histogram, pca_2d


# ---------------------------------------------------------------- median heuristic


def test_median_two_points():
    assert median_heuristic_sigma(np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])) == 5.0


def test_median_identical_points_fallback():
    assert median_heuristic_sigma(np.zeros((10, 3))) == 1.0


def sort_oracle_median(points):
    dists = sorted(
        float(np.linalg.norm(points[i] - points[j]))
        for i in range(len(points))
        for j in range(i + 1, len(points))
    )
    k = len(dists)
    return dists[k // 2] if k % 2 else 0.5 * (dists[k // 2 - 1] + dists[k // 2])


def test_median_matches_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        points = rng.normal(size=(100, 3))
        oracle = sort_oracle_median(points)
        assert math.isclose(median_heuristic_sigma(points), oracle, rel_tol=1e-9)


def test_median_matches_sort_oracle_odd_pair_count():
    # 7 points give 21 pairs: the median is the single middle rank
    rng = np.random.default_rng(10)
    for _ in range(10):
        points = rng.normal(size=(7, 3))
        dists = sorted(
            float(np.linalg.norm(points[i] - points[j]))
            for i in range(len(points))
            for j in range(i + 1, len(points))
        )
        assert len(dists) == 21
        assert math.isclose(median_heuristic_sigma(points), dists[10], rel_tol=1e-9)


def test_median_too_few_points():
    # no pair of points, no distance: the zero-median fallback, not an error
    assert median_heuristic_sigma(np.array([[0.3, -0.2, 0.5]])) == 1.0
    assert median_heuristic_sigma(np.zeros((0, 3))) == 1.0


def test_median_subsample_above_limit_deterministic():
    rng = np.random.default_rng(1)
    points = rng.normal(size=(3000, 3))
    assert median_heuristic_sigma(points) == median_heuristic_sigma(points.copy())


def full_pairwise_square_dists(points):
    """The former full-matrix build: (n, n) Gram-form squared distances of the
    centred rows, one einsum over the whole cloud, clamped at 0."""
    centred = (points - points.mean(axis=0)).T
    left = np.empty((5, centred.shape[1]))
    right = np.empty_like(left)
    left[:3] = centred
    np.multiply(centred, -2.0, out=right[:3])
    left[3] = centred[0] * centred[0] + centred[1] * centred[1] + centred[2] * centred[2]
    left[4] = 1.0
    right[3] = 1.0
    right[4] = left[3]
    d2 = np.einsum("ki,kj->ij", left, right)
    return np.maximum(d2, 0.0, out=d2)


def full_median_distance(d2):
    """The former median: the strict upper triangle gathered from the full
    matrix, its middle rank(s) selected, then sqrt; 1.0 when it is zero."""
    upper = d2[~np.tri(len(d2), dtype=bool)]
    half = len(upper) // 2
    upper.partition(half)
    median = math.sqrt(upper[half])
    if len(upper) % 2 == 0:
        median = (math.sqrt(upper[:half].max()) + median) / 2.0
    return median if median > 0.0 else 1.0


def full_matrix_sigma(points):
    if len(points) > metrics._MEDIAN_SUBSAMPLE_LIMIT:
        rng = np.random.default_rng(metrics._MEDIAN_SUBSAMPLE_SEED)
        points = points[rng.choice(len(points), metrics._MEDIAN_SUBSAMPLE_LIMIT, replace=False)]
    return full_median_distance(full_pairwise_square_dists(points))


@pytest.mark.parametrize("points", [2, 3, 63, 64, 65, 129, 414, 1024, 2048, 2200])
def test_median_equals_the_full_matrix_oracle_bitwise(points):
    # the tiles hold the same multiset of squared distances, so the same sigma;
    # 2200 points take the subsample path
    rng = np.random.default_rng(points)
    cloud = rng.normal(size=(points, 3)) * rng.uniform(0.1, 5.0) + rng.normal(size=3)
    for size in (points, max(points // 2, 2)):
        assert median_heuristic_sigma(cloud[:size]) == full_matrix_sigma(cloud[:size])


def test_upper_buffer_holds_the_strict_upper_triangle():
    rng = np.random.default_rng(6)
    for pooled in (2, 64, 65, 200):
        points = rng.normal(size=(pooled, 3))
        full = full_pairwise_square_dists(points)
        expected = np.sort(full[~np.tri(pooled, dtype=bool)])
        np.testing.assert_array_equal(np.sort(metrics._upper_square_dists(points)), expected)


# ---------------------------------------------------------------- MMD
#
# mmd(reference, clouds, sigma) scores each cloud against the reference under
# one kernel; the single-cloud cases below score x against the reference y.


def score(x, y, sigma=None):
    [value] = mmd(y, [x], sigma)
    return value


def mmd_oracle(x, y, sigma=None):
    """Double loops over the points; sigma None takes the reference y's median
    pairwise distance, 1.0 when it is zero or y has one point."""
    m, n = len(x), len(y)
    if sigma is None:
        sigma = sort_oracle_median(y) if n > 1 else 1.0
        sigma = sigma if sigma > 0.0 else 1.0

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
    assert mmd(x, [x.copy()]) == [0.0]


@pytest.mark.parametrize("points", [1, 63, 64, 65, 207, 512])
def test_mmd_identical_clouds_is_zero_on_both_sides_of_the_tile_size(points):
    # the xx, xy and yy sums run over equal tiles laid out alike, so they cancel,
    # also beside a cloud of another size
    rng = np.random.default_rng(2)
    x = rng.normal(size=(points, 3)) * 0.37 + 0.1
    other = rng.normal(size=(points + 7, 3))
    assert mmd(x, [x.copy(), other])[0] == 0.0
    assert mmd(x, [other, x.copy()], 0.3)[1] == 0.0


def test_mmd_hand_case():
    x = np.array([[0.0, 0.0, 0.0]])
    y = np.array([[1.0, 0.0, 0.0]])
    expected = math.sqrt(2.0 - 2.0 * math.exp(-0.5))
    assert abs(score(x, y, 1.0) - expected) < 1e-9
    # a one-point reference has no pair: the median bandwidth falls back to 1.0
    assert score(x, y) == score(x, y, 1.0)


def test_mmd_symmetric_bitwise():
    # named for the former bitwise check. The median bandwidth is the
    # reference's alone, so only a fixed sigma is symmetric; the Gram form is
    # centred on the reference, so the two orders agree to the oracle tolerance
    rng = np.random.default_rng(3)
    x = rng.normal(size=(17, 3))
    y = rng.normal(size=(23, 3)) + 0.5
    assert abs(score(x, y, 0.8) - score(y, x, 0.8)) <= ORACLE_TOLERANCE


def test_mmd_matches_double_loop_oracle():
    rng = np.random.default_rng(4)
    for _ in range(12):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 65))
        x = rng.normal(size=(m, 3))
        y = rng.normal(size=(n, 3)) + rng.normal(scale=0.5, size=3)
        sigma = float(rng.uniform(0.3, 2.0))
        assert abs(score(x, y, sigma) - mmd_oracle(x, y, sigma)) <= ORACLE_TOLERANCE
        assert abs(score(x, y) - mmd_oracle(x, y)) <= ORACLE_TOLERANCE


def test_mmd_translation_invariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=(30, 3))
    shift = np.array([10.0, -4.0, 2.5])
    for sigma in (1.0, None):
        assert abs(score(x, y, sigma) - score(x + shift, y + shift, sigma)) < 1e-12


def test_mmd_empty_cloud_raises():
    empty, five = np.zeros((0, 3)), np.zeros((5, 3))
    for reference, cloud in ((empty, five), (five, empty)):
        with pytest.raises(ValueError, match="every cloud must be non-empty"):
            mmd(reference, [cloud])


def test_mmd_scores_each_cloud_as_if_alone():
    # the reference's sum and bandwidth are shared; a cloud's bits are not
    # touched by the clouds beside it, at any size or order
    rng = np.random.default_rng(7)
    y = rng.normal(size=(207, 3))
    clouds = [rng.normal(size=(size, 3)) + 0.2 for size in (1, 64, 207, 300)]
    for sigma in (None, 0.4):
        alone = [score(x, y, sigma) for x in clouds]
        assert mmd(y, clouds, sigma) == alone
        assert mmd(y, clouds[::-1], sigma) == alone[::-1]
    assert mmd(y, []) == []


# mmd takes its bandwidth as given; a fixed one is checked once, in RunConfig.
@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, 0.0])
def test_mmd_config_rejects_non_finite_or_zero_sigma(sigma):
    with pytest.raises(ConfigError, match="fixed sigma must be finite and > 0"):
        RunConfig(sigma_mode=sigma)


# The Gram-form distance build rounds differently from the broadcast
# differences below; over 300 random pairs, ties and identical clouds
# included, the largest score error was about 1.1e-15.
ORACLE_TOLERANCE = 1e-13


def mmd_broadcast_oracle(x, y, sigma=None):
    """The former broadcast formula: one (n, m, 3) difference tensor per block;
    sigma None takes the reference y's median pairwise distance."""

    def square_dists(a, b):
        diff = a[:, None, :] - b[None, :, :]
        return (diff * diff).sum(axis=-1)

    if sigma is None:
        upper = square_dists(y, y)[np.triu_indices(len(y), k=1)]
        median = float(np.median(np.sqrt(upper))) if len(upper) else 0.0
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
        (4, 3, None, 1.0),  # 3 reference pairs: single middle rank
        (1, 40, None, 1.0),
        (40, 1, None, 1.0),  # one-point reference: sigma 1.0
        (6, 5, None, 0.0),  # every point identical: median 0, sigma 1.0
        (60, 45, 0.7, 1.0),
        (63, 65, None, 1.0),
        (65, 63, None, 1.0),
        (1, 129, None, 1.0),
        (200, 64, None, 1.0),
        (130, 70, 0.5, 1.0),
    ],
    ids=[
        "512+512",
        "odd-pairs",
        "one-point-x",
        "one-point-y",
        "identical",
        "fixed-sigma",
        "63+65",
        "65+63",
        "1+129",
        "200+64",
        "130+70-fixed-sigma",
    ],
)
def test_mmd_matches_broadcast_formula_bitwise(m, n, sigma, spread):
    # named for the former bitwise check; the Gram form is held to ORACLE_TOLERANCE
    rng = np.random.default_rng(m * 1000 + n)
    x = spread * rng.normal(size=(m, 3)) + 0.25
    y = spread * rng.normal(size=(n, 3)) + 0.25
    assert abs(score(x, y, sigma) - mmd_broadcast_oracle(x, y, sigma)) <= ORACLE_TOLERANCE


def test_mmd_matches_broadcast_formula_bitwise_random_sizes():
    # named for the former bitwise check; the Gram form is held to ORACLE_TOLERANCE
    rng = np.random.default_rng(12)
    for _ in range(60):
        m = int(rng.integers(1, 200))
        n = int(rng.integers(1, 200))
        x = rng.normal(size=(m, 3)) * rng.uniform(0.1, 5.0)
        y = rng.normal(size=(n, 3)) + rng.normal(size=3)
        sigma = float(rng.uniform(0.2, 3.0))
        assert abs(score(x, y) - mmd_broadcast_oracle(x, y)) <= ORACLE_TOLERANCE
        assert abs(score(x, y, sigma) - mmd_broadcast_oracle(x, y, sigma)) <= ORACLE_TOLERANCE


@pytest.mark.parametrize("value", [0.1, 1.0 / 3.0, 7.77])
def test_mmd_identical_points_at_a_non_dyadic_value(value):
    # centring leaves rounding residue at such values; the ordered Gram sum
    # must still cancel it to d² = 0, so sigma falls back to 1.0
    x = np.full((6, 3), value)
    y = np.full((5, 3), value)
    assert median_heuristic_sigma(y) == 1.0
    assert score(x, y) == 0.0


def median_bandwidth_is_the_references_own(points):
    rng = np.random.default_rng(11)
    y = rng.normal(size=(points, 3))
    clouds = [rng.normal(size=(900, 3)) + 0.3, rng.normal(size=(5, 3))]
    assert mmd(y, clouds) == mmd(y, clouds, median_heuristic_sigma(y))


def test_mmd_median_bandwidth_is_the_references_own_bitwise():
    median_bandwidth_is_the_references_own(207)


def test_mmd_above_subsample_limit_uses_median_heuristic_sigma():
    # a reference of 2,100 points takes the subsample path
    median_bandwidth_is_the_references_own(2100)


_DISTANCE_DIGEST = """
import hashlib
import numpy as np
from cadrepair.metrics import _upper_square_dists
rng = np.random.default_rng(5)
digest = hashlib.sha256()
for pooled in (414, 450, 1024):
    digest.update(_upper_square_dists(rng.normal(size=(pooled, 3))).tobytes())
print(digest.hexdigest())
"""


def test_distance_build_does_not_depend_on_blas_threads():
    # a BLAS product here would be threaded at these sizes, and a threaded
    # product rounds some entries differently; the einsum build makes none
    src = str(Path(metrics.__file__).parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        run = subprocess.run(
            [sys.executable, "-c", _DISTANCE_DIGEST], env=env, check=True, capture_output=True
        )
        digests.add(run.stdout)
    assert len(digests) == 1


def traced_peak_mib(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "fn, m, n, limit_mib",
    [
        (score, 512, 512, 2.0),  # the pooled full-matrix build peaked at 13.0
        (score, 1100, 1100, 6.0),  # 89.0 with the pooled full matrices
        (score, 512, 2100, 20.0),  # subsample path: the 2,048-point median buffer
        # the 1 MiB buffer of 130,816 distances and one (64, 512) tile
        (median_heuristic_sigma, 0, 512, 1.5),
        # the kernel sums alone hold one (64, 512) tile, 0.25 MiB
        (lambda x, y: score(x, y, 0.5), 512, 512, 0.5),
    ],
    ids=[
        "mmd-512+512",
        "mmd-1100+1100",
        "mmd-512+2100",
        "sigma-512+512",
        "mmd-fixed-sigma-512+512",
    ],
)
def test_peak_memory_stays_below_the_pooled_matrix(fn, m, n, limit_mib):
    # x is the scored cloud, y the reference
    rng = np.random.default_rng(m + n)
    x = rng.normal(size=(m, 3))
    y = rng.normal(size=(n, 3)) + 0.2
    args = (y,) if fn is median_heuristic_sigma else (x, y)
    assert traced_peak_mib(fn, *args) <= limit_mib


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
    components, _, _ = pca_2d(latents)
    gram = components @ components.T
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-9)


def test_pca_rank_one_data():
    rng = np.random.default_rng(11)
    direction = rng.normal(size=21)
    latents = np.outer(rng.normal(size=100), direction)
    _, _, explained = pca_2d(latents)
    assert explained[0] > 0.999
    assert explained[0] >= explained[1] >= 0.0


def test_pca_matches_power_iteration_oracle():
    rng = np.random.default_rng(12)
    latents = rng.normal(size=(300, 21)) @ np.diag(rng.uniform(0.2, 3.0, 21))
    components, _, _ = pca_2d(latents)
    centered = latents - latents.mean(axis=0)
    cov = centered.T @ centered / (len(latents) - 1)
    oracle = power_iteration_top2(cov)
    angles = principal_angles(components, oracle)
    assert angles.max() < 1e-6


def test_pca_sign_convention():
    rng = np.random.default_rng(13)
    latents = rng.normal(size=(50, 21))
    components, _, _ = pca_2d(latents)
    for row in components:
        assert row[np.argmax(np.abs(row))] > 0.0


def test_pca_projection_non_expansive():
    rng = np.random.default_rng(14)
    latents = rng.normal(size=(80, 21))
    _, coords, _ = pca_2d(latents)
    for _ in range(100):
        i, j = rng.integers(0, 80, 2)
        d2 = np.linalg.norm(coords[i] - coords[j])
        dfull = np.linalg.norm(latents[i] - latents[j])
        assert d2 <= dfull + 1e-9


def test_pca_reconstruction_error_equals_trailing_eigenvalues():
    rng = np.random.default_rng(15)
    latents = rng.normal(size=(120, 21)) @ np.diag(rng.uniform(0.1, 2.0, 21))
    components, coords, _ = pca_2d(latents)
    centered = latents - latents.mean(axis=0)
    resid = centered - coords @ components
    per_sample = (resid**2).sum() / (len(latents) - 1)
    eigvals = np.linalg.eigvalsh(centered.T @ centered / (len(latents) - 1))
    trailing = eigvals[:-2].sum()
    assert abs(per_sample - trailing) < 1e-8


def test_pca_too_few_rows():
    with pytest.raises(ValueError, match="need at least 3 latent rows"):
        pca_2d(np.zeros((2, 21)))

