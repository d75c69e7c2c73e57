"""Evaluation mathematics: kernel MMD, score histograms, PCA.

The MMD estimator is the biased V-statistic (diagonal terms included) under a
Gaussian RBF kernel whose bandwidth is given (a run's ``sigma_mode`` number) or
else the median pairwise distance of the pooled clouds. Each call builds one
squared-distance matrix of the pooled cloud in Gram form, |x|² + |y|² - 2x·y
with one einsum product and negatives clamped to 0; the median bandwidth is
selected exactly from it, and it is then turned into the kernel matrix in
place, whose xx, yy and xy blocks are summed. The Gram form agrees with summing
per-coordinate squared differences to about 1e-15, not bitwise; it is
BLAS-free, so scores do not depend on the BLAS thread count. PCA takes the top
two eigenvectors of the 21x21 sample covariance.
"""

from __future__ import annotations

import math

import numpy as np


_MEDIAN_SUBSAMPLE_LIMIT = 2048
_MEDIAN_SUBSAMPLE_SEED = 0


def _pairwise_square_dists(points: np.ndarray) -> np.ndarray:
    """(n, n) squared distances between the rows of `points`, clamped at 0.

    Gram form: after centring, d²(i, j) = |p_i|² + |p_j|² - 2 p_i·p_j, built by one
    einsum over two contiguous (5, n) operands, [p, |p|², 1] and [-2p, 1, |p|²].
    einsum without ``optimize`` runs numpy's own loops, never a BLAS call, so the
    result does not depend on the BLAS thread count; it sums the five terms in
    order, which makes the diagonal, and every pair of identical points, exactly 0.
    """
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


def _median_distance(d2: np.ndarray) -> float:
    """Median of sqrt over the strict upper triangle of `d2`; 1.0 when it is zero.

    Selects the middle one or two squared distances and takes sqrt of those
    alone: sqrt is monotone, so this equals ``np.median(np.sqrt(upper))``.
    """
    upper = d2[~np.tri(len(d2), dtype=bool)]
    half = len(upper) // 2
    upper.partition(half)
    median = math.sqrt(upper[half])
    if len(upper) % 2 == 0:
        # the rank below the middle is the largest value left of it
        median = (math.sqrt(upper[:half].max()) + median) / 2.0
    return median if median > 0.0 else 1.0


def median_heuristic_sigma(x_points, y_points) -> float:
    """Median pairwise distance over the pooled clouds; strictly positive.

    Exact for up to 2048 pooled points, a fixed-seed uniform subsample above
    that; falls back to 1.0 when the median distance is zero.
    """
    pooled = np.vstack([np.asarray(x_points, dtype=float), np.asarray(y_points, dtype=float)])
    if len(pooled) < 2:
        raise ValueError("need at least 2 pooled points")
    if len(pooled) > _MEDIAN_SUBSAMPLE_LIMIT:
        rng = np.random.default_rng(_MEDIAN_SUBSAMPLE_SEED)
        pooled = pooled[rng.choice(len(pooled), _MEDIAN_SUBSAMPLE_LIMIT, replace=False)]
    return _median_distance(_pairwise_square_dists(pooled))


def mmd(x_points, y_points, sigma: float | None = None) -> float:
    """Biased empirical MMD between two point clouds, diagonal terms included,
    under the RBF kernel of bandwidth ``sigma`` (a run's ``cfg.fixed_sigma``,
    whose range RunConfig checks), or of the pooled clouds' median pairwise
    distance when ``sigma`` is None."""
    x = np.asarray(x_points, dtype=float)
    y = np.asarray(y_points, dtype=float)
    m, n = len(x), len(y)
    if m < 1 or n < 1:
        raise ValueError("both clouds must be non-empty")
    d2 = _pairwise_square_dists(np.vstack([x, y]))
    if sigma is None and m + n > _MEDIAN_SUBSAMPLE_LIMIT:
        sigma = median_heuristic_sigma(x, y)
    elif sigma is None:
        sigma = _median_distance(d2)
    # the median above has been read, so d2 becomes the kernel matrix in place
    kernel = np.exp(np.divide(d2, -2.0 * sigma * sigma, out=d2), out=d2)
    kxx = float(kernel[:m, :m].sum()) / (m * m)
    kyy = float(kernel[m:, m:].sum()) / (n * n)
    kxy = float(kernel[:m, m:].sum()) * 2.0 / (m * n)
    return math.sqrt(max(kxx + kyy - kxy, 0.0))


def mmd_histogram(scores, bins: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """numpy's (counts, edges) of equal-width bins over [0, max(scores)], or
    over [0, 1] when that maximum is 0 or there are no scores."""
    values = np.asarray(scores, dtype=float)
    top = float(values.max(initial=0.0))
    return np.histogram(values, bins=bins, range=(0.0, top if top > 0.0 else 1.0))


def pca_2d(latents) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-2 principal axes of the latent rows with a deterministic sign fix:
    (components, coords, explained_variance), that is the (2, d) orthonormal axes,
    the (n, 2) coordinates of the centred rows, and the two axes' shares of the
    total variance, descending."""
    x = np.asarray(latents, dtype=float)
    if x.ndim != 2 or len(x) < 3:
        raise ValueError("need at least 3 latent rows")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (len(x) - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    components = eigenvectors[:, order[:2]].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0.0:
            row *= -1.0
    total = float(eigenvalues.sum())
    explained = eigenvalues[order[:2]] / total if total > 0.0 else np.zeros(2)
    return components, centered @ components.T, explained
