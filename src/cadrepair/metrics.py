"""Evaluation mathematics: kernel MMD, score histograms, PCA.

The MMD estimator is the biased V-statistic (diagonal terms included) under a
Gaussian RBF kernel whose bandwidth is given (a run's ``sigma_mode`` number) or
else the median pairwise distance of the pooled clouds. Squared distances of
the pooled cloud are built in Gram form, |x|² + |y|² - 2x·y with one einsum
product per tile of _TILE_ROWS rows and negatives clamped to 0, so no call
holds the (m+n)² matrix. The median bandwidth is selected exactly from one
N(N-1)/2 buffer of the strict upper triangle, filled a tile at a time; the
kernel sums then rebuild each tile, exponentiate it in its (_TILE_ROWS, N)
scratch buffer and add its xx, xy and yy parts to running sums. Rows of y are
built against the columns of y alone, since no sum reads the yx block. So a
call holds about 4N² bytes for the median (N ≤ 2048 after subsampling) and
8·_TILE_ROWS·N bytes for the sums. The Gram form agrees with summing
per-coordinate squared differences to about 1e-15, not bitwise; it is
BLAS-free, so scores do not depend on the BLAS thread count. PCA takes the top
two eigenvectors of the 21x21 sample covariance.
"""

from __future__ import annotations

import math

import numpy as np


_MEDIAN_SUBSAMPLE_LIMIT = 2048
_MEDIAN_SUBSAMPLE_SEED = 0
# Rows of the squared-distance matrix built at once: at 2,048 pooled points a
# float64 tile is 1 MiB, small enough to stay in cache while it is
# exponentiated and summed.
_TILE_ROWS = 64
_STRICT_UPPER = ~np.tri(_TILE_ROWS, dtype=bool)


def _gram_operands(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two contiguous (5, n) operands of the Gram form, [p, |p|², 1] and
    [-2p, 1, |p|²], of the centred rows p of `points`.

    After centring, d²(i, j) = |p_i|² + |p_j|² - 2 p_i·p_j is the einsum of
    column i of the first with column j of the second. einsum without
    ``optimize`` runs numpy's own loops, never a BLAS call, so the result does
    not depend on the BLAS thread count; it sums the five terms in order, which
    makes the diagonal, and every pair of identical points, exactly 0.
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
    return left, right


def _square_dists(left: np.ndarray, right: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Squared distances between the columns of `left` and of `right`, written
    into the leading block of `scratch` and clamped at 0. An entry has the same
    bits in every tile, since the views keep the full operands' strides."""
    out = scratch[: left.shape[1], : right.shape[1]]
    np.einsum("ki,kj->ij", left, right, out=out)
    return np.maximum(out, 0.0, out=out)


def _kernel_tile(
    left: np.ndarray, right: np.ndarray, scratch: np.ndarray, sigma: float
) -> np.ndarray:
    """The RBF kernel values of one tile of squared distances, in `scratch`."""
    tile = _square_dists(left, right, scratch)
    return np.exp(np.divide(tile, -2.0 * sigma * sigma, out=tile), out=tile)


def _upper_square_dists(points: np.ndarray) -> np.ndarray:
    """The n(n-1)/2 squared distances d²(i, j), i < j, between the rows of
    `points`, in tile order: per tile of rows, the strict upper triangle of its
    leading square, then the rectangle right of it."""
    left, right = _gram_operands(points)
    n = left.shape[1]
    upper = np.empty(n * (n - 1) // 2)
    scratch = np.empty((min(_TILE_ROWS, n), n))
    filled = 0
    for start in range(0, n, _TILE_ROWS):
        stop = min(start + _TILE_ROWS, n)
        rows = stop - start
        tile = _square_dists(left[:, start:stop], right[:, start:], scratch)
        triangle = tile[:, :rows][_STRICT_UPPER[:rows, :rows]]
        upper[filled : filled + len(triangle)] = triangle
        filled += len(triangle)
        rectangle = upper[filled : filled + rows * (n - stop)].reshape(rows, n - stop)
        rectangle[...] = tile[:, rows:]
        filled += rectangle.size
    return upper


def _median_distance(upper: np.ndarray) -> float:
    """Median of sqrt over the squared distances `upper`, reordered in place;
    1.0 when it is zero.

    Selects the middle one or two squared distances and takes sqrt of those
    alone: sqrt is monotone, so this equals ``np.median(np.sqrt(upper))``.
    """
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
    return _median_distance(_upper_square_dists(pooled))


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
    if sigma is None:
        sigma = median_heuristic_sigma(x, y)
    left, right = _gram_operands(np.vstack([x, y]))
    scratch = np.empty((min(_TILE_ROWS, max(m, n)), m + n))
    kxx = kxy = kyy = 0.0
    for start in range(0, m, _TILE_ROWS):
        kernel = _kernel_tile(left[:, start : min(start + _TILE_ROWS, m)], right, scratch, sigma)
        kxx += float(kernel[:, :m].sum())
        kxy += float(kernel[:, m:].sum())
    # rows of y against the columns of y alone, laid out as the xy part above,
    # so that the three sums of two identical clouds cancel exactly
    right_y, scratch_y = right[:, m:], scratch[:, m:]
    for start in range(m, m + n, _TILE_ROWS):
        kernel = _kernel_tile(left[:, start : start + _TILE_ROWS], right_y, scratch_y, sigma)
        kyy += float(kernel.sum())
    kxx, kxy, kyy = kxx / (m * m), kxy * 2.0 / (m * n), kyy / (n * n)
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
