"""Evaluation mathematics: kernel MMD, score histograms, PCA.

The MMD estimator is the biased V-statistic (diagonal terms included) under a
Gaussian RBF kernel. ``mmd`` scores a list of clouds against one reference
cloud, all under one kernel: its bandwidth is given (a run's ``sigma_mode``
number) or else the median pairwise distance of the reference alone (Gretton
et al., JMLR 2012), so every variant of an eval condition is scored under the
kernel of its ground-truth cloud. Squared distances are built in Gram form,
|x|² + |y|² - 2x·y of points centred on the reference's mean, with one einsum
product per tile of _TILE_ROWS rows and negatives clamped to 0, so no call
holds a full distance matrix. The median bandwidth is selected exactly from
one N(N-1)/2 buffer of the strict upper triangle, filled a tile at a time
(N ≤ 2048 after subsampling, about 4N² bytes). The kernel sums rebuild each
tile in a (_TILE_ROWS, columns) scratch buffer, exponentiate it and add it to
a running sum: the reference's own sum once per call, then each cloud's sum
against itself and against the reference. The Gram form agrees with summing
per-coordinate squared differences to about 1e-15, not bitwise; it is
BLAS-free, so scores do not depend on the BLAS thread count. PCA takes the top
two eigenvectors of the 21x21 sample covariance.
"""

from __future__ import annotations

import math

import numpy as np


_MEDIAN_SUBSAMPLE_LIMIT = 2048
_MEDIAN_SUBSAMPLE_SEED = 0
# Rows of the squared-distance matrix built at once: at 2,048 columns a
# float64 tile is 1 MiB, small enough to stay in cache while it is
# exponentiated and summed.
_TILE_ROWS = 64
_STRICT_UPPER = ~np.tri(_TILE_ROWS, dtype=bool)


def _gram_operands(points: np.ndarray, centre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two contiguous (5, n) operands of the Gram form, [p, |p|², 1] and
    [-2p, 1, |p|²], of the rows p of `points` less `centre`.

    d²(i, j) = |p_i|² + |p_j|² - 2 p_i·p_j is the einsum of column i of the
    first with column j of the second. einsum without ``optimize`` runs numpy's
    own loops, never a BLAS call, so the result does not depend on the BLAS
    thread count; it sums the five terms in order, which makes the diagonal,
    and every pair of identical points, exactly 0.
    """
    centred = (points - centre).T
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


def _kernel_sum(left: np.ndarray, right: np.ndarray, sigma: float) -> float:
    """Sum of the RBF kernel over every column of `left` against every column
    of `right`, a tile of _TILE_ROWS columns of `left` at a time in one
    contiguous scratch buffer. It depends only on the operands and `sigma`, so
    equal operands give equal bits, and two identical clouds' sums cancel."""
    scratch = np.empty((min(_TILE_ROWS, left.shape[1]), right.shape[1]))
    scale = -0.5 / (sigma * sigma)
    total = 0.0
    for start in range(0, left.shape[1], _TILE_ROWS):
        tile = _square_dists(left[:, start : start + _TILE_ROWS], right, scratch)
        total += float(np.exp(np.multiply(tile, scale, out=tile), out=tile).sum())
    return total


def _upper_square_dists(points: np.ndarray) -> np.ndarray:
    """The n(n-1)/2 squared distances d²(i, j), i < j, between the rows of
    `points`, in tile order: per tile of rows, the strict upper triangle of its
    leading square, then the rectangle right of it."""
    left, right = _gram_operands(points, points.mean(axis=0))
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


def median_heuristic_sigma(points) -> float:
    """Median pairwise distance of one cloud's points; strictly positive.

    Exact for up to 2048 points, a fixed-seed uniform subsample above that;
    1.0 when the median distance is zero or there is no pair of points.
    """
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        return 1.0
    if len(points) > _MEDIAN_SUBSAMPLE_LIMIT:
        rng = np.random.default_rng(_MEDIAN_SUBSAMPLE_SEED)
        points = points[rng.choice(len(points), _MEDIAN_SUBSAMPLE_LIMIT, replace=False)]
    return _median_distance(_upper_square_dists(points))


def mmd(reference, clouds, sigma: float | None = None) -> list[float]:
    """Biased empirical MMD of each cloud in `clouds` against the `reference`
    cloud, diagonal terms included, all under the RBF kernel of bandwidth
    ``sigma`` (a run's ``cfg.fixed_sigma``, whose range RunConfig checks), or
    of ``median_heuristic_sigma(reference)`` when ``sigma`` is None.

    The reference's own kernel sum is taken once; a cloud's score depends only
    on the cloud, the reference and the bandwidth, not on the other clouds.
    """
    y = np.asarray(reference, dtype=float)
    xs = [np.asarray(cloud, dtype=float) for cloud in clouds]
    if min(len(points) for points in (y, *xs)) < 1:
        raise ValueError("every cloud must be non-empty")
    if sigma is None:
        sigma = median_heuristic_sigma(y)
    centre = y.mean(axis=0)
    left_y, right_y = _gram_operands(y, centre)
    n = len(y)
    kyy = _kernel_sum(left_y, right_y, sigma) / (n * n)
    scores = []
    for x in xs:
        m = len(x)
        left_x, right_x = _gram_operands(x, centre)
        kxx = _kernel_sum(left_x, right_x, sigma) / (m * m)
        kxy = _kernel_sum(left_x, right_y, sigma) * 2.0 / (m * n)
        scores.append(math.sqrt(max(kxx + kyy - kxy, 0.0)))
    return scores


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
