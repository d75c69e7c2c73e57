"""Evaluation mathematics: kernel MMD, score histograms, PCA.

The MMD estimator is the biased V-statistic (diagonal terms included) under a
Gaussian RBF kernel whose bandwidth defaults to the median pairwise distance
of the pooled clouds. Each call builds one squared-distance matrix of the
pooled cloud; the median bandwidth and the xx, yy and xy kernel blocks are all
read from it. PCA takes the top two eigenvectors of the 21x21 sample
covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class MetricsError(Exception):
    pass


class BadSigma(MetricsError):
    pass


class TooFewPoints(MetricsError):
    pass


class EmptyScores(MetricsError):
    pass


class TooFewRows(MetricsError):
    pass


_MEDIAN_SUBSAMPLE_LIMIT = 2048
_MEDIAN_SUBSAMPLE_SEED = 0


@dataclass(frozen=True)
class MmdConfig:
    """RBF bandwidth selection (None = median heuristic) and cloud size."""

    sigma: float | None = None
    cloud_size: int = 512

    def __post_init__(self):
        if self.sigma is not None and not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise BadSigma(f"fixed sigma must be finite and > 0, got {self.sigma}")
        if self.cloud_size < 1:
            raise ValueError("cloud_size must be >= 1")


def _pairwise_square_dists(points: np.ndarray) -> np.ndarray:
    """(n, n) squared distances between the rows of `points`, summed dx² + dy² + dz².

    Built one coordinate at a time into two (n, n) buffers; the summation
    order matches ``(diff * diff).sum(axis=-1)`` over broadcast differences,
    so the values agree bitwise.
    """
    d2 = np.empty((len(points), len(points)))
    term = np.empty_like(d2)
    for k, column in enumerate(points.T):
        out = d2 if k == 0 else term
        np.subtract(column[:, None], column[None, :], out=out)
        np.multiply(out, out, out=out)
        if k > 0:
            np.add(d2, term, out=d2)
    return d2


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
        raise TooFewPoints("need at least 2 pooled points")
    if len(pooled) > _MEDIAN_SUBSAMPLE_LIMIT:
        rng = np.random.default_rng(_MEDIAN_SUBSAMPLE_SEED)
        pooled = pooled[rng.choice(len(pooled), _MEDIAN_SUBSAMPLE_LIMIT, replace=False)]
    return _median_distance(_pairwise_square_dists(pooled))


def mmd(x_points, y_points, config: MmdConfig = MmdConfig()) -> float:
    """Biased empirical MMD between two point clouds, diagonal terms included."""
    x = np.asarray(x_points, dtype=float)
    y = np.asarray(y_points, dtype=float)
    m, n = len(x), len(y)
    if m < 1 or n < 1:
        raise TooFewPoints("both clouds must be non-empty")
    d2 = _pairwise_square_dists(np.vstack([x, y]))
    if config.sigma is not None:
        sigma = config.sigma
    elif m + n > _MEDIAN_SUBSAMPLE_LIMIT:
        sigma = median_heuristic_sigma(x, y)
    else:
        sigma = _median_distance(d2)
    denom = 2.0 * sigma * sigma
    # -block / denom is a fresh C-contiguous array, so each sum runs in the
    # same order as over a separately built block
    kxx = float(np.exp(-d2[:m, :m] / denom).sum()) / (m * m)
    kyy = float(np.exp(-d2[m:, m:] / denom).sum()) / (n * n)
    kxy = float(np.exp(-d2[:m, m:] / denom).sum()) * 2.0 / (m * n)
    return math.sqrt(max(kxx + kyy - kxy, 0.0))


@dataclass(frozen=True, eq=False)
class Histogram:
    counts: np.ndarray
    edges: np.ndarray


def mmd_histogram(scores, bins: int = 16) -> Histogram:
    """Equal-width histogram over [0, max(scores)]."""
    values = np.asarray(scores, dtype=float)
    if values.size == 0:
        raise EmptyScores("no scores to bin")
    top = float(values.max())
    counts, edges = np.histogram(values, bins=bins, range=(0.0, top if top > 0.0 else 1.0))
    return Histogram(counts, edges)


class SourceTag(Enum):
    BASELINE = "Baseline"
    SELF_REPAIRING = "SelfRepairing"
    GROUND_TRUTH = "GroundTruth"


@dataclass(frozen=True, eq=False)
class PcaProjection:
    components: np.ndarray  # (2, d) orthonormal rows
    coords: np.ndarray  # (n, 2)
    tags: tuple[SourceTag, ...]
    explained_variance: np.ndarray  # fractions, descending


def pca_2d(latents, tags) -> PcaProjection:
    """Top-2 principal axes of the latent rows with a deterministic sign fix."""
    x = np.asarray(latents, dtype=float)
    if x.ndim != 2 or len(x) < 3:
        raise TooFewRows("need at least 3 latent rows")
    tag_tuple = tuple(tags)
    if len(tag_tuple) != len(x):
        raise ValueError("one tag per latent row required")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (len(x) - 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    components = eigenvectors[:, order[:2]].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0.0:
            row *= -1.0
    total = float(eigenvalues.sum())
    if total > 0.0:
        explained = eigenvalues[order[:2]] / total
    else:
        explained = np.zeros(2)
    return PcaProjection(components, centered @ components.T, tag_tuple, explained)


@dataclass(frozen=True, eq=False)
class VariantRow:
    """One evaluated configuration: feasibility counts, MMD stats, repair tallies."""

    variant: str
    n: int
    n_valid: int
    feasibility: float
    mmd_scores: tuple[float, ...]
    mean_mmd: float
    median_mmd: float
    histogram: Histogram
    repaired_count: int
    repair_failed_count: int
