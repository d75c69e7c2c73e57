"""Evaluation mathematics: kernel MMD, score histograms, PCA.

The MMD estimator is the biased V-statistic (diagonal terms included) under a
Gaussian RBF kernel whose bandwidth defaults to the median pairwise distance
of the pooled clouds. PCA takes the top two eigenvectors of the 21x21 sample
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
        if self.sigma is not None and self.sigma <= 0.0:
            raise BadSigma(f"fixed sigma must be > 0, got {self.sigma}")
        if self.cloud_size < 1:
            raise ValueError("cloud_size must be >= 1")


def _square_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return (diff * diff).sum(axis=-1)


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
    d2 = _square_dists(pooled, pooled)
    iu = np.triu_indices(len(pooled), k=1)
    median = float(np.median(np.sqrt(d2[iu])))
    return median if median > 0.0 else 1.0


def mmd(x_points, y_points, config: MmdConfig = MmdConfig()) -> float:
    """Biased empirical MMD between two point clouds, diagonal terms included."""
    x = np.asarray(x_points, dtype=float)
    y = np.asarray(y_points, dtype=float)
    m, n = len(x), len(y)
    if m < 1 or n < 1:
        raise TooFewPoints("both clouds must be non-empty")
    sigma = config.sigma if config.sigma is not None else median_heuristic_sigma(x, y)
    if sigma <= 0.0:
        raise BadSigma(f"sigma must be > 0, got {sigma}")
    denom = 2.0 * sigma * sigma
    kxx = float(np.exp(-_square_dists(x, x) / denom).sum()) / (m * m)
    kyy = float(np.exp(-_square_dists(y, y) / denom).sum()) / (n * n)
    kxy = float(np.exp(-_square_dists(x, y) / denom).sum()) * 2.0 / (m * n)
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
