"""Latent vectors: the condition descriptor of a latent row, and latent
matrix files.

The latent layout is five slots of (activity/kind channel, x, y, bulge)
followed by the extrusion depth, 21 values total. ``geometry`` defines it and
decodes rows, since its kernel checks them: decoding is total and
discontinuous at the activity threshold 0 and the kind threshold 0.5, which
is what carves latent space into feasible and infeasible regions.
"""

from __future__ import annotations

import logging
import struct
from pathlib import Path

import numpy as np

from .config import ConfigError, MissingArtifact
from .geometry import LATENT_DIM, MAX_EDGES, latent_solid, polygon_area

CONDITION_DIM = 8

logger = logging.getLogger(__name__)

_LATENT_MAGIC = b"LAT1"
_HEADER = struct.Struct("<4sIII")  # magic, row count, row width, reserved


def condition_descriptor(latent, mask=None) -> np.ndarray:
    """Shape descriptor of a kernel-valid latent row, the diffusion condition.

    Features: edge_count/5, |area|, perimeter, centroid x, centroid y,
    bbox width, bbox height, depth, all on the row's ``latent_solid`` profile,
    which reads ``mask``.
    """
    poly, count, depth = latent_solid(latent, mask)
    area = polygon_area(poly)
    nxt = np.concatenate((poly[1:], poly[:1]))
    perimeter = float(np.hypot(*(nxt - poly).T).sum())
    cross = poly[:, 0] * nxt[:, 1] - nxt[:, 0] * poly[:, 1]
    cx = float(((poly[:, 0] + nxt[:, 0]) * cross).sum() / (6.0 * area))
    cy = float(((poly[:, 1] + nxt[:, 1]) * cross).sum() / (6.0 * area))
    width, height = (poly.max(axis=0) - poly.min(axis=0)).tolist()
    return np.array([count / MAX_EDGES, abs(area), perimeter, cx, cy, width, height, depth])


def write_latents(path, latents) -> None:
    """Write a latent matrix as little-endian float32 rows under a 16-byte header,
    with a WARNING for rows that are not finite as written, which ``read_latents``
    refuses."""
    arr = np.ascontiguousarray(np.asarray(latents, dtype=np.float64), dtype="<f4")
    if arr.ndim != 2:
        raise ValueError("latent matrix must be 2-dimensional")
    n_bad = int((~np.isfinite(arr)).any(axis=1).sum())
    if n_bad:
        logger.warning("%s: %d of %d rows are not finite", path, n_bad, arr.shape[0])
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_LATENT_MAGIC, arr.shape[0], arr.shape[1], 0))
        fh.write(arr.tobytes())


def read_latents(path) -> np.ndarray:
    """Read a latent matrix file. An absent file is a MissingArtifact; one that
    cannot be read (a directory, say), a bad header or payload, rows not
    LATENT_DIM wide, or a value that is not finite is a ConfigError naming the path."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise MissingArtifact(f"{path} is missing") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from exc
    if len(data) < _HEADER.size:
        raise ConfigError(f"{path}: too short for a latent matrix header")
    magic, rows, width, _ = _HEADER.unpack_from(data)
    if magic != _LATENT_MAGIC:
        raise ConfigError(f"{path}: bad magic {magic!r}")
    body = data[_HEADER.size :]
    expected = rows * width * 4
    if len(body) != expected:
        raise ConfigError(f"{path}: expected {expected} payload bytes, got {len(body)}")
    if width != LATENT_DIM:
        raise ConfigError(f"{path}: rows are {width} wide, expected {LATENT_DIM}")
    latents = np.frombuffer(body, dtype="<f4").reshape(rows, width).astype(np.float64)
    n_bad = int((~np.isfinite(latents)).any(axis=1).sum())
    if n_bad:
        raise ConfigError(f"{path}: {n_bad} of {rows} rows are not finite")
    return latents
