"""Deterministic codec between command sequences and fixed-width latent vectors.

The latent layout is five slots of (activity/kind channel, x, y, bulge)
followed by the extrusion depth, 21 values total. Decoding is total and
discontinuous at the activity threshold 0 and the kind threshold 0.5, which
is what carves latent space into feasible and infeasible regions. Encoding
places canonical channel values at the centers of their decision cells so
ground-truth latents have maximal margin.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .config import ConfigError
from .geometry import (
    MAX_EDGES,
    CommandSequence,
    EdgeKind,
    SketchEdge,
    discretize_profile,
    kernel_check,
    polygon_area,
)

SLOT_WIDTH = 4
LATENT_DIM = MAX_EDGES * SLOT_WIDTH + 1  # 21
CONDITION_DIM = 8

ACTIVITY_THRESHOLD = 0.0
KIND_THRESHOLD = 0.5
CANONICAL_LINE = 0.25
CANONICAL_ARC = 0.75
CANONICAL_INACTIVE = -0.5

_LATENT_MAGIC = b"LAT1"
_HEADER = struct.Struct("<4sIII")  # magic, row count, row width, reserved


def decode(latent) -> CommandSequence:
    """Decode a 21-vector into a command sequence; never fails.

    Slots are scanned in order and the sequence ends at the first inactive
    slot (activity channel <= 0). Active slots decode as Arc when the channel
    exceeds 0.5, Line otherwise; targets and depth are taken verbatim.
    Feasibility is judged afterwards by the kernel, not here.
    """
    z = np.asarray(latent, dtype=float).reshape(-1)
    if z.shape != (LATENT_DIM,):
        raise ValueError(f"latent must have {LATENT_DIM} entries, got {z.shape}")
    edges = []
    for i in range(MAX_EDGES):
        t, x, y, b = z[SLOT_WIDTH * i : SLOT_WIDTH * (i + 1)]
        if not t > ACTIVITY_THRESHOLD:
            break
        if t > KIND_THRESHOLD:
            edges.append(SketchEdge(EdgeKind.ARC, (float(x), float(y)), float(b)))
        else:
            edges.append(SketchEdge(EdgeKind.LINE, (float(x), float(y)), 0.0))
    return CommandSequence(tuple(edges), float(z[-1]))


def encode(seq: CommandSequence) -> np.ndarray:
    """Canonical latent embedding of a sequence; decode(encode(seq)) == seq."""
    z = np.zeros(LATENT_DIM)
    for i in range(MAX_EDGES):
        base = SLOT_WIDTH * i
        if i < len(seq.edges):
            edge = seq.edges[i]
            z[base] = CANONICAL_ARC if edge.kind is EdgeKind.ARC else CANONICAL_LINE
            z[base + 1], z[base + 2] = edge.target
            z[base + 3] = edge.bulge
        else:
            z[base] = CANONICAL_INACTIVE
    z[-1] = seq.depth
    return z


def condition_descriptor(seq: CommandSequence) -> np.ndarray:
    """Shape descriptor of a kernel-valid sequence, the diffusion condition.

    Features: edge_count/5, |area|, perimeter, centroid x, centroid y,
    bbox width, bbox height, depth, all on the standard discretized profile.
    """
    report = kernel_check(seq)
    if not report.valid:
        names = ",".join(r.name for r in report.reasons)
        raise ValueError(f"descriptor needs a kernel-valid sequence: {names}")
    poly = discretize_profile(seq)
    area = polygon_area(poly)
    nxt = np.concatenate((poly[1:], poly[:1]))
    perimeter = float(np.hypot(*(nxt - poly).T).sum())
    cross = poly[:, 0] * nxt[:, 1] - nxt[:, 0] * poly[:, 1]
    cx = float(((poly[:, 0] + nxt[:, 0]) * cross).sum() / (6.0 * area))
    cy = float(((poly[:, 1] + nxt[:, 1]) * cross).sum() / (6.0 * area))
    width, height = (poly.max(axis=0) - poly.min(axis=0)).tolist()
    return np.array(
        [len(seq.edges) / MAX_EDGES, abs(area), perimeter, cx, cy, width, height, seq.depth]
    )


def write_latents(path, latents) -> None:
    """Write a latent matrix as little-endian float32 rows under a 16-byte header."""
    arr = np.ascontiguousarray(np.asarray(latents, dtype=np.float64), dtype="<f4")
    if arr.ndim != 2:
        raise ValueError("latent matrix must be 2-dimensional")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_LATENT_MAGIC, arr.shape[0], arr.shape[1], 0))
        fh.write(arr.tobytes())


def read_latents(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise ConfigError(f"{path}: too short for a latent matrix header")
    magic, rows, width, _ = _HEADER.unpack_from(data)
    if magic != _LATENT_MAGIC:
        raise ConfigError(f"{path}: bad magic {magic!r}")
    body = data[_HEADER.size :]
    expected = rows * width * 4
    if len(body) != expected:
        raise ConfigError(f"{path}: expected {expected} payload bytes, got {len(body)}")
    return np.frombuffer(body, dtype="<f4").reshape(rows, width).astype(np.float64)
