"""Miniature sketch-extrude CAD language and its feasibility kernel.

A model is a closed profile of at most five line/arc edges extruded to a
depth. Profile vertices are exactly the edge targets; the loop closes
implicitly from the last target back to the first. Feasibility is decided
by a small rule-based kernel (bounds, degeneracy, self-intersection, area,
depth) rather than a full B-rep engine, and valid solids can be sampled
into uniform volume point clouds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .config import ConfigError

MAX_EDGES = 5
ARC_SEGMENTS = 16  # segments per arc in every discretized profile
MIN_VERTEX_SEPARATION = 1e-3
MIN_PROFILE_AREA = 1e-3
COORD_BOUND = 1.0
MAX_BULGE = 1.0
MAX_DEPTH = 1.0

# Below this magnitude the arc is indistinguishable from its chord and the
# center construction would overflow.
_BULGE_EPS = 1e-12

# Above this magnitude a target or bulge is far outside COORD_BOUND and
# MAX_BULGE, and the separation and polygon arithmetic, which reaches the
# fourth power of a coordinate, could overflow; those checks are skipped.
_ARITHMETIC_LIMIT = 1e50

_PROPOSAL_CHUNK = 8192
_STALL_PROPOSALS = 10_000_000
_STALL_RATE = 1e-4


class SamplingStall(Exception):
    """Rejection sampling acceptance rate collapsed below the safety floor (exit 3)."""


class EdgeKind(Enum):
    LINE = "line"
    ARC = "arc"


class InvalidReason(IntEnum):
    """Kernel failure codes, reported in ascending enum order."""

    TOO_FEW_VERTICES = 0
    DEGENERATE_ADJACENT_VERTICES = 1
    OUT_OF_BOUNDS = 2
    BULGE_OUT_OF_RANGE = 3
    SELF_INTERSECTION = 4
    NEAR_ZERO_AREA = 5
    DEPTH_NON_POSITIVE = 6
    DEPTH_TOO_LARGE = 7
    NON_FINITE = 8


@dataclass(frozen=True)
class SketchEdge:
    """One profile edge ending at ``target``; ``bulge`` is tan(theta/4) for arcs."""

    kind: EdgeKind
    target: tuple[float, float]
    bulge: float = 0.0

    def __post_init__(self):
        if self.kind is EdgeKind.LINE and self.bulge != 0.0:
            raise ValueError("line edges carry bulge exactly 0")


@dataclass(frozen=True)
class CommandSequence:
    """Ordered sketch edges plus an extrusion depth; structurally total."""

    edges: tuple[SketchEdge, ...]
    depth: float

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        if len(self.edges) > MAX_EDGES:
            raise ValueError(f"at most {MAX_EDGES} edges allowed, got {len(self.edges)}")


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    reasons: tuple[InvalidReason, ...]

    @classmethod
    def from_reasons(cls, reasons) -> "ValidityReport":
        ordered = tuple(sorted(set(reasons)))
        return cls(valid=not ordered, reasons=ordered)


def _require_number(obj: dict, key: str, context: str) -> float:
    if key not in obj:
        raise ConfigError(f"{context}: missing field {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context}.{key}: expected a number, got {type(value).__name__}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{context}.{key}: non-finite number not allowed")
    return value


def sequence_from_record(obj) -> CommandSequence:
    """Validate a decoded record object into a CommandSequence.

    The record schema is ``{"edges": [{"kind", "x", "y", "bulge"}...], "depth"}``;
    unknown fields, wrong types, and non-finite numbers are rejected with the
    offending field named in the error.
    """
    if not isinstance(obj, dict):
        raise ConfigError("record must be a JSON object")
    unknown = set(obj) - {"edges", "depth"}
    if unknown:
        raise ConfigError(f"unknown record fields: {sorted(unknown)}")
    if "edges" not in obj or "depth" not in obj:
        raise ConfigError("record must carry 'edges' and 'depth'")
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise ConfigError("edges: expected a list")
    if len(raw_edges) > MAX_EDGES:
        raise ConfigError(f"at most {MAX_EDGES} edges allowed, got {len(raw_edges)}")
    edges = []
    for i, raw in enumerate(raw_edges):
        context = f"edges[{i}]"
        if not isinstance(raw, dict):
            raise ConfigError(f"{context}: expected an object")
        unknown = set(raw) - {"kind", "x", "y", "bulge"}
        if unknown:
            raise ConfigError(f"{context}: unknown fields {sorted(unknown)}")
        kind_raw = raw.get("kind")
        if kind_raw not in (EdgeKind.LINE.value, EdgeKind.ARC.value):
            raise ConfigError(f"{context}.kind: expected 'line' or 'arc', got {kind_raw!r}")
        kind = EdgeKind(kind_raw)
        x = _require_number(raw, "x", context)
        y = _require_number(raw, "y", context)
        bulge = _require_number(raw, "bulge", context) if "bulge" in raw else 0.0
        if kind is EdgeKind.LINE and bulge != 0.0:
            raise ConfigError(f"{context}.bulge: must be 0 for line edges")
        edges.append(SketchEdge(kind, (x, y), bulge))
    depth = _require_number(obj, "depth", "record")
    return CommandSequence(tuple(edges), depth)


def record_from_sequence(seq: CommandSequence) -> dict:
    return {
        "edges": [
            {"kind": e.kind.value, "x": e.target[0], "y": e.target[1], "bulge": e.bulge}
            for e in seq.edges
        ],
        "depth": seq.depth,
    }


def _arc_points(start, end, bulge: float) -> list[tuple[float, float]]:
    """Points along a bulge arc from start to end: ARC_SEGMENTS-1 intermediates plus end.

    Bulge is tan(theta/4) of the included angle, positive for a counterclockwise
    sweep; the sagitta is bulge * chord / 2.
    """
    x0, y0 = float(start[0]), float(start[1])
    x1, y1 = float(end[0]), float(end[1])
    chord = math.hypot(x1 - x0, y1 - y0)
    if abs(bulge) < _BULGE_EPS:
        return [(x1, y1)]  # degenerates to the chord
    if chord == 0.0:
        return [(x1, y1)] * ARC_SEGMENTS  # degenerate chord: every arc point coincides
    theta = 4.0 * math.atan(bulge)
    signed_radius = chord * (1.0 + bulge * bulge) / (4.0 * bulge)
    offset_angle = math.atan2(y1 - y0, x1 - x0) + math.pi / 2.0 - 2.0 * math.atan(bulge)
    cx = x0 + signed_radius * math.cos(offset_angle)
    cy = y0 + signed_radius * math.sin(offset_angle)
    radius = abs(signed_radius)
    start_angle = math.atan2(y0 - cy, x0 - cx)
    pts = []
    for k in range(1, ARC_SEGMENTS):
        a = start_angle + theta * k / ARC_SEGMENTS
        pts.append((cx + radius * math.cos(a), cy + radius * math.sin(a)))
    pts.append((x1, y1))
    return pts


def discretize_profile(seq: CommandSequence) -> np.ndarray:
    """Realize the closed profile as an (n, 2) polygon vertex array.

    Line edges contribute their target; arc edges contribute ARC_SEGMENTS-1
    intermediate points plus the target. The closing edge (last vertex back to
    the first) is implicit, as is each edge's start at the previous target.
    """
    targets = [e.target for e in seq.edges]
    pts: list[tuple[float, float]] = []
    for i, edge in enumerate(seq.edges):
        if edge.kind is EdgeKind.ARC:
            pts.extend(_arc_points(targets[i - 1], edge.target, edge.bulge))
        else:
            pts.append(edge.target)
    return np.array(pts, dtype=float).reshape(-1, 2)


def reverse_sequence(seq: CommandSequence) -> CommandSequence:
    """Traverse the same closed profile in the opposite direction.

    Edge j of the result retraces original edge k-j+1 backwards, so its kind
    stays, its bulge flips sign, and it ends at that edge's start vertex.
    """
    k = len(seq.edges)
    if k == 0:
        return seq
    targets = [e.target for e in seq.edges]
    reversed_edges = []
    for j in range(k):
        source = seq.edges[k - 1 - j]  # retraces this edge backwards
        target = targets[(k - 2 - j) % k]
        bulge = -source.bulge if source.kind is EdgeKind.ARC else 0.0
        reversed_edges.append(SketchEdge(source.kind, target, bulge))
    return CommandSequence(tuple(reversed_edges), seq.depth)


def canonicalize_sequence(seq: CommandSequence) -> CommandSequence:
    """Canonical representative of a profile's cyclic/orientation class.

    Same geometry, one fixed encoding: counterclockwise winding and the
    lexicographically smallest vertex first. Collapses the many equivalent
    edge orderings of one shape onto a single latent, which is what makes
    the condition -> latent relation learnable.
    """
    k = len(seq.edges)
    if k < 3:
        return seq
    poly = discretize_profile(seq)
    if polygon_area(poly) < 0.0:
        seq = reverse_sequence(seq)
    targets = [e.target for e in seq.edges]
    start = min(range(k), key=lambda i: targets[i])
    rotated = seq.edges[start + 1 :] + seq.edges[: start + 1]
    return CommandSequence(tuple(rotated), seq.depth)


def polygon_area(polygon) -> float:
    """Signed shoelace area; positive for counterclockwise winding."""
    poly = np.asarray(polygon, dtype=float)
    if len(poly) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(
        np.dot(x, np.concatenate((y[1:], y[:1]))) - np.dot(y, np.concatenate((x[1:], x[:1])))
    )


def _orientations(a, b, c):
    return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])


def _on_segment(a, b, p):
    # assumes p is already known collinear with segment (a, b)
    return (
        (np.minimum(a[:, 0], b[:, 0]) <= p[:, 0])
        & (p[:, 0] <= np.maximum(a[:, 0], b[:, 0]))
        & (np.minimum(a[:, 1], b[:, 1]) <= p[:, 1])
        & (p[:, 1] <= np.maximum(a[:, 1], b[:, 1]))
    )


def self_intersects(polygon) -> bool:
    """True iff any two non-adjacent closed edges intersect.

    Uses exact orientation-sign tests; collinear overlap counts as an
    intersection, edges sharing one endpoint (adjacent, including the
    wraparound pair) never do.
    """
    poly = np.asarray(polygon, dtype=float)
    n = len(poly)
    if n < 3:
        raise ValueError("polygon needs at least 3 vertices")
    starts = poly
    ends = np.concatenate((poly[1:], poly[:1]))
    i_idx, j_idx = np.triu_indices(n, k=2)
    keep = ~((i_idx == 0) & (j_idx == n - 1))  # wraparound adjacency
    i_idx, j_idx = i_idx[keep], j_idx[keep]
    if i_idx.size == 0:
        return False
    a, b = starts[i_idx], ends[i_idx]
    c, d = starts[j_idx], ends[j_idx]
    d1 = _orientations(a, b, c)
    d2 = _orientations(a, b, d)
    d3 = _orientations(c, d, a)
    d4 = _orientations(c, d, b)
    proper = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & (
        ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
    )
    if bool(proper.any()):
        return True
    touching = (
        ((d1 == 0) & _on_segment(a, b, c))
        | ((d2 == 0) & _on_segment(a, b, d))
        | ((d3 == 0) & _on_segment(c, d, a))
        | ((d4 == 0) & _on_segment(c, d, b))
    )
    return bool(touching.any())


def kernel_check(seq: CommandSequence) -> ValidityReport:
    """Decide feasibility of a sequence; infeasibility is a value, not an error.

    Checks, all reported rather than first-failure: edge count >= 3, vertex
    coordinates within [-1, 1], arc |bulge| <= 1, adjacent vertices (including
    wraparound) separated by >= 1e-3, discretized profile free of
    self-intersection, |shoelace area| >= 1e-3, and 0 < depth <= 1. The two
    polygon checks need >= 3 pairwise-distinct vertices and are skipped when
    an earlier count/degeneracy failure makes them meaningless. A non-finite
    target, bulge or depth is reported as NON_FINITE, and the separation and
    polygon checks, whose arithmetic it would poison, are skipped; so are they
    for a target or bulge above 1e50 in magnitude, which is already
    OUT_OF_BOUNDS or BULGE_OUT_OF_RANGE.
    """
    reasons: set[InvalidReason] = set()
    n = len(seq.edges)
    if n < 3:
        reasons.add(InvalidReason.TOO_FEW_VERTICES)
    values = [v for e in seq.edges for v in (*e.target, e.bulge)]
    finite = math.isfinite(seq.depth) and all(math.isfinite(v) for v in values)
    if not finite:
        reasons.add(InvalidReason.NON_FINITE)
    measurable = finite and all(abs(v) <= _ARITHMETIC_LIMIT for v in values)
    for edge in seq.edges:
        x, y = edge.target
        if not (abs(x) <= COORD_BOUND and abs(y) <= COORD_BOUND):
            reasons.add(InvalidReason.OUT_OF_BOUNDS)
        if edge.kind is EdgeKind.ARC and not abs(edge.bulge) <= MAX_BULGE:
            reasons.add(InvalidReason.BULGE_OUT_OF_RANGE)
    if n >= 2 and measurable:
        targets = np.array([e.target for e in seq.edges], dtype=float)
        gaps = np.hypot(*(targets - np.concatenate((targets[1:], targets[:1]))).T)
        if not bool((gaps >= MIN_VERTEX_SEPARATION).all()):
            reasons.add(InvalidReason.DEGENERATE_ADJACENT_VERTICES)
    if n >= 3 and measurable and InvalidReason.DEGENERATE_ADJACENT_VERTICES not in reasons:
        poly = discretize_profile(seq)
        if self_intersects(poly):
            reasons.add(InvalidReason.SELF_INTERSECTION)
        if not abs(polygon_area(poly)) >= MIN_PROFILE_AREA:
            reasons.add(InvalidReason.NEAR_ZERO_AREA)
    if not seq.depth > 0:
        reasons.add(InvalidReason.DEPTH_NON_POSITIVE)
    elif not seq.depth <= MAX_DEPTH:
        reasons.add(InvalidReason.DEPTH_TOO_LARGE)
    return ValidityReport.from_reasons(reasons)


def points_in_polygon(points, polygon) -> np.ndarray:
    """Vectorized even-odd (ray crossing) point-in-polygon test."""
    pts = np.asarray(points, dtype=float)
    poly = np.asarray(polygon, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    x0, y0 = poly[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        for x1, y1 in poly:
            crosses = (y1 > y) != (y0 > y)
            cut = (x0 - x1) * (y - y1) / (y0 - y1) + x1
            inside ^= crosses & (x < cut)
            x0, y0 = x1, y1
    return inside


def _require_valid(seq: CommandSequence) -> None:
    report = kernel_check(seq)
    if not report.valid:
        names = ",".join(r.name for r in report.reasons)
        raise ValueError(f"sequence fails kernel checks: {names}")


def sample_point_cloud(seq: CommandSequence, n: int, seed) -> np.ndarray:
    """Sample (n, 3) points uniformly from the solid volume; deterministic per seed.

    (x, y) proposals are uniform over the profile bounding box and accepted by
    the even-odd test on the discretized profile; z is uniform in [0, depth].
    Proposals are drawn in whole chunks, so z's draws do not move, but each
    chunk is tested a slice at a time and testing stops at the n-th hit.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    _require_valid(seq)
    poly = discretize_profile(seq)
    rng = np.random.default_rng(seed)
    lo = poly.min(axis=0)
    hi = poly.max(axis=0)
    chunks = []
    accepted = 0
    proposed = 0
    while accepted < n:
        proposals = rng.uniform(lo, hi, size=(_PROPOSAL_CHUNK, 2))
        proposed += _PROPOSAL_CHUNK
        start = 0
        while start < _PROPOSAL_CHUNK and accepted < n:
            # once the stall check below is live it needs the chunk's full hit count
            if proposed >= _STALL_PROPOSALS:
                stop = _PROPOSAL_CHUNK
            else:
                stop = start + max(2 * (n - accepted), 256)
            part = proposals[start:stop]
            hits = part[points_in_polygon(part, poly)]
            chunks.append(hits)
            accepted += len(hits)
            start = stop
        if proposed >= _STALL_PROPOSALS and accepted / proposed < _STALL_RATE:
            raise SamplingStall(
                f"acceptance rate {accepted / proposed:.2e} after {proposed} proposals"
            )
    xy = np.concatenate(chunks)[:n]
    z = rng.uniform(0.0, seq.depth, n)
    return np.column_stack([xy, z])
