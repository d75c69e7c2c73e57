"""Miniature sketch-extrude CAD language and its feasibility kernel.

A model is one latent row: a closed profile of at most five line/arc edges
extruded to a depth. Profile vertices are exactly the edge targets; the loop
closes implicitly from the last target back to the first. Feasibility is
decided by a small rule-based kernel (bounds, degeneracy, self-intersection,
area, depth) rather than a full B-rep engine, and valid solids can be sampled
into uniform volume point clouds.

Latent rows (the layout is defined here) decode by one rule, in ``_decode``.
The kernel is one array function, ``check_latents``, which decodes a block of
rows and checks them all at once. It returns one uint16 reason mask per row:
bit i is set iff the row fails with ``InvalidReason(i)``, so a mask of 0 is a
valid row. ``latent_solid`` gives the profile polygon, edge count and depth of
one valid row, which point clouds and condition descriptors read.
``canonical_row`` picks one row per profile class for the ground truth, and
``row_from_record`` and ``record_from_row`` convert between a row and its
``conditions.jsonl`` record.
"""

from __future__ import annotations

import functools
import itertools
import math
from enum import IntEnum

import numpy as np

from .config import ConfigError

MAX_EDGES = 5
ARC_SEGMENTS = 16  # segments per arc in every discretized profile
MIN_VERTEX_SEPARATION = 1e-3
MIN_PROFILE_AREA = 1e-3
COORD_BOUND = 1.0
MAX_BULGE = 1.0
MAX_DEPTH = 1.0

# Latent layout: MAX_EDGES slots of (activity/kind channel, x, y, bulge), then
# the extrusion depth. _decode reads a channel against the two thresholds.
# Ground-truth rows hold each channel at the center of its decision cell, the
# CANONICAL_ values below, so they have maximal margin; an inactive slot's x, y
# and bulge are 0.
SLOT_WIDTH = 4
LATENT_DIM = MAX_EDGES * SLOT_WIDTH + 1  # 21
ACTIVITY_THRESHOLD = 0.0
KIND_THRESHOLD = 0.5
CANONICAL_LINE = 0.25
CANONICAL_ARC = 0.75
CANONICAL_INACTIVE = -0.5

# Below this magnitude the arc is indistinguishable from its chord and the
# center construction would overflow.
_BULGE_EPS = 1e-12

# Above this magnitude a target or bulge is far outside COORD_BOUND and
# MAX_BULGE, and the separation and polygon arithmetic, which reaches the
# fourth power of a coordinate, could overflow; those checks are skipped.
_ARITHMETIC_LIMIT = 1e50

# Edge pairs in one orientation pass of check_latents: bounds the pass's
# arrays, about 450 bytes a pair, to some 250 kB however many rows and
# vertices a block holds.
_PAIR_SLICE = 512

_PROPOSAL_CHUNK = 8192
# Edge-by-point entries in one block of points_in_polygon: 2**17 float64
# crossings make each of its temporaries at most 1 MiB.
_POLYGON_BLOCK = 1 << 17
_STALL_PROPOSALS = 10_000_000
_STALL_RATE = 1e-4


class SamplingStall(Exception):
    """Rejection sampling acceptance rate collapsed below the safety floor (exit 3)."""


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


def reason_names(mask: int) -> str:
    """The names of a reason mask's InvalidReason bits, in enum order, joined by ``|``."""
    return "|".join(r.name for r in InvalidReason if mask >> r & 1)


def _arc_points(start, end, bulge: float) -> list[float]:
    """Points along a bulge arc from start to end, ARC_SEGMENTS-1 intermediates
    plus end, flattened to x0, y0, x1, y1, ...

    Bulge is tan(theta/4) of the included angle, positive for a counterclockwise
    sweep; the sagitta is bulge * chord / 2.
    """
    x0, y0 = float(start[0]), float(start[1])
    x1, y1 = float(end[0]), float(end[1])
    chord = math.hypot(x1 - x0, y1 - y0)
    if abs(bulge) < _BULGE_EPS:
        return [x1, y1]  # degenerates to the chord
    if chord == 0.0:
        return [x1, y1] * ARC_SEGMENTS  # degenerate chord: every arc point coincides
    theta = 4.0 * math.atan(bulge)
    signed_radius = chord * (1.0 + bulge * bulge) / (4.0 * bulge)
    offset_angle = math.atan2(y1 - y0, x1 - x0) + math.pi / 2.0 - 2.0 * math.atan(bulge)
    cx = x0 + signed_radius * math.cos(offset_angle)
    cy = y0 + signed_radius * math.sin(offset_angle)
    radius = abs(signed_radius)
    start_angle = math.atan2(y0 - cy, x0 - cx)
    cos, sin = math.cos, math.sin
    pts = []
    for k in range(1, ARC_SEGMENTS):
        a = start_angle + theta * k / ARC_SEGMENTS
        pts.append(cx + radius * cos(a))
        pts.append(cy + radius * sin(a))
    pts += (x1, y1)
    return pts


def _profile_vertices(edges) -> np.ndarray:
    """The (n, 2) polygon vertices of a closed profile, from its edges as
    (x, y, bulge) with bulge 0 for a line: a line adds its target, an arc its
    points. Each edge starts at the previous edge's target."""
    coords = []
    for i, (x, y, bulge) in enumerate(edges):
        if bulge:
            coords += _arc_points(edges[i - 1], (x, y), bulge)
        else:
            coords += (x, y)
    return np.array(coords, dtype=float).reshape(-1, 2)


def polygon_area(polygon) -> float:
    """Signed shoelace area; positive for counterclockwise winding."""
    poly = np.asarray(polygon, dtype=float)
    if len(poly) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(
        np.dot(x, np.concatenate((y[1:], y[:1]))) - np.dot(y, np.concatenate((x[1:], x[:1])))
    )


# one entry per vertex count a discretized profile can have
@functools.lru_cache(maxsize=MAX_EDGES * ARC_SEGMENTS)
def _orientation_triples(n: int) -> np.ndarray:
    """Read-only (3, 4, pairs) vertex indices, in the smallest unsigned type,
    of the four orientation tests of every pair of non-adjacent edges a-b and
    c-d of a closed n-gon, a < c, in ``np.triu_indices`` order of (a, c): test
    k is the side of vertex [2, k] from the segment [0, k]-[1, k], for
    (a, b, c), (a, b, d), (c, d, a) and (c, d, b)."""
    a, c = np.triu_indices(n, k=2)
    keep = ~((a == 0) & (c == n - 1))  # wraparound adjacency
    a, c = a[keep], c[keep]
    b, d = a + 1, (c + 1) % n
    triples = np.array([[a, a, c, c], [b, b, d, d], [c, d, a, b]], dtype=np.min_scalar_type(n))
    triples.flags.writeable = False
    return triples


def _self_intersecting(vertices: np.ndarray, bounds: list[int]) -> np.ndarray:
    """Per polygon, whether any two of its non-adjacent closed edges intersect;
    polygon p is vertices[bounds[p]:bounds[p + 1]], of 3 or more vertices.

    One pass of exact orientation-sign tests covers the edge pairs of all the
    polygons, at most _PAIR_SLICE pairs at a time; the touching test runs only
    where an orientation is exactly 0. Collinear overlap counts as an
    intersection; edges sharing one endpoint (adjacent, including the
    wraparound pair) never do.
    """
    pieces = []  # (polygon, its first vertex, _PAIR_SLICE of its tests at most)
    for p, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        tests = _orientation_triples(hi - lo)
        for first in range(0, tests.shape[2], _PAIR_SLICE):
            pieces.append((p, lo, tests[..., first : first + _PAIR_SLICE]))
    out = np.zeros(len(bounds) - 1, dtype=bool)
    while pieces:
        size, held = 1, pieces[0][2].shape[2]
        while size < len(pieces) and held + pieces[size][2].shape[2] <= _PAIR_SLICE:
            held += pieces[size][2].shape[2]
            size += 1
        batch, pieces = pieces[:size], pieces[size:]
        index = np.concatenate([np.add(t, lo, dtype=np.intp) for _, lo, t in batch], axis=2)
        owner = np.repeat([p for p, _, _ in batch], [t.shape[2] for _, _, t in batch])
        points = np.take(vertices, index, axis=0)
        # per test, the segment's direction and the vertex's offset from its start
        arm = points[1:] - points[0]
        side = np.sign(arm[0, ..., 0] * arm[1, ..., 1] - arm[0, ..., 1] * arm[1, ..., 0])
        # a proper crossing: each edge's ends lie strictly either side of the other
        hit = (side[::2] * side[1::2] < 0).all(axis=0)
        if np.count_nonzero(side) < side.size:  # a vertex on the line of the other edge
            test, pair = np.nonzero(side == 0)
            a, b, c = points[:, test, pair]
            hit[pair[((np.minimum(a, b) <= c) & (c <= np.maximum(a, b))).all(axis=1)]] = True
        out[owner[hit]] = True
    return out


# the bounds of a profile's |x|, |y| and |bulge|
_SIZE_BOUNDS = np.array([[COORD_BOUND], [COORD_BOUND], [MAX_BULGE]])


def _decode(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The layout's decode rule on an (R, LATENT_DIM) block: each row's edge
    count, (R,), each slot's x, y and bulge as its edge holds them,
    (3, R, MAX_EDGES), and whether each slot is an arc, (R, MAX_EDGES). The
    first slot whose channel is not above ACTIVITY_THRESHOLD (NaN included) ends
    a row's edges, and an active slot is an arc above KIND_THRESHOLD and a line
    otherwise. Slots past the count hold 0, and so does a line's bulge."""
    fields = z[:, :-1].reshape(-1, MAX_EDGES, SLOT_WIDTH).transpose(2, 0, 1)
    with np.errstate(invalid="ignore"):
        active = np.logical_and.accumulate(fields[0] > ACTIVITY_THRESHOLD, axis=1)
        arc = active & (fields[0] > KIND_THRESHOLD)
    edges = np.where(np.array([active, active, arc]), fields[1:], 0.0)
    return np.add.reduce(active, axis=1), edges, arc


def _polygons(count: np.ndarray, edges: np.ndarray, rows) -> list[np.ndarray]:
    """The profile polygon of each of ``rows``, from ``_decode``'s count and edges."""
    return [
        _profile_vertices(row[:n])
        for row, n in zip(edges[:, rows].transpose(1, 2, 0).tolist(), count[rows].tolist())
    ]


def check_latents(latents) -> np.ndarray:
    """Kernel-check every row of an (R, LATENT_DIM) latent block at once.

    Returns one uint16 reason mask per row: bit i is set iff the row fails with
    InvalidReason(i), so 0 means valid; infeasibility is a value, not an error.
    Rows decode by ``_decode``. Every rule is checked, not only the first to
    fail: edge count >= 3, targets within [-1, 1], arc |bulge| <= 1, adjacent
    targets (including the wraparound pair) separated by >= 1e-3, a profile
    polygon free of self-intersection, |shoelace area| >= 1e-3, and
    0 < depth <= 1. The two polygon rules need >= 3 pairwise-distinct targets
    and are skipped when the count or separation rule fails. A non-finite
    target, bulge or depth is NON_FINITE, and the separation and polygon rules,
    whose arithmetic it would poison, are skipped; so are they for a target or
    bulge above 1e50 in magnitude, which is already OUT_OF_BOUNDS or
    BULGE_OUT_OF_RANGE. The polygon rules run on all the block's polygons in one
    orientation pass; arc points come from ``math`` and each area from
    ``polygon_area``, so a row's mask does not depend on the rows beside it.
    """
    z = np.asarray(latents, dtype=float)
    if z.ndim != 2 or z.shape[1] != LATENT_DIM:
        raise ValueError(f"latents must be (rows, {LATENT_DIM}), got {z.shape}")
    count, edges, _ = _decode(z)
    depth = z[:, -1]
    flags = np.zeros((len(z), 16), dtype=bool)  # per row, bit i for InvalidReason(i)
    # the gaps of unusable rows may overflow
    with np.errstate(invalid="ignore", over="ignore"):
        size = np.maximum.reduce(np.abs(edges), axis=2)  # per row, the largest |x|, |y| and |bulge|
        largest = np.maximum.reduce(size)  # NaN if any is
        finite = np.isfinite(depth)
        measurable = finite & (largest <= _ARITHMETIC_LIMIT)
        within = size <= _SIZE_BOUNDS
        flags[:, InvalidReason.TOO_FEW_VERTICES] = count < 3
        flags[:, InvalidReason.OUT_OF_BOUNDS] = ~(within[0] & within[1])
        flags[:, InvalidReason.BULGE_OUT_OF_RANGE] = ~within[2]
        flags[:, InvalidReason.DEPTH_NON_POSITIVE] = ~(depth > 0)
        flags[:, InvalidReason.DEPTH_TOO_LARGE] = depth > MAX_DEPTH
        flags[:, InvalidReason.NON_FINITE] = ~(finite & (largest < np.inf))
        # each slot's gap from its target to the next one round the profile
        slot = np.arange(MAX_EDGES)
        successor = (slot + 1) % np.maximum(count, 1)[:, None]
        step = edges[:2] - np.take_along_axis(edges[:2], successor[None], axis=2)
        close = np.hypot(step[0], step[1]) < MIN_VERTEX_SEPARATION
    # a profile of n >= 2 targets has a gap after each of its first n slots
    gapped = (slot < count[:, None]) & (count[:, None] >= 2)
    degenerate = measurable & (close & gapped).any(axis=1)
    flags[:, InvalidReason.DEGENERATE_ADJACENT_VERTICES] = degenerate
    rows = (measurable & (count >= 3) & ~degenerate).nonzero()[0]
    if len(rows):
        polygons = _polygons(count, edges, rows)
        bounds = list(itertools.accumulate(map(len, polygons), initial=0))
        flags[rows, InvalidReason.SELF_INTERSECTION] = _self_intersecting(
            np.concatenate(polygons), bounds
        )
        flags[rows, InvalidReason.NEAR_ZERO_AREA] = [
            not abs(polygon_area(polygon)) >= MIN_PROFILE_AREA for polygon in polygons
        ]
    return np.packbits(flags, axis=1, bitorder="little").view("<u2")[:, 0]


def latent_solid(latent, mask=None) -> tuple[np.ndarray, int, float]:
    """The solid one kernel-valid latent row decodes to: its (n, 2) profile
    polygon, its edge count and its extrusion depth. A line adds its target to
    the polygon, an arc ARC_SEGMENTS-1 intermediate points and then its target;
    each edge starts at the previous target, and the closing edge is implicit.
    A row that fails ``check_latents`` is a ValueError naming its reasons.
    ``mask`` is the row's ``check_latents`` mask when the caller holds it, so
    that the row is not checked again."""
    z = np.asarray(latent, dtype=float)[None]
    if mask is None:
        (mask,) = check_latents(z)
    if mask:
        raise ValueError(f"latent row fails kernel checks: {reason_names(int(mask))}")
    count, edges, _ = _decode(z)
    (polygon,) = _polygons(count, edges, [0])
    return polygon, int(count[0]), float(z[0, -1])


def canonical_row(latent) -> np.ndarray:
    """The canonical row of a latent row's profile class, for a row of three or
    more finite edges: the same solid, counterclockwise, starting from its
    lexicographically smallest vertex. Collapsing the many equivalent edge
    orderings of one shape onto a single latent is what makes the condition ->
    latent relation learnable.

    A clockwise profile (negative ``polygon_area``) is reversed by permuting
    slots: slot j of k retraces slot k-1-j backwards, so it keeps that slot's
    channel and bulge, an arc's bulge with its sign flipped, and ends at that
    slot's start vertex, the target of slot (k-2-j) mod k. Then the slots rotate
    so that the last one ends at the smallest target, the first vertex.
    Inactive slots and the depth stay as they are.
    """
    z = np.asarray(latent, dtype=float)
    count, edges, arc = _decode(z[None])
    k = int(count[0])
    slots = z[: SLOT_WIDTH * k].reshape(k, SLOT_WIDTH).tolist()
    (polygon,) = _polygons(count, edges, [0])
    if polygon_area(polygon) < 0.0:
        is_arc = arc[0].tolist()
        slots = [
            [channel, *slots[(k - 2 - j) % k][1:3], -bulge if is_arc[k - 1 - j] else bulge]
            for j, (channel, _, _, bulge) in enumerate(reversed(slots))
        ]
    start = min(range(k), key=lambda i: (slots[i][1], slots[i][2]))
    slots = slots[start + 1 :] + slots[: start + 1]
    return np.array([v for slot in slots for v in slot] + z[SLOT_WIDTH * k :].tolist())


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


def row_from_record(obj) -> np.ndarray:
    """The latent row of a ``conditions.jsonl`` sequence record, one slot per
    edge at its kind's canonical channel, then canonical inactive slots and the
    depth.

    The record schema is ``{"edges": [{"kind", "x", "y", "bulge"}...], "depth"}``,
    a missing bulge 0; unknown fields, wrong types, non-finite numbers, more than
    MAX_EDGES edges and a line's non-zero bulge are rejected with the offending
    field named in the ConfigError. The row is not kernel-checked.
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
    row = [CANONICAL_INACTIVE, 0.0, 0.0, 0.0] * MAX_EDGES
    for i, raw in enumerate(raw_edges):
        context = f"edges[{i}]"
        if not isinstance(raw, dict):
            raise ConfigError(f"{context}: expected an object")
        unknown = set(raw) - {"kind", "x", "y", "bulge"}
        if unknown:
            raise ConfigError(f"{context}: unknown fields {sorted(unknown)}")
        kind = raw.get("kind")
        if kind not in ("line", "arc"):
            raise ConfigError(f"{context}.kind: expected 'line' or 'arc', got {kind!r}")
        x = _require_number(raw, "x", context)
        y = _require_number(raw, "y", context)
        bulge = _require_number(raw, "bulge", context) if "bulge" in raw else 0.0
        if kind == "line" and bulge != 0.0:
            raise ConfigError(f"{context}.bulge: must be 0 for line edges")
        channel = CANONICAL_ARC if kind == "arc" else CANONICAL_LINE
        row[SLOT_WIDTH * i : SLOT_WIDTH * (i + 1)] = (channel, x, y, bulge)
    row.append(_require_number(obj, "depth", "record"))
    return np.array(row)


def record_from_row(latent) -> dict:
    """The ``conditions.jsonl`` sequence record of a latent row: its decoded
    edges, each ``{"kind", "x", "y", "bulge"}`` with a line's bulge 0, and its
    depth."""
    z = np.asarray(latent, dtype=float)
    count, edges, arc = _decode(z[None])
    k = int(count[0])
    return {
        "edges": [
            {"kind": "arc" if is_arc else "line", "x": x, "y": y, "bulge": bulge}
            for (x, y, bulge), is_arc in zip(edges[:, 0, :k].T.tolist(), arc[0, :k].tolist())
        ],
        "depth": float(z[-1]),
    }


def points_in_polygon(points, polygon) -> np.ndarray:
    """Vectorized even-odd (ray crossing) point-in-polygon test.

    Each (edge, point) pair is tested at once over a block of edges: the edge
    from (x0, y0) to (x1, y1) counts when it spans the point's y and crosses
    y at some x right of the point. A point is inside when an odd number of
    edges count.
    """
    pts = np.asarray(points, dtype=float)
    poly = np.asarray(polygon, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    # (edges, 1) columns: edge k runs from vertex k - 1 to vertex k
    x0, y0 = np.roll(poly, 1, axis=0).T[:, :, None]
    x1, y1 = poly.T[:, :, None]
    inside = np.zeros(len(pts), dtype=bool)
    block = max(1, _POLYGON_BLOCK // max(len(pts), 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        for first in range(0, len(poly), block):
            edges = slice(first, first + block)
            cut = y - y1[edges]
            cut *= x0[edges] - x1[edges]
            cut /= y0[edges] - y1[edges]
            cut += x1[edges]
            counts = np.less(x, cut)
            counts &= (y1[edges] > y) != (y0[edges] > y)
            inside ^= np.logical_xor.reduce(counts, axis=0)
    return inside


def sample_point_cloud(latent, n: int, seed, mask=None) -> np.ndarray:
    """Sample (n, 3) points uniformly from the solid volume of a kernel-valid
    latent row (``latent_solid``, which reads ``mask``); deterministic per seed.

    (x, y) proposals are uniform over the profile bounding box and accepted by
    the even-odd test on the profile polygon; z is uniform in [0, depth].
    Proposals are drawn in whole chunks, so z's draws do not move, but each
    chunk is tested a slice at a time and testing stops at the n-th hit.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    poly, _, depth = latent_solid(latent, mask)
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
    z = rng.uniform(0.0, depth, n)
    return np.column_stack([xy, z])
