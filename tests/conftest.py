from __future__ import annotations

import os

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from cadrepair import geometry, pipeline
from cadrepair.codec import condition_descriptor
from cadrepair.geometry import (
    CANONICAL_ARC,
    CANONICAL_INACTIVE,
    CANONICAL_LINE,
    MAX_EDGES,
    SLOT_WIDTH,
    SamplingStall,
    check_latents,
    polygon_area,
)

# CI's tier-1 step sets HYPOTHESIS_PROFILE=ci, so that a property that leaves
# max_examples unpinned runs many more examples there than in a local run.
settings.register_profile("ci", max_examples=3000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def latent_row(slots, depth) -> np.ndarray:
    """A latent row from its slots, then inactive slots and the depth: a slot
    given as (x, y) is a line and (x, y, bulge) an arc, at the canonical
    channels, and (channel, x, y, bulge) is taken verbatim."""
    values = []
    for slot in slots:
        if len(slot) == 2:
            slot = (CANONICAL_LINE, *slot, 0.0)
        elif len(slot) == 3:
            slot = (CANONICAL_ARC, *slot)
        values += slot
    values += [CANONICAL_INACTIVE, 0.0, 0.0, 0.0] * (MAX_EDGES - len(slots))
    return np.array([*values, depth], dtype=float)


@st.composite
def latent_vectors(draw, values=st.floats(-3.0, 3.0, allow_nan=False)):
    return np.array(draw(st.lists(values, min_size=21, max_size=21)))


def random_simple_polygon(rng: np.random.Generator, n: int) -> np.ndarray:
    """Star-shaped polygon around the origin: simple by construction."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    radii = rng.uniform(0.3, 1.0, n)
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


# ---------------------------------------------------------------- the former sequence path
# The reference for the row path. A sequence is (edges, depth): a tuple of
# (kind, x, y, bulge) edges, kind "line" or "arc" and a line's bulge 0.0, and
# the extrusion depth. Sequences compare with ==.


@st.composite
def sketch_edges(draw, coord=finite_floats, bulge=finite_floats):
    kind = draw(st.sampled_from(["line", "arc"]))
    return (kind, draw(coord), draw(coord), draw(bulge) if kind == "arc" else 0.0)


@st.composite
def command_sequences(
    draw, coord=finite_floats, bulge=finite_floats, depth=finite_floats, min_edges=0
):
    edges = draw(st.lists(sketch_edges(coord, bulge), min_size=min_edges, max_size=MAX_EDGES))
    return tuple(edges), draw(depth)


def encode(seq) -> np.ndarray:
    """The former encoder: a sequence's latent row, each edge's slot at its
    kind's canonical channel, then canonical inactive slots and the depth."""
    edges, depth = seq
    z = [CANONICAL_INACTIVE, 0.0, 0.0, 0.0] * MAX_EDGES + [depth]
    for i, (kind, x, y, bulge) in enumerate(edges):
        channel = CANONICAL_ARC if kind == "arc" else CANONICAL_LINE
        z[SLOT_WIDTH * i : SLOT_WIDTH * (i + 1)] = (channel, x, y, bulge)
    return np.array(z, dtype=float)


def reverse_sequence(seq):
    """The same closed profile traversed the other way: edge j retraces edge
    k-j+1 backwards, so its kind stays, its bulge flips sign, and it ends at
    that edge's start vertex."""
    edges, depth = seq
    k = len(edges)
    reversed_edges = []
    for j in range(k):
        kind, _, _, bulge = edges[k - 1 - j]
        _, x, y, _ = edges[(k - 2 - j) % k]
        reversed_edges.append((kind, x, y, -bulge if kind == "arc" else 0.0))
    return tuple(reversed_edges), depth


def canonicalize_sequence(seq):
    """The former canonicaliser: counterclockwise winding and the
    lexicographically smallest vertex first."""
    edges, depth = seq
    k = len(edges)
    if k < 3:
        return seq
    poly = geometry._profile_vertices([(x, y, bulge) for _, x, y, bulge in edges])
    if polygon_area(poly) < 0.0:
        edges, depth = reverse_sequence(seq)
    start = min(range(k), key=lambda i: (edges[i][1], edges[i][2]))
    return edges[start + 1 :] + edges[: start + 1], depth


def random_sequence(rng: np.random.Generator):
    """The former ground-truth draw of one sequence."""
    count = int(rng.integers(pipeline._EDGE_COUNTS[0], pipeline._EDGE_COUNTS[1] + 1))
    edges = []
    for _ in range(count):
        is_arc = rng.random() < pipeline._ARC_PROBABILITY
        x, y = rng.uniform(-pipeline._TARGET_RANGE, pipeline._TARGET_RANGE, 2)
        bulge = (
            float(rng.uniform(-pipeline._BULGE_RANGE, pipeline._BULGE_RANGE)) if is_arc else 0.0
        )
        edges.append(("arc" if is_arc else "line", float(x), float(y), bulge))
    return tuple(edges), float(rng.uniform(*pipeline._DEPTH_RANGE))


def record_from_sequence(seq) -> dict:
    """The former writer's sequence record."""
    edges, depth = seq
    return {
        "edges": [{"kind": kind, "x": x, "y": y, "bulge": bulge} for kind, x, y, bulge in edges],
        "depth": depth,
    }


def one_draw_at_a_time_ground_truth(n_conditions: int, seed):
    """The former ground-truth sampler, which draws sequences and kernel-checks
    each draw alone: its canonical sequences, their condition descriptors and
    latent rows, and its draw count; or its SamplingStall."""
    rng = np.random.default_rng(seed)
    sequences, conditions, latents, draws = [], [], [], 0
    while len(sequences) < n_conditions:
        seq = random_sequence(rng)
        draws += 1
        if not check_latents(encode(seq)[None])[0]:
            seq = canonicalize_sequence(seq)
            sequences.append(seq)
            latents.append(encode(seq))
            conditions.append(condition_descriptor(latents[-1]))
        elif (
            draws >= pipeline._REJECTION_MIN_DRAWS
            and len(sequences) / draws < pipeline._REJECTION_MIN_RATE
        ):
            raise SamplingStall(f"acceptance {len(sequences) / draws:.2e} after {draws} draws")
    return sequences, np.array(conditions), np.array(latents), draws
