from __future__ import annotations

import os

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from cadrepair import pipeline
from cadrepair.codec import condition_descriptor, encode
from cadrepair.geometry import (
    CommandSequence,
    EdgeKind,
    SamplingStall,
    SketchEdge,
    canonicalize_sequence,
    check_latents,
)

# CI's tier-1 step sets HYPOTHESIS_PROFILE=ci, so that a property that leaves
# max_examples unpinned runs many more examples there than in a local run.
settings.register_profile("ci", max_examples=3000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
small_floats = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def sketch_edges(draw, coord=finite_floats, bulge=finite_floats):
    kind = draw(st.sampled_from([EdgeKind.LINE, EdgeKind.ARC]))
    target = (draw(coord), draw(coord))
    b = draw(bulge) if kind is EdgeKind.ARC else 0.0
    return SketchEdge(kind, target, b)


@st.composite
def command_sequences(draw, coord=finite_floats, bulge=finite_floats, depth=finite_floats):
    edges = draw(st.lists(sketch_edges(coord, bulge), min_size=0, max_size=5))
    return CommandSequence(tuple(edges), draw(depth))


@st.composite
def latent_vectors(draw, values=st.floats(-3.0, 3.0, allow_nan=False)):
    return np.array(draw(st.lists(values, min_size=21, max_size=21)))


def random_simple_polygon(rng: np.random.Generator, n: int) -> np.ndarray:
    """Star-shaped polygon around the origin: simple by construction."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    radii = rng.uniform(0.3, 1.0, n)
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


def one_draw_at_a_time_ground_truth(n_conditions: int, seed):
    """The former ground-truth sampler, which kernel-checks each draw alone:
    its conditions and its draw count, or its SamplingStall."""
    rng = np.random.default_rng(seed)
    out, draws = [], 0
    while len(out) < n_conditions:
        seq = pipeline._random_sequence(rng)
        draws += 1
        if not check_latents(encode(seq)[None])[0]:
            seq = canonicalize_sequence(seq)
            z = encode(seq)
            out.append(pipeline.GroundTruthCondition(condition_descriptor(z), seq, z))
        elif (
            draws >= pipeline._REJECTION_MIN_DRAWS
            and len(out) / draws < pipeline._REJECTION_MIN_RATE
        ):
            raise SamplingStall(f"acceptance {len(out) / draws:.2e} after {draws} draws")
    return out, draws
