import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cadrepair.codec import (
    CANONICAL_ARC,
    CANONICAL_INACTIVE,
    CANONICAL_LINE,
    LATENT_DIM,
    condition_descriptor,
    decode,
    encode,
    read_latents,
    write_latents,
)
from cadrepair.config import ConfigError
from cadrepair.geometry import (
    CommandSequence,
    EdgeKind,
    SketchEdge,
    kernel_check,
)
from cadrepair.pipeline import gen_ground_truth

from conftest import command_sequences, latent_vectors


def line(x, y):
    return SketchEdge(EdgeKind.LINE, (float(x), float(y)))


def triangle(depth=0.5):
    return CommandSequence((line(0, 0), line(1, 0), line(0, 1)), depth)


def quantize(z):
    """Projection onto the codec's canonical latents."""
    return encode(decode(z))


def latent_from_slots(slots, depth):
    z = np.zeros(LATENT_DIM)
    for i, slot in enumerate(slots):
        z[4 * i : 4 * i + 4] = slot
    z[-1] = depth
    return z


# ---------------------------------------------------------------- decode


def test_decode_triangle_layout():
    z = latent_from_slots(
        [
            (0.25, 0.0, 0.0, 0.0),
            (0.25, 1.0, 0.0, 0.0),
            (0.25, 0.0, 1.0, 0.0),
            (-0.5, 0.0, 0.0, 0.0),
            (-0.5, 0.0, 0.0, 0.0),
        ],
        0.5,
    )
    assert decode(z) == triangle()


def test_decode_all_inactive_gives_empty_sequence():
    z = latent_from_slots([(-1.0, 9, 9, 9)] * 5, 0.5)
    seq = decode(z)
    assert seq.edges == ()
    assert not kernel_check(seq).valid


def test_decode_kind_threshold():
    z = latent_from_slots(
        [
            (0.75, 0.1, 0.2, 0.3),
            (0.25, 0.4, 0.5, 9.0),
            (0.25, 0.6, 0.7, 0.0),
            (0.25, 0.8, 0.9, 0.0),
            (-0.5, 0, 0, 0),
        ],
        0.5,
    )
    seq = decode(z)
    assert [e.kind for e in seq.edges] == [
        EdgeKind.ARC,
        EdgeKind.LINE,
        EdgeKind.LINE,
        EdgeKind.LINE,
    ]
    assert seq.edges[0].bulge == 0.3
    assert seq.edges[1].bulge == 0.0  # line slots ignore the bulge channel


def test_decode_stops_at_first_inactive_slot():
    z = latent_from_slots(
        [(0.25, 0, 0, 0), (-0.5, 0, 0, 0), (0.25, 1, 1, 0), (0.25, 1, 0, 0), (0.25, 0, 1, 0)],
        0.5,
    )
    assert len(decode(z).edges) == 1


def test_decode_threshold_edges():
    # activity threshold is strict: t == 0 is inactive; kind threshold too.
    z = latent_from_slots([(0.0, 0, 0, 0)] * 5, 0.5)
    assert decode(z).edges == ()
    z = latent_from_slots(
        [(0.5, 0.1, 0.1, 0.9), (-1, 0, 0, 0), (-1, 0, 0, 0), (-1, 0, 0, 0), (-1, 0, 0, 0)], 0.5
    )
    assert decode(z).edges[0].kind is EdgeKind.LINE


def test_decode_takes_values_verbatim():
    z = latent_from_slots(
        [(0.25, 7.5, -3.25, 0.0)] + [(-0.5, 0, 0, 0)] * 4,
        2.75,
    )
    seq = decode(z)
    assert seq.edges[0].target == (7.5, -3.25)
    assert seq.depth == 2.75


def test_decode_rejects_wrong_width():
    with pytest.raises(ValueError):
        decode(np.zeros(20))


# ---------------------------------------------------------------- encode


def test_encode_triangle_canonical():
    z = encode(triangle())
    assert list(z[0::4][:5]) == [
        CANONICAL_LINE,
        CANONICAL_LINE,
        CANONICAL_LINE,
        CANONICAL_INACTIVE,
        CANONICAL_INACTIVE,
    ]
    assert z[-1] == 0.5


def test_encode_arc_channel():
    seq = CommandSequence(
        (line(0, 0), SketchEdge(EdgeKind.ARC, (0.5, 0.5), -0.4), line(0, 1)), 0.25
    )
    z = encode(seq)
    assert z[4] == CANONICAL_ARC
    assert z[7] == -0.4


@given(command_sequences())
@settings(max_examples=300)
def test_decode_encode_roundtrip(seq):
    assert decode(encode(seq)) == seq


@given(latent_vectors())
@settings(max_examples=300)
def test_quantize_idempotent(z):
    once = quantize(z)
    np.testing.assert_array_equal(quantize(once), once)


def test_quantize_canonicalizes():
    z = np.full(LATENT_DIM, 0.3)
    q = quantize(z)
    assert q[0] == CANONICAL_LINE  # 0.3 is an active line slot
    assert q[3] == 0.0  # line bulge zeroed


def test_encode_of_ground_truth_is_quantize_fixed():
    for case in gen_ground_truth(25, seed=99):
        np.testing.assert_array_equal(quantize(case.latent), case.latent)


@given(latent_vectors(values=st.floats(-1.5, 1.5, allow_nan=False)))
@example(np.array([1.0, 0, 0, 0, 1.0, 0, 0, 0, 5e-324, 0, 0, 0] + [1.0, 0, 0, 0] * 2 + [0.0]))
@settings(max_examples=200)
def test_decode_locally_constant_away_from_thresholds(z):
    seq = decode(z)
    rng = np.random.default_rng(0)
    perturbed = z.copy()
    for i in range(5):
        t = z[4 * i]
        margin = min(abs(t - 0.0), abs(t - 0.5))
        if margin == 0.0:
            return  # sitting exactly on a threshold: no safe perturbation
        step = t + 0.9 * margin * float(rng.uniform(-1, 1))
        # At subnormal scale 0.9 * margin rounds up to margin, which would put
        # the step on the threshold; keep it strictly inside (t - margin, t + margin).
        lo, hi = np.nextafter(t - margin, t), np.nextafter(t + margin, t)
        perturbed[4 * i] = min(max(step, lo), hi)
    reread = decode(perturbed)
    assert len(reread.edges) == len(seq.edges)
    assert [e.kind for e in reread.edges] == [e.kind for e in seq.edges]


# ---------------------------------------------------------------- condition descriptor


def test_descriptor_unit_square():
    seq = CommandSequence((line(0, 0), line(1, 0), line(1, 1), line(0, 1)), 0.5)
    d = condition_descriptor(seq)
    assert d.shape == (8,)
    assert d[0] == 4 / 5
    assert math.isclose(d[1], 1.0)  # |area|
    assert math.isclose(d[2], 4.0)  # perimeter
    assert math.isclose(d[3], 0.5) and math.isclose(d[4], 0.5)  # centroid
    assert math.isclose(d[5], 1.0) and math.isclose(d[6], 1.0)  # bbox
    assert d[7] == 0.5


def test_descriptor_triangle():
    d = condition_descriptor(triangle())
    assert math.isclose(d[1], 0.5)
    assert math.isclose(d[2], 2.0 + math.sqrt(2.0))


def test_descriptor_translation_moves_only_centroid():
    a = CommandSequence((line(0, 0), line(0.5, 0), line(0.5, 0.5), line(0, 0.5)), 0.5)
    b = CommandSequence(
        (line(0.3, -0.2), line(0.8, -0.2), line(0.8, 0.3), line(0.3, 0.3)), 0.5
    )
    da, db = condition_descriptor(a), condition_descriptor(b)
    np.testing.assert_allclose(np.delete(da, [3, 4]), np.delete(db, [3, 4]), atol=1e-12)
    assert not np.allclose(da[3:5], db[3:5])


def test_descriptor_requires_validity():
    with pytest.raises(ValueError, match="descriptor needs a kernel-valid sequence: TOO_FEW"):
        condition_descriptor(CommandSequence((line(0, 0), line(1, 0)), 0.5))


def test_descriptor_deterministic():
    seq = triangle()
    np.testing.assert_array_equal(condition_descriptor(seq), condition_descriptor(seq))


# ---------------------------------------------------------------- latent files


def test_latent_file_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    matrix = rng.normal(size=(17, LATENT_DIM))
    path = tmp_path / "latents.bin"
    write_latents(path, matrix)
    loaded = read_latents(path)
    assert loaded.shape == (17, LATENT_DIM)
    np.testing.assert_array_equal(loaded, matrix.astype(np.float32).astype(np.float64))
    assert path.read_bytes()[:4] == b"LAT1"


def test_latent_file_header_validation(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ConfigError, match="bad.bin: bad magic b'NOPE'"):
        read_latents(path)
    path.write_bytes(b"LA")
    with pytest.raises(ConfigError, match="bad.bin: too short for a latent matrix header"):
        read_latents(path)


def test_latent_file_truncated_payload(tmp_path):
    path = tmp_path / "short.bin"
    write_latents(path, np.zeros((4, LATENT_DIM)))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ConfigError, match="short.bin: expected 336 payload bytes, got 328"):
        read_latents(path)
