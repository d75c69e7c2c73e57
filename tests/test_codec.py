import json
import logging
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cadrepair import geometry
from cadrepair.codec import LATENT_DIM, condition_descriptor, read_latents, write_latents
from cadrepair.config import ConfigError
from cadrepair.geometry import (
    CANONICAL_ARC,
    CANONICAL_INACTIVE,
    CANONICAL_LINE,
    MAX_EDGES,
    InvalidReason,
    check_latents,
    latent_solid,
    row_from_record,
)
from cadrepair.pipeline import gen_ground_truth

from conftest import command_sequences, encode, latent_row, latent_vectors
from test_geometry import line, oracle_decode


def triangle(depth=0.5):
    """A reference sequence (conftest.py): the unit right triangle."""
    return (line(0, 0), line(1, 0), line(0, 1)), depth


def quantize(z):
    """Projection onto the canonical latents."""
    return encode(oracle_decode(z))


def decoded(z):
    """The one decoder on a latent row: its edge count, and each slot's
    (x, y, bulge) as its edge holds them, (MAX_EDGES, 3)."""
    (count,), edges, _ = geometry._decode(np.asarray(z, dtype=float)[None])
    return int(count), edges[:, 0].T


def sequence_edges(seq):
    """A sequence's edge count and (x, y, bulge) rows, zero-padded as ``decoded``'s."""
    edges, _ = seq
    rows = np.zeros((MAX_EDGES, 3))
    for i, (_, x, y, bulge) in enumerate(edges):
        rows[i] = (x, y, bulge)
    return len(edges), rows


def assert_decodes_to(z, seq):
    count, edges = decoded(z)
    want_count, want_edges = sequence_edges(seq)
    assert count == want_count
    assert edges.tobytes() == want_edges.tobytes()


# ---------------------------------------------------------------- decode


def test_decode_triangle_layout():
    z = latent_row(
        [
            (0.25, 0.0, 0.0, 0.0),
            (0.25, 1.0, 0.0, 0.0),
            (0.25, 0.0, 1.0, 0.0),
            (-0.5, 0.0, 0.0, 0.0),
            (-0.5, 0.0, 0.0, 0.0),
        ],
        0.5,
    )
    assert_decodes_to(z, triangle())
    polygon, count, depth = latent_solid(z)
    np.testing.assert_array_equal(polygon, [[0, 0], [1, 0], [0, 1]])
    assert (count, depth) == (3, 0.5)


def test_decode_all_inactive_gives_empty_sequence():
    z = latent_row([(-1.0, 9, 9, 9)] * 5, 0.5)
    assert_decodes_to(z, ((), 0.5))
    assert check_latents(z[None])[0] == 1 << InvalidReason.TOO_FEW_VERTICES


def test_decode_kind_threshold():
    z = latent_row(
        [
            (0.75, 0.1, 0.2, 0.3),
            (0.25, 0.4, 0.5, 9.0),
            (0.25, 0.6, 0.7, 0.0),
            (0.25, 0.8, 0.9, 0.0),
            (-0.5, 0, 0, 0),
        ],
        0.5,
    )
    count, edges = decoded(z)
    assert count == 4
    assert edges[0, 2] == 0.3
    assert edges[1, 2] == 0.0  # line slots ignore the bulge channel


def test_decode_stops_at_first_inactive_slot():
    z = latent_row(
        [(0.25, 0, 0, 0), (-0.5, 0, 0, 0), (0.25, 1, 1, 0), (0.25, 1, 0, 0), (0.25, 0, 1, 0)],
        0.5,
    )
    assert decoded(z)[0] == 1


def test_decode_threshold_edges():
    # activity threshold is strict: t == 0 is inactive; kind threshold too.
    z = latent_row([(0.0, 0, 0, 0)] * 5, 0.5)
    assert decoded(z)[0] == 0
    z = latent_row(
        [(0.5, 0.1, 0.1, 0.9), (-1, 0, 0, 0), (-1, 0, 0, 0), (-1, 0, 0, 0), (-1, 0, 0, 0)], 0.5
    )
    assert_decodes_to(z, ((line(0.1, 0.1),), 0.5))  # a line: bulge 0


def test_decode_takes_values_verbatim():
    z = latent_row(
        [(0.75, 7.5, -3.25, 2.5)] + [(-0.5, 0, 0, 0)] * 4,
        2.75,
    )
    assert decoded(z)[1][0].tolist() == [7.5, -3.25, 2.5]
    assert latent_solid(latent_row([(0, 0), (1, 0), (0, 1)], 0.375))[2] == 0.375


def test_decode_rejects_wrong_width():
    for row in (np.zeros(20), np.zeros(LATENT_DIM + 1)):
        with pytest.raises(ValueError, match="latents must be"):
            latent_solid(row)


# ---------------------------------------------------------------- encode


def triangle_record(depth=0.5):
    edges = [{"kind": "line", "x": x, "y": y, "bulge": 0.0} for x, y in ((0, 0), (1, 0), (0, 1))]
    return {"edges": edges, "depth": depth}


def test_encode_triangle_canonical():
    z = row_from_record(triangle_record())
    assert list(z[0::4][:5]) == [
        CANONICAL_LINE,
        CANONICAL_LINE,
        CANONICAL_LINE,
        CANONICAL_INACTIVE,
        CANONICAL_INACTIVE,
    ]
    assert z[-1] == 0.5
    assert z.tobytes() == encode(triangle()).tobytes()


def test_encode_arc_channel():
    record = triangle_record(0.25)
    record["edges"][1] = {"kind": "arc", "x": 0.5, "y": 0.5, "bulge": -0.4}
    z = row_from_record(json.loads(json.dumps(record)))
    assert z[4] == CANONICAL_ARC
    assert z[7] == -0.4


@given(command_sequences())
@settings(max_examples=300)
def test_decode_encode_roundtrip(seq):
    assert_decodes_to(encode(seq), seq)
    assert oracle_decode(encode(seq)) == seq


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
    for z in gen_ground_truth(25, seed=99)[1]:
        np.testing.assert_array_equal(quantize(z), z)


@given(latent_vectors(values=st.floats(-1.5, 1.5, allow_nan=False)))
@example(np.array([1.0, 0, 0, 0, 1.0, 0, 0, 0, 5e-324, 0, 0, 0] + [1.0, 0, 0, 0] * 2 + [0.0]))
@settings(max_examples=200)
def test_decode_locally_constant_away_from_thresholds(z):
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
    # a changed kind would show as a bulge set to 0 or kept
    count, edges = decoded(z)
    reread_count, reread_edges = decoded(perturbed)
    assert reread_count == count
    assert reread_edges.tobytes() == edges.tobytes()


# ---------------------------------------------------------------- condition descriptor


def test_descriptor_unit_square():
    d = condition_descriptor(latent_row([(0, 0), (1, 0), (1, 1), (0, 1)], 0.5))
    assert d.shape == (8,)
    assert d[0] == 4 / 5
    assert math.isclose(d[1], 1.0)  # |area|
    assert math.isclose(d[2], 4.0)  # perimeter
    assert math.isclose(d[3], 0.5) and math.isclose(d[4], 0.5)  # centroid
    assert math.isclose(d[5], 1.0) and math.isclose(d[6], 1.0)  # bbox
    assert d[7] == 0.5


def test_descriptor_triangle():
    d = condition_descriptor(latent_row([(0, 0), (1, 0), (0, 1)], 0.5))
    assert math.isclose(d[1], 0.5)
    assert math.isclose(d[2], 2.0 + math.sqrt(2.0))


def test_descriptor_translation_moves_only_centroid():
    a = latent_row([(0, 0), (0.5, 0), (0.5, 0.5), (0, 0.5)], 0.5)
    b = latent_row([(0.3, -0.2), (0.8, -0.2), (0.8, 0.3), (0.3, 0.3)], 0.5)
    da, db = condition_descriptor(a), condition_descriptor(b)
    np.testing.assert_allclose(np.delete(da, [3, 4]), np.delete(db, [3, 4]), atol=1e-12)
    assert not np.allclose(da[3:5], db[3:5])


def test_descriptor_requires_validity():
    with pytest.raises(ValueError, match="latent row fails kernel checks: TOO_FEW_VERTICES$"):
        condition_descriptor(latent_row([(0, 0), (1, 0)], 0.5))


def test_descriptor_deterministic():
    z = latent_row([(0, 0), (1, 0), (0, 1)], 0.5)
    np.testing.assert_array_equal(condition_descriptor(z), condition_descriptor(z))


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


def test_writing_non_finite_rows_warns_and_keeps_the_bytes(tmp_path, caplog):
    matrix = np.zeros((5, LATENT_DIM))
    matrix[1, 3] = np.nan
    matrix[3, [0, 20]] = -np.inf
    path = tmp_path / "latents.bin"
    with caplog.at_level(logging.WARNING, logger="cadrepair.codec"):
        write_latents(path, matrix)
        assert f"{path}: 2 of 5 rows are not finite" in caplog.text
        header = struct.pack("<4sIII", b"LAT1", 5, LATENT_DIM, 0)
        assert path.read_bytes() == header + matrix.astype("<f4").tobytes()
        caplog.clear()
        write_latents(path, np.zeros((5, LATENT_DIM)))
        assert not caplog.records


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
