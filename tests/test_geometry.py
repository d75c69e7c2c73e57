import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadrepair.config import ConfigError
from cadrepair.geometry import (
    ARC_SEGMENTS,
    CommandSequence,
    EdgeKind,
    InvalidReason,
    SketchEdge,
    discretize_profile,
    kernel_check,
    points_in_polygon,
    polygon_area,
    record_from_sequence,
    sample_point_cloud,
    self_intersects,
    sequence_from_record,
)

from conftest import command_sequences, random_simple_polygon


def line(x, y):
    return SketchEdge(EdgeKind.LINE, (float(x), float(y)))


def arc(x, y, bulge):
    return SketchEdge(EdgeKind.ARC, (float(x), float(y)), float(bulge))


def square(depth=0.5):
    return CommandSequence((line(0, 0), line(1, 0), line(1, 1), line(0, 1)), depth)


def bowtie():
    return CommandSequence((line(0, 0), line(1, 1), line(1, 0), line(0, 1)), 0.5)


# ---------------------------------------------------------------- parsing


def parse_sequence(text):
    """One sequence record of conditions.jsonl."""
    return sequence_from_record(json.loads(text))


def serialize_sequence(seq):
    """The sequence record as gen-dataset writes it to conditions.jsonl."""
    return json.dumps(record_from_sequence(seq), allow_nan=False, separators=(",", ":"))


def test_parse_square_record():
    record = (
        '{"edges":[{"kind":"line","x":0.0,"y":0.0,"bulge":0.0},'
        '{"kind":"line","x":1.0,"y":0.0,"bulge":0.0},'
        '{"kind":"line","x":1.0,"y":1.0,"bulge":0.0},'
        '{"kind":"line","x":0.0,"y":1.0,"bulge":0.0}],"depth":0.5}'
    )
    seq = parse_sequence(record)
    assert seq == square()


def test_parse_empty_sequence_is_structurally_fine():
    seq = parse_sequence('{"edges":[],"depth":1.0}')
    assert seq.edges == ()
    assert seq.depth == 1.0
    assert not kernel_check(seq).valid


def test_parse_six_edges_is_arity_error():
    edges = ",".join('{"kind":"line","x":%d,"y":0.0,"bulge":0.0}' % i for i in range(6))
    with pytest.raises(ConfigError, match="at most 5 edges allowed, got 6"):
        parse_sequence('{"edges":[%s],"depth":0.5}' % edges)


# each malformed record and the error that names its fault
MALFORMED_RECORDS = {
    "[1,2,3]": "record must be a JSON object",
    '{"edges":[],"depth":0.5,"extra":1}': "unknown record fields: ['extra']",
    '{"edges":[{"kind":"circle","x":0,"y":0,"bulge":0}],"depth":0.5}':
        "edges[0].kind: expected 'line' or 'arc', got 'circle'",
    '{"edges":[{"kind":"line","x":"a","y":0,"bulge":0}],"depth":0.5}':
        "edges[0].x: expected a number, got str",
    '{"edges":[{"kind":"line","x":0,"y":0,"bulge":0.5}],"depth":0.5}':
        "edges[0].bulge: must be 0 for line edges",
    '{"edges":[{"kind":"line","x":0,"y":0,"bulge":0,"junk":1}],"depth":0.5}':
        "edges[0]: unknown fields ['junk']",
    '{"edges":[{"kind":"line","x":1e999,"y":0,"bulge":0}],"depth":0.5}':
        "edges[0].x: non-finite number not allowed",
    '{"edges":[]}': "record must carry 'edges' and 'depth'",
    '{"depth":0.5}': "record must carry 'edges' and 'depth'",
    '{"edges":[{"kind":"line","x":0,"y":0,"bulge":0}],"depth":true}':
        "record.depth: expected a number, got bool",
}


@pytest.mark.parametrize("text", list(MALFORMED_RECORDS))
def test_parse_malformed_records(text):
    with pytest.raises(ConfigError, match=re.escape(MALFORMED_RECORDS[text])):
        parse_sequence(text)


def test_serialize_carries_bulge():
    seq = CommandSequence((line(0, 0), arc(0.5, 0.5, 0.3), line(0, 0.5)), 0.25)
    assert '"bulge":0.3' in serialize_sequence(seq)


@given(command_sequences())
@settings(max_examples=300)
def test_parse_serialize_roundtrip(seq):
    assert parse_sequence(serialize_sequence(seq)) == seq


def test_sequence_type_enforces_arity():
    with pytest.raises(ValueError, match="at most 5 edges allowed, got 6"):
        CommandSequence(tuple(line(i, 0) for i in range(6)), 0.5)


def test_line_edge_rejects_bulge():
    with pytest.raises(ValueError):
        SketchEdge(EdgeKind.LINE, (0.0, 0.0), 0.5)


# ---------------------------------------------------------------- discretization


def test_square_discretizes_to_four_vertices():
    poly = discretize_profile(square())
    assert poly.shape == (4, 2)
    np.testing.assert_array_equal(poly, [[0, 0], [1, 0], [1, 1], [0, 1]])


def test_semicircle_midpoint_sagitta():
    # bulge 1 = semicircle: the middle intermediate point sits at chord/2
    # from the chord midpoint (sagitta = bulge * chord / 2).
    seq = CommandSequence((line(0, 0), arc(1, 0, 1.0)), 0.5)
    poly = discretize_profile(seq)
    assert poly.shape == (1 + ARC_SEGMENTS, 2)
    mid = poly[ARC_SEGMENTS // 2]
    chord_mid = np.array([0.5, 0.0])
    assert math.isclose(np.linalg.norm(mid - chord_mid), 0.5, rel_tol=1e-12)


def test_zero_bulge_arc_equals_line():
    arcs = CommandSequence((line(0, 0), SketchEdge(EdgeKind.ARC, (1.0, 0.0), 0.0), line(1, 1)), 0.5)
    lines = CommandSequence((line(0, 0), line(1, 0), line(1, 1)), 0.5)
    np.testing.assert_array_equal(discretize_profile(arcs), discretize_profile(lines))


def test_arc_points_lie_on_circle():
    seq = CommandSequence((line(0, 0), arc(1, 0, 0.5)), 0.5)
    poly = discretize_profile(seq)
    arc_pts = poly[1:]
    # center for bulge 0.5 over the unit chord: (0.5, 0.375), radius 0.625
    center = np.array([0.5, 0.375])
    radii = np.linalg.norm(arc_pts - center, axis=1)
    np.testing.assert_allclose(radii, 0.625, atol=1e-12)


def test_arc_segments_count():
    seq = CommandSequence((line(0, 0), arc(1, 0, 0.4)), 0.5)
    assert discretize_profile(seq).shape == (1 + ARC_SEGMENTS, 2)


# ---------------------------------------------------------------- area


def shoelace_oracle(poly):
    total = 0.0
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total / 2.0


def test_unit_square_area():
    assert polygon_area([[0, 0], [1, 0], [1, 1], [0, 1]]) == 1.0


def test_right_triangle_area():
    assert polygon_area([[0, 0], [1, 0], [0, 1]]) == 0.5


def test_clockwise_square_area_negative():
    assert polygon_area([[0, 0], [0, 1], [1, 1], [1, 0]]) == -1.0


def test_area_matches_oracle_and_negates_on_reversal():
    rng = np.random.default_rng(11)
    for _ in range(200):
        poly = rng.uniform(-1, 1, size=(int(rng.integers(3, 12)), 2))
        area = polygon_area(poly)
        assert abs(area - shoelace_oracle(poly)) < 1e-12
        assert abs(polygon_area(poly[::-1]) + area) < 1e-12


# ---------------------------------------------------------------- self-intersection


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _on_seg(a, b, p):
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_cross(a, b, c, d):
    d1, d2 = _orient(a, b, c), _orient(a, b, d)
    d3, d4 = _orient(c, d, a), _orient(c, d, b)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _on_seg(a, b, c):
        return True
    if d2 == 0 and _on_seg(a, b, d):
        return True
    if d3 == 0 and _on_seg(c, d, a):
        return True
    if d4 == 0 and _on_seg(c, d, b):
        return True
    return False


def self_intersects_oracle(poly):
    n = len(poly)
    edges = [(tuple(poly[i]), tuple(poly[(i + 1) % n])) for i in range(n)]
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            if _segments_cross(*edges[i], *edges[j]):
                return True
    return False


def test_convex_square_not_self_intersecting():
    assert not self_intersects([[0, 0], [1, 0], [1, 1], [0, 1]])


def test_bowtie_self_intersects():
    assert self_intersects([[0, 0], [1, 1], [1, 0], [0, 1]])


def test_vertex_touching_counts_as_intersection():
    # non-adjacent edges meeting at a shared point
    poly = [[0, 0], [2, 0], [2, 2], [1, 0], [0, 2]]
    assert self_intersects(poly)


def test_star_polygons_are_simple():
    rng = np.random.default_rng(5)
    for _ in range(50):
        poly = random_simple_polygon(rng, int(rng.integers(3, 20)))
        assert not self_intersects(poly)


def test_self_intersects_matches_oracle_random():
    rng = np.random.default_rng(17)
    agree = 0
    for _ in range(1500):
        n = int(rng.integers(3, 33))
        poly = rng.uniform(-1, 1, size=(n, 2))
        assert self_intersects(poly) == self_intersects_oracle(poly)
        agree += 1
    assert agree == 1500


@given(st.integers(0, 2**32 - 1), st.integers(3, 32))
@settings(max_examples=150, deadline=None)
def test_self_intersects_matches_oracle_property(seed, n):
    poly = np.random.default_rng(seed).uniform(-1, 1, size=(n, 2))
    assert self_intersects(poly) == self_intersects_oracle(poly)


# ---------------------------------------------------------------- kernel


def test_square_is_valid():
    report = kernel_check(square())
    assert report.valid
    assert report.reasons == ()


def test_negative_depth():
    report = kernel_check(square(depth=-0.1))
    assert not report.valid
    assert report.reasons == (InvalidReason.DEPTH_NON_POSITIVE,)


def test_depth_too_large():
    assert kernel_check(square(depth=1.5)).reasons == (InvalidReason.DEPTH_TOO_LARGE,)
    assert kernel_check(square(depth=1.0)).valid  # boundary included


def test_bowtie_reports_self_intersection():
    report = kernel_check(bowtie())
    assert not report.valid
    assert InvalidReason.SELF_INTERSECTION in report.reasons


def test_too_few_vertices():
    seq = CommandSequence((line(0, 0), line(1, 0)), 0.5)
    assert InvalidReason.TOO_FEW_VERTICES in kernel_check(seq).reasons


def test_out_of_bounds():
    seq = CommandSequence((line(0, 0), line(1.5, 0), line(1, 1)), 0.5)
    assert InvalidReason.OUT_OF_BOUNDS in kernel_check(seq).reasons


def test_bulge_out_of_range():
    seq = CommandSequence((line(0, 0), arc(1, 0, 1.25), line(1, 1)), 0.5)
    assert InvalidReason.BULGE_OUT_OF_RANGE in kernel_check(seq).reasons
    ok = CommandSequence((line(0, 0), arc(1, 0, 1.0), line(1, 1)), 0.5)
    assert InvalidReason.BULGE_OUT_OF_RANGE not in kernel_check(ok).reasons


def test_degenerate_adjacent_vertices():
    seq = CommandSequence((line(0, 0), line(0, 5e-4), line(1, 1)), 0.5)
    report = kernel_check(seq)
    assert InvalidReason.DEGENERATE_ADJACENT_VERTICES in report.reasons
    # polygon checks are skipped for degenerate input
    assert InvalidReason.SELF_INTERSECTION not in report.reasons


def test_near_zero_area():
    seq = CommandSequence((line(0, 0), line(1, 0), line(0.5, 1e-4)), 0.5)
    assert InvalidReason.NEAR_ZERO_AREA in kernel_check(seq).reasons


def test_multiple_reasons_reported_sorted():
    seq = CommandSequence((line(0, 0), line(1.5, 0)), -1.0)
    report = kernel_check(seq)
    assert report.reasons == (
        InvalidReason.TOO_FEW_VERTICES,
        InvalidReason.OUT_OF_BOUNDS,
        InvalidReason.DEPTH_NON_POSITIVE,
    )


@given(command_sequences(coord=st.floats(-3, 3, allow_nan=False), bulge=st.floats(-3, 3, allow_nan=False), depth=st.floats(-2, 2, allow_nan=False)))
@settings(max_examples=300, deadline=None)
def test_kernel_total_deterministic_valid_iff_no_reasons(seq):
    first = kernel_check(seq)
    second = kernel_check(seq)
    assert first == second
    assert first.valid == (len(first.reasons) == 0)


# ---------------------------------------------------------------- point sampling


def test_cloud_inside_unit_box():
    seq = square(depth=1.0)
    cloud = sample_point_cloud(seq, 1000, seed=3)
    assert cloud.shape == (1000, 3)
    assert (cloud >= 0).all() and (cloud <= 1).all()


def test_cloud_deterministic():
    seq = square()
    a = sample_point_cloud(seq, 256, seed=42)
    b = sample_point_cloud(seq, 256, seed=42)
    np.testing.assert_array_equal(a, b)
    c = sample_point_cloud(seq, 256, seed=43)
    assert not np.array_equal(a, c)


def test_cloud_rejects_infeasible():
    with pytest.raises(ValueError, match="sequence fails kernel checks: DEPTH_NON_POSITIVE"):
        sample_point_cloud(square(depth=-1.0), 10, seed=0)


def test_triangle_cloud_statistics():
    depth = 0.8
    seq = CommandSequence((line(0, 0), line(1, 0), line(0, 1)), depth)
    n = 100_000
    cloud = sample_point_cloud(seq, n, seed=7)
    xy = cloud[:, :2]
    assert ((xy[:, 0] + xy[:, 1]) < 1.0 + 1e-12).mean() > 0.9999
    mean_z = cloud[:, 2].mean()
    se = depth / math.sqrt(12.0 * n)
    assert abs(mean_z - depth / 2.0) < 3.0 * se


def test_points_in_polygon_even_odd():
    poly = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    pts = np.array([[0.5, 0.5], [1.5, 0.5], [-0.1, 0.2], [0.25, 0.99]])
    np.testing.assert_array_equal(points_in_polygon(pts, poly), [True, False, False, True])
