import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cadrepair import geometry
from cadrepair.codec import condition_descriptor
from cadrepair.config import ConfigError
from cadrepair.geometry import (
    ACTIVITY_THRESHOLD,
    ARC_SEGMENTS,
    CANONICAL_ARC,
    CANONICAL_INACTIVE,
    CANONICAL_LINE,
    KIND_THRESHOLD,
    LATENT_DIM,
    MAX_EDGES,
    SLOT_WIDTH,
    InvalidReason,
    canonical_row,
    check_latents,
    points_in_polygon,
    polygon_area,
    reason_names,
    record_from_row,
    row_from_record,
    sample_point_cloud,
)
from cadrepair.pipeline import gen_ground_truth

from conftest import (
    canonicalize_sequence,
    command_sequences,
    encode,
    latent_row,
    random_sequence,
    random_simple_polygon,
    record_from_sequence,
)


def line(x, y):
    """A line edge of a reference sequence (conftest.py)."""
    return ("line", float(x), float(y), 0.0)


def arc(x, y, bulge):
    """An arc edge of a reference sequence (conftest.py)."""
    return ("arc", float(x), float(y), float(bulge))


def square(depth=0.5):
    return latent_row([(0, 0), (1, 0), (1, 1), (0, 1)], depth)


def bowtie():
    return latent_row([(0, 0), (1, 1), (1, 0), (0, 1)], 0.5)


def oracle_decode(latent):
    """The former per-row decoder, to a reference sequence: slots are scanned in
    order and the sequence ends at the first slot whose activity channel is not
    above 0; an active slot is an arc above 0.5 and a line otherwise, and
    targets, bulges and depth are taken verbatim, except a line's bulge, which
    is 0."""
    z = np.asarray(latent, dtype=float).reshape(-1)
    assert z.shape == (LATENT_DIM,)
    edges = []
    for i in range(MAX_EDGES):
        t, x, y, b = z[SLOT_WIDTH * i : SLOT_WIDTH * (i + 1)]
        if not t > ACTIVITY_THRESHOLD:
            break
        if t > KIND_THRESHOLD:
            edges.append(arc(x, y, b))
        else:
            edges.append(line(x, y))
    return tuple(edges), float(z[-1])


def kernel_reasons(z):
    """The kernel's reasons for a latent row, in enum order."""
    (mask,) = check_latents(np.asarray(z, dtype=float)[None])
    return tuple(r for r in InvalidReason if mask >> r & 1)


def profile(z):
    """The profile polygon the one decoder builds for a latent row, valid or not."""
    count, edges, _ = geometry._decode(np.asarray(z, dtype=float)[None])
    return geometry._polygons(count, edges, [0])[0]


def self_intersects(polygon):
    poly = np.asarray(polygon, dtype=float)
    return bool(geometry._self_intersecting(poly, [0, len(poly)])[0])


# ---------------------------------------------------------------- parsing


def parse_sequence(text):
    """The latent row of one sequence record of conditions.jsonl."""
    return row_from_record(json.loads(text))


def serialize_sequence(z):
    """A latent row's sequence record as the stages write it to conditions.jsonl."""
    return json.dumps(record_from_row(z), allow_nan=False, separators=(",", ":"))


def test_parse_square_record():
    record = (
        '{"edges":[{"kind":"line","x":0.0,"y":0.0,"bulge":0.0},'
        '{"kind":"line","x":1.0,"y":0.0,"bulge":0.0},'
        '{"kind":"line","x":1.0,"y":1.0,"bulge":0.0},'
        '{"kind":"line","x":0.0,"y":1.0,"bulge":0.0}],"depth":0.5}'
    )
    z = parse_sequence(record)
    assert z.tobytes() == square().tobytes()
    assert serialize_sequence(z) == record


def test_parse_empty_sequence_is_structurally_fine():
    z = parse_sequence('{"edges":[],"depth":1.0}')
    assert z.tobytes() == latent_row([], 1.0).tobytes()
    assert kernel_reasons(z) == (InvalidReason.TOO_FEW_VERTICES,)


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
    '{"edges":[{"kind":["line"],"x":0,"y":0,"bulge":0}],"depth":0.5}':
        "edges[0].kind: expected 'line' or 'arc', got ['line']",
}


@pytest.mark.parametrize("text", list(MALFORMED_RECORDS))
def test_parse_malformed_records(text):
    with pytest.raises(ConfigError, match=re.escape(MALFORMED_RECORDS[text])):
        parse_sequence(text)


def test_serialize_carries_bulge():
    z = latent_row([(0, 0), (0.5, 0.5, 0.3), (0, 0.5)], 0.25)
    assert '"bulge":0.3' in serialize_sequence(z)


@given(command_sequences())
@settings(max_examples=300)
def test_parse_serialize_roundtrip(seq):
    # record -> row -> record, against the former encoder and record writer
    record = record_from_sequence(seq)
    z = row_from_record(json.loads(json.dumps(record)))
    assert z.tobytes() == encode(seq).tobytes()
    assert serialize_sequence(z) == json.dumps(record, separators=(",", ":"))


# ---------------------------------------------------------------- canonical rows

# coordinates drawn often from three values, so that targets tie on x
TIED_COORDS = st.one_of(st.sampled_from([-0.5, 0.0, 0.5]), st.floats(-1.0, 1.0))


@given(
    command_sequences(
        coord=TIED_COORDS, bulge=st.floats(-1.0, 1.0), depth=st.floats(0.1, 0.9), min_edges=3
    )
)
# clockwise with an arc, and two targets on x = 0 and two on x = 1
@example(((line(0, 0), line(0, 1), arc(1, 1, 0.5), line(1, 0)), 0.5))
# clockwise, five edges, two arcs and a tie on the smallest x
@example(
    (
        (arc(0.5, 0.5, -0.3), line(0.5, -0.5), line(-0.5, -0.5), arc(-0.5, 0.5, 0.9), line(0, 0.9)),
        0.3,
    )
)
@settings(max_examples=300, deadline=None)
def test_canonical_row_equals_the_former_canonicaliser(seq):
    want = encode(canonicalize_sequence(seq))
    assert canonical_row(encode(seq)).tobytes() == want.tobytes()


def test_canonical_row_on_the_former_draws():
    # the former ground-truth draws, valid or not; the premise: many are
    # clockwise with an arc, and they have 3, 4 and 5 edges
    rng = np.random.default_rng(31)
    clockwise_arcs, counts = 0, set()
    for _ in range(2000):
        seq = random_sequence(rng)
        z = encode(seq)
        assert canonical_row(z).tobytes() == encode(canonicalize_sequence(seq)).tobytes()
        edges, _ = seq
        counts.add(len(edges))
        is_arc = any(kind == "arc" for kind, *_ in edges)
        clockwise_arcs += is_arc and polygon_area(profile(z)) < 0.0
    assert counts == {3, 4, 5}
    assert clockwise_arcs > 200


def test_canonical_row_examples_are_clockwise():
    # the premise of the property's two examples
    for edges in (
        [(0, 0), (0, 1), (1, 1, 0.5), (1, 0)],
        [(0.5, 0.5, -0.3), (0.5, -0.5), (-0.5, -0.5), (-0.5, 0.5, 0.9), (0, 0.9)],
    ):
        z = latent_row(edges, 0.5)
        assert polygon_area(profile(z)) < 0.0
        again = canonical_row(z)
        assert polygon_area(profile(again)) > 0.0
        assert canonical_row(again).tobytes() == again.tobytes()


def test_ground_truth_rows_are_their_own_canonical_rows():
    _, latents = gen_ground_truth(50, seed=4)
    for z in latents:
        assert canonical_row(z).tobytes() == z.tobytes()


# ---------------------------------------------------------------- discretization


def test_square_discretizes_to_four_vertices():
    poly = profile(square())
    assert poly.shape == (4, 2)
    np.testing.assert_array_equal(poly, [[0, 0], [1, 0], [1, 1], [0, 1]])


def test_semicircle_midpoint_sagitta():
    # bulge 1 = semicircle: the middle intermediate point sits at chord/2
    # from the chord midpoint (sagitta = bulge * chord / 2).
    poly = profile(latent_row([(0, 0), (1, 0, 1.0)], 0.5))
    assert poly.shape == (1 + ARC_SEGMENTS, 2)
    mid = poly[ARC_SEGMENTS // 2]
    chord_mid = np.array([0.5, 0.0])
    assert math.isclose(np.linalg.norm(mid - chord_mid), 0.5, rel_tol=1e-12)


def test_zero_bulge_arc_equals_line():
    arcs = latent_row([(0, 0), (1.0, 0.0, 0.0), (1, 1)], 0.5)
    lines = latent_row([(0, 0), (1, 0), (1, 1)], 0.5)
    np.testing.assert_array_equal(profile(arcs), profile(lines))


def test_arc_points_lie_on_circle():
    poly = profile(latent_row([(0, 0), (1, 0, 0.5)], 0.5))
    arc_pts = poly[1:]
    # center for bulge 0.5 over the unit chord: (0.5, 0.375), radius 0.625
    center = np.array([0.5, 0.375])
    radii = np.linalg.norm(arc_pts - center, axis=1)
    np.testing.assert_allclose(radii, 0.625, atol=1e-12)


def test_arc_segments_count():
    assert profile(latent_row([(0, 0), (1, 0, 0.4)], 0.5)).shape == (1 + ARC_SEGMENTS, 2)


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


def test_cached_edge_pairs_are_the_oracle_pairs_in_its_order_and_read_only():
    # the cached orientation tests of edges a-b and c-d, per pair (a, c)
    for n in (3, 4, 5, 17, geometry.MAX_EDGES * ARC_SEGMENTS, 300):
        triples = geometry._orientation_triples(n)
        (a, _, c, _), (b, _, d, _), _ = triples.tolist()
        expected = [
            (i, j) for i in range(n) for j in range(i + 2, n) if not (i == 0 and j == n - 1)
        ]
        assert list(zip(a, c)) == expected, n
        assert b == [i + 1 for i in a] and d == [(j + 1) % n for j in c]
        assert triples.tolist() == [[a, a, c, c], [b, b, d, d], [c, d, a, b]]
        assert geometry._orientation_triples(n) is triples
        with pytest.raises(ValueError):
            triples[...] = 0


@given(st.integers(0, 2**32 - 1), st.integers(3, 32))
@settings(max_examples=150, deadline=None)
def test_self_intersects_matches_oracle_property(seed, n):
    poly = np.random.default_rng(seed).uniform(-1, 1, size=(n, 2))
    assert self_intersects(poly) == self_intersects_oracle(poly)


# ---------------------------------------------------------------- kernel


def test_square_is_valid():
    assert kernel_reasons(square()) == ()


def test_negative_depth():
    assert kernel_reasons(square(depth=-0.1)) == (InvalidReason.DEPTH_NON_POSITIVE,)


def test_depth_too_large():
    assert kernel_reasons(square(depth=1.5)) == (InvalidReason.DEPTH_TOO_LARGE,)
    assert kernel_reasons(square(depth=1.0)) == ()  # boundary included


def test_bowtie_reports_self_intersection():
    assert InvalidReason.SELF_INTERSECTION in kernel_reasons(bowtie())


def test_too_few_vertices():
    z = latent_row([(0, 0), (1, 0)], 0.5)
    assert InvalidReason.TOO_FEW_VERTICES in kernel_reasons(z)


def test_out_of_bounds():
    z = latent_row([(0, 0), (1.5, 0), (1, 1)], 0.5)
    assert InvalidReason.OUT_OF_BOUNDS in kernel_reasons(z)


def test_bulge_out_of_range():
    z = latent_row([(0, 0), (1, 0, 1.25), (1, 1)], 0.5)
    assert InvalidReason.BULGE_OUT_OF_RANGE in kernel_reasons(z)
    ok = latent_row([(0, 0), (1, 0, 1.0), (1, 1)], 0.5)
    assert InvalidReason.BULGE_OUT_OF_RANGE not in kernel_reasons(ok)


def test_degenerate_adjacent_vertices():
    reasons = kernel_reasons(latent_row([(0, 0), (0, 5e-4), (1, 1)], 0.5))
    assert InvalidReason.DEGENERATE_ADJACENT_VERTICES in reasons
    # polygon checks are skipped for degenerate input
    assert InvalidReason.SELF_INTERSECTION not in reasons


def test_near_zero_area():
    z = latent_row([(0, 0), (1, 0), (0.5, 1e-4)], 0.5)
    assert InvalidReason.NEAR_ZERO_AREA in kernel_reasons(z)


def test_multiple_reasons_reported_sorted():
    z = latent_row([(0, 0), (1.5, 0)], -1.0)
    assert kernel_reasons(z) == (
        InvalidReason.TOO_FEW_VERTICES,
        InvalidReason.OUT_OF_BOUNDS,
        InvalidReason.DEPTH_NON_POSITIVE,
    )


@pytest.mark.parametrize(
    "z",
    [
        latent_row([(0, 0), (math.inf, 0), (1, 1)], 0.5),
        latent_row([(0, 0), (-math.inf, math.inf), (math.inf, 1)], 0.5),
        latent_row([(0, 0), (1, 0, math.nan), (1, 1)], 0.5),
        latent_row([(0, 0), (1, 0), (1, 1)], math.inf),
    ],
    ids=["inf-target", "adjacent-inf-targets", "nan-bulge", "inf-depth"],
)
def test_non_finite_values_are_their_own_reason(z):
    # the separation and polygon checks are skipped, so no RuntimeWarning
    # (an error under pytest) comes from inf/NaN arithmetic
    reasons = kernel_reasons(z)
    assert InvalidReason.NON_FINITE in reasons
    assert InvalidReason.SELF_INTERSECTION not in reasons
    assert InvalidReason.NEAR_ZERO_AREA not in reasons
    # appended: the earlier codes keep their values
    assert [int(r) for r in InvalidReason] == list(range(9))
    assert InvalidReason.NON_FINITE == 8


@pytest.mark.parametrize(
    "z, reasons",
    [
        (
            latent_row([(0, 0), (1, 0, 1e200), (1, 1)], 0.5),
            (InvalidReason.BULGE_OUT_OF_RANGE,),
        ),
        (
            latent_row([(0, 0), (1.7e308, -1.7e308), (-1.7e308, 1)], 0.5),
            (InvalidReason.OUT_OF_BOUNDS,),
        ),
        (
            latent_row([(-1e200, 0), (1e200, 0), (1e200, 1e200)], 0.5),
            (InvalidReason.OUT_OF_BOUNDS,),
        ),
    ],
    ids=["bulge-1e200", "targets-1.7e308", "targets-1e200"],
)
def test_huge_finite_values_skip_the_polygon_checks(z, reasons):
    # their separation and polygon arithmetic would overflow, which is a
    # RuntimeWarning and so an error under pytest
    assert kernel_reasons(z) == reasons


@given(command_sequences(coord=st.floats(-3, 3, allow_nan=False), bulge=st.floats(-3, 3, allow_nan=False), depth=st.floats(-2, 2, allow_nan=False)))
@settings(max_examples=300, deadline=None)
def test_kernel_total_deterministic_valid_iff_no_reasons(seq):
    (first,) = check_latents(encode(seq)[None])
    (second,) = check_latents(encode(seq)[None])
    assert first == second
    assert (first == 0) == (reason_names(int(first)) == "")


# ---------------------------------------------------------------- block kernel


def oracle_arc_points(start, end, bulge):
    """The arc points of the former per-sequence kernel, as (x, y) tuples."""
    x0, y0 = float(start[0]), float(start[1])
    x1, y1 = float(end[0]), float(end[1])
    chord = math.hypot(x1 - x0, y1 - y0)
    if abs(bulge) < 1e-12:
        return [(x1, y1)]
    if chord == 0.0:
        return [(x1, y1)] * ARC_SEGMENTS
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


def oracle_profile(seq):
    """The discretized profile of the former per-sequence kernel."""
    edges, _ = seq
    targets = [(x, y) for _, x, y, _ in edges]
    pts = []
    for i, (kind, x, y, bulge) in enumerate(edges):
        if kind == "arc":
            pts.extend(oracle_arc_points(targets[i - 1], (x, y), bulge))
        else:
            pts.append((x, y))
    return np.array(pts, dtype=float).reshape(-1, 2)


def oracle_kernel_check(seq):
    """The former kernel: every rule applied to one sequence at a time, with
    the pair-by-pair self-intersection oracle above."""
    edges, depth = seq
    reasons = set()
    n = len(edges)
    if n < 3:
        reasons.add(InvalidReason.TOO_FEW_VERTICES)
    values = [v for _, x, y, bulge in edges for v in (x, y, bulge)]
    finite = math.isfinite(depth) and all(math.isfinite(v) for v in values)
    if not finite:
        reasons.add(InvalidReason.NON_FINITE)
    measurable = finite and all(abs(v) <= 1e50 for v in values)
    for kind, x, y, bulge in edges:
        if not (abs(x) <= 1.0 and abs(y) <= 1.0):
            reasons.add(InvalidReason.OUT_OF_BOUNDS)
        if kind == "arc" and not abs(bulge) <= 1.0:
            reasons.add(InvalidReason.BULGE_OUT_OF_RANGE)
    if n >= 2 and measurable:
        targets = np.array([(x, y) for _, x, y, _ in edges], dtype=float)
        gaps = np.hypot(*(targets - np.concatenate((targets[1:], targets[:1]))).T)
        if not bool((gaps >= 1e-3).all()):
            reasons.add(InvalidReason.DEGENERATE_ADJACENT_VERTICES)
    if n >= 3 and measurable and InvalidReason.DEGENERATE_ADJACENT_VERTICES not in reasons:
        poly = oracle_profile(seq)
        if self_intersects_oracle(poly):
            reasons.add(InvalidReason.SELF_INTERSECTION)
        if not abs(polygon_area(poly)) >= 1e-3:
            reasons.add(InvalidReason.NEAR_ZERO_AREA)
    if not depth > 0:
        reasons.add(InvalidReason.DEPTH_NON_POSITIVE)
    elif not depth <= 1.0:
        reasons.add(InvalidReason.DEPTH_TOO_LARGE)
    return sum(1 << r for r in reasons)


def oracle_masks(latents):
    return np.array([oracle_kernel_check(oracle_decode(z)) for z in latents], dtype=np.uint16)


# exact values at every threshold: channels at 0 and 0.5, coordinates and
# bulges at 1, gaps of exactly 1e-3, bulges at 1e-12, values at the 1e50 limit
# of the polygon checks, and NaN, inf and 1e60
SPECIAL_VALUES = [math.nan, math.inf, -math.inf, 1e60, -1e60, 1e50, 0.0, -0.0, 1.0, -1.0]
CHANNELS = st.one_of(
    st.sampled_from([0.25, 0.75, 0.0, 0.5, -0.5, *SPECIAL_VALUES]), st.floats(-0.5, 1.5)
)
# binary fractions put vertices exactly on other edges and their lines
COORDS = st.one_of(
    st.sampled_from([0.0, 1e-3, -1e-3, 0.25, -0.25, 0.5, -0.5, 0.75, *SPECIAL_VALUES]),
    st.floats(-1.25, 1.25),
)
BULGES = st.one_of(
    st.sampled_from([0.0, 1e-12, -1e-12, 1e-13, 0.5, -0.5, *SPECIAL_VALUES]),
    st.floats(-1.5, 1.5),
)
DEPTHS = st.one_of(st.sampled_from([0.0, 1.0, 0.5, *SPECIAL_VALUES]), st.floats(-0.5, 1.5))


@st.composite
def latent_rows(draw):
    slots = [(draw(CHANNELS), draw(COORDS), draw(COORDS), draw(BULGES)) for _ in range(5)]
    return np.array([v for slot in slots for v in slot] + [draw(DEPTHS)])


def random_latent_rows(seed, n):
    """Latent rows of every kind: mostly near-valid profiles, with exact
    threshold values and NaN, inf and 1e60 put in at random."""
    rng = np.random.default_rng(seed)
    rows = np.empty((n, LATENT_DIM))
    channels = [0.25, 0.75, -0.5, 0.0, 0.5]
    rows[:, 0:20:4] = rng.choice(channels, size=(n, 5), p=[0.5, 0.3, 0.1, 0.05, 0.05])
    rows[:, 1:20:4] = rng.uniform(-1.1, 1.1, size=(n, 5))
    rows[:, 2:20:4] = rng.uniform(-1.1, 1.1, size=(n, 5))
    rows[:, 3:20:4] = rng.uniform(-1.2, 1.2, size=(n, 5))
    rows[:, 20] = rng.uniform(-0.1, 1.1, size=n)
    snap = rng.random(n) < 0.3
    rows[snap, 1:20] = np.round(rows[snap, 1:20] * 4) / 4
    special = rng.random((n, LATENT_DIM)) < 0.02
    rows[special] = rng.choice(SPECIAL_VALUES + [1e-12, 1e-3], size=int(special.sum()))
    return rows


@given(latent_rows())
@example(latent_row([(0.25, 0, 0, 0), (0.25, 1e-3, 0, 0), (0.25, 1e-3, 1, 0)], 0.5))  # gap 1e-3
@example(latent_row([(0.25, 0, 0, 0), (0.25, 5e-4, 0, 0), (0.25, 1, 1, 0)], 0.5))  # gap below it
@example(latent_row([(0.25, 0, 0, 0), (0.25, 1, 0, 0), (0.25, 0.5, 0, 0), (0.25, 0.5, 1, 0)], 0.5))
@example(latent_row([(0.25, -1, -1, 0), (0.75, 1, -1, 1), (0.75, 1, 1, -1), (0.25, -1, 1, 0)], 1.0))
@example(latent_row([(0.25, 0, 0, 0), (0.75, 1, 0, 1e-12), (0.5, 1, 1, 3), (0.75, 0, 1, 1e-13)], 0))
@example(latent_row([(0.75, 0, 0, 0.5), (0.75, 0, 0, 0.5), (0.25, 1, 1, 0)], 0.5))  # zero chord
@example(latent_row([(0.25, 0, 0, 0), (0.25, 1, 0, 0), (math.nan, 1, 1, 0)], 0.5))
@example(latent_row([(0.25, 0, 0, 0), (0.25, 1e60, 0, math.nan), (0.75, 1, 1, math.inf)], 0.5))
@example(latent_row([(0.25, 0, 0, 0), (0.25, 1, 0, 0), (0.25, 1, 1, 0)], math.nan))
@settings(deadline=None)  # max_examples comes from the profile (conftest.py)
def test_check_latents_equals_oracle_on_arbitrary_rows(z):
    (mask,) = check_latents(z[None])
    assert mask == oracle_masks([z])[0]


def test_check_latents_equals_oracle_on_a_random_block():
    rows = random_latent_rows(0, 3000)
    masks = check_latents(rows)
    assert masks.dtype == np.uint16 and masks.shape == (3000,)
    np.testing.assert_array_equal(masks, oracle_masks(rows))
    # the premise: every rule fires, and a fair share of rows is valid
    for reason in InvalidReason:
        assert ((masks >> reason) & 1).any(), reason
    assert (masks == 0).mean() > 0.05


def test_check_latents_masks_do_not_depend_on_the_split(monkeypatch):
    rows = random_latent_rows(1, 500)
    whole = check_latents(rows)
    for size in (1, 7, 64):
        parts = [check_latents(rows[lo : lo + size]) for lo in range(0, len(rows), size)]
        np.testing.assert_array_equal(np.concatenate(parts), whole)
    # seven edge pairs per orientation pass, and one pass for the whole block
    for pairs in (7, 10**9):
        monkeypatch.setattr(geometry, "_PAIR_SLICE", pairs)
        np.testing.assert_array_equal(check_latents(rows), whole)


def test_orientation_pass_holds_a_bounded_slice_of_pairs(monkeypatch):
    # the block has many more pairs than a slice, and some polygons do too
    pairs = []
    take = np.take

    def spy(vertices, index, axis):
        pairs.append(index.shape[-1])
        return take(vertices, index, axis=axis)

    rows = random_latent_rows(2, 300)
    expected = check_latents(rows)
    monkeypatch.setattr(geometry.np, "take", spy)
    monkeypatch.setattr(geometry, "_PAIR_SLICE", 300)
    masks = check_latents(rows)
    monkeypatch.undo()
    assert len(pairs) > 10 and max(pairs) == 300
    np.testing.assert_array_equal(masks, expected)


def test_check_latents_of_no_rows_and_of_bad_shapes():
    assert check_latents(np.zeros((0, LATENT_DIM))).shape == (0,)
    for shape in ((LATENT_DIM,), (2, LATENT_DIM - 1)):
        with pytest.raises(ValueError, match="latents must be"):
            check_latents(np.zeros(shape))


def test_mask_bits_are_the_reason_values():
    z = latent_row([(0.25, 0, 0, 0), (0.25, 1.5, 0, 0)], -1.0)
    (mask,) = check_latents(z[None])
    reasons = (
        InvalidReason.TOO_FEW_VERTICES,
        InvalidReason.OUT_OF_BOUNDS,
        InvalidReason.DEPTH_NON_POSITIVE,
    )
    assert mask == sum(1 << r for r in reasons)
    assert reason_names(int(mask)) == "TOO_FEW_VERTICES|OUT_OF_BOUNDS|DEPTH_NON_POSITIVE"
    assert reason_names(0) == ""


@given(command_sequences(coord=st.floats(-1.5, 1.5), bulge=BULGES.filter(math.isfinite)))
@example(((line(0, 0), arc(0, 0, 0.5), line(1, 1)), 0.5))  # zero chord
@example(((line(0, 0), arc(1, 0, 1e-12), arc(1, 1, -1e-13)), 0.5))
@settings(max_examples=300, deadline=None)
def test_row_profile_equals_oracle_bitwise(seq):
    z = encode(seq)
    assert profile(z).tobytes() == oracle_profile(oracle_decode(z)).tobytes()


@given(command_sequences(coord=st.floats(-1.5, 1.5), bulge=BULGES, depth=DEPTHS))
@settings(max_examples=300, deadline=None)
def test_block_kernel_on_the_encoded_row_is_the_oracle(seq):
    z = encode(seq)
    assert check_latents(z[None])[0] == oracle_kernel_check(oracle_decode(z))


# ---------------------------------------------------------------- point sampling


def test_cloud_inside_unit_box():
    cloud = sample_point_cloud(square(depth=1.0), 1000, seed=3)
    assert cloud.shape == (1000, 3)
    assert (cloud >= 0).all() and (cloud <= 1).all()


def test_cloud_deterministic():
    z = square()
    a = sample_point_cloud(z, 256, seed=42)
    b = sample_point_cloud(z, 256, seed=42)
    np.testing.assert_array_equal(a, b)
    c = sample_point_cloud(z, 256, seed=43)
    assert not np.array_equal(a, c)


def test_cloud_rejects_infeasible():
    with pytest.raises(ValueError, match="latent row fails kernel checks: DEPTH_NON_POSITIVE$"):
        sample_point_cloud(square(depth=-1.0), 10, seed=0)


def test_invalid_row_is_a_value_error_naming_its_reasons():
    # two slots, the second out of bounds, and a negative depth
    z = latent_row([(0.25, 0, 0, 0), (0.25, 1.5, 0, 0)], -1.0)
    message = "latent row fails kernel checks: TOO_FEW_VERTICES|OUT_OF_BOUNDS|DEPTH_NON_POSITIVE"
    for make in (lambda: sample_point_cloud(z, 16, 0), lambda: condition_descriptor(z)):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message


def test_triangle_cloud_statistics():
    depth = 0.8
    n = 100_000
    cloud = sample_point_cloud(latent_row([(0, 0), (1, 0), (0, 1)], depth), n, seed=7)
    xy = cloud[:, :2]
    assert ((xy[:, 0] + xy[:, 1]) < 1.0 + 1e-12).mean() > 0.9999
    mean_z = cloud[:, 2].mean()
    se = depth / math.sqrt(12.0 * n)
    assert abs(mean_z - depth / 2.0) < 3.0 * se


def full_chunk_point_cloud(seq, n, seed):
    """The former sampler on the former profile of a sequence: every proposal
    of every chunk is tested."""
    _, depth = seq
    poly = oracle_profile(seq)
    rng = np.random.default_rng(seed)
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    chunks, accepted = [], 0
    while accepted < n:
        proposals = rng.uniform(lo, hi, size=(geometry._PROPOSAL_CHUNK, 2))
        hits = proposals[points_in_polygon(proposals, poly)]
        chunks.append(hits)
        accepted += len(hits)
    xy = np.concatenate(chunks)[:n]
    z = rng.uniform(0.0, depth, n)
    return np.column_stack([xy, z])


# a diagonal strip covering 5% of its bounding box: about 410 hits per chunk
THIN_STRIP = latent_row([(-1, -1), (1, 0.9), (1, 1), (-1, -0.9)], 0.3)


@pytest.mark.parametrize("n", [1, 16, 512])
@pytest.mark.parametrize(
    "z",
    [
        square(),
        latent_row([(0, 0), (0.8, 0), (0.8, 0.6, 0.7), (0, 0.6)], 0.9),
        THIN_STRIP,
    ],
    ids=["square", "arc", "thin-strip"],
)
def test_cloud_equals_full_chunk_sampler_bitwise(z, n):
    for seed in (0, 7, 12345):
        expected = full_chunk_point_cloud(oracle_decode(z), n, seed)
        assert sample_point_cloud(z, n, seed).tobytes() == expected.tobytes()


def test_live_stall_check_counts_the_whole_chunk(monkeypatch):
    # a square fills its bounding box, so the chunk's 8192 hits pass this rate;
    # the hits of the first slice alone would read as a stall
    monkeypatch.setattr(geometry, "_STALL_PROPOSALS", 1)
    monkeypatch.setattr(geometry, "_STALL_RATE", 0.5)
    expected = full_chunk_point_cloud(oracle_decode(square()), 16, 0)
    assert sample_point_cloud(square(), 16, 0).tobytes() == expected.tobytes()


def test_thin_strip_needs_a_second_chunk_at_512_points():
    # the premise of the thin-strip case above
    poly = profile(THIN_STRIP)
    for seed in (0, 7, 12345):
        rng = np.random.default_rng(seed)
        lo, hi = poly.min(axis=0), poly.max(axis=0)
        first = rng.uniform(lo, hi, size=(geometry._PROPOSAL_CHUNK, 2))
        assert points_in_polygon(first, poly).sum() < 512


def oracle_descriptor(seq):
    """The former condition descriptor of a sequence, on its former profile."""
    edges, depth = seq
    poly = oracle_profile(seq)
    area = polygon_area(poly)
    nxt = np.concatenate((poly[1:], poly[:1]))
    perimeter = float(np.hypot(*(nxt - poly).T).sum())
    cross = poly[:, 0] * nxt[:, 1] - nxt[:, 0] * poly[:, 1]
    cx = float(((poly[:, 0] + nxt[:, 0]) * cross).sum() / (6.0 * area))
    cy = float(((poly[:, 1] + nxt[:, 1]) * cross).sum() / (6.0 * area))
    width, height = (poly.max(axis=0) - poly.min(axis=0)).tolist()
    count = len(edges) / MAX_EDGES
    return np.array([count, abs(area), perimeter, cx, cy, width, height, depth])


def decoder_rows():
    """Ground-truth latents, and copies of them: with a bulge in every line
    slot's bulge channel; with every arc channel at exactly 0.5, a line, and
    every inactive channel at exactly 0; and with the last active channel at
    exactly 0, which drops that edge."""
    rng = np.random.default_rng(29)
    base = np.concatenate([gen_ground_truth(10, seed)[1] for seed in (2, 3, 7)])
    channels = base[:, 0:-1:SLOT_WIDTH]
    bulged = base.copy()
    lines = channels == CANONICAL_LINE
    bulged[:, 3:-1:SLOT_WIDTH][lines] = rng.uniform(-0.9, 0.9, int(lines.sum()))
    on_thresholds = base.copy()
    on_thresholds[:, 0:-1:SLOT_WIDTH] = np.select(
        [channels == CANONICAL_ARC, channels == CANONICAL_INACTIVE],
        [KIND_THRESHOLD, ACTIVITY_THRESHOLD],
        channels,
    )
    cut = base.copy()
    cut[np.arange(len(cut)), SLOT_WIDTH * ((channels > 0).sum(axis=1) - 1)] = ACTIVITY_THRESHOLD
    return np.concatenate([base, bulged, on_thresholds, cut])


def test_decoder_rows_cover_the_decode_rule():
    # the premise of the two tests below
    rows = decoder_rows()
    base, bulged, on_thresholds, cut = np.split(rows, 4)
    assert (bulged != base).any(axis=1).mean() > 0.9
    assert ((base[:, 0:-1:SLOT_WIDTH] == CANONICAL_ARC).any(axis=1)).mean() > 0.5
    # a line's bulge channel is ignored, and some rows fail the kernel
    masks = oracle_masks(rows)
    assert (masks[: 2 * len(base)] == 0).all() and (masks != 0).any()
    for part in np.split(masks, 4):
        assert (part == 0).mean() > 0.3


@pytest.mark.parametrize("n", [1, 16, 512])
def test_cloud_of_a_row_equals_the_former_sequence_path_bitwise(n):
    # the former path decoded the row to a sequence and sampled its profile
    for seed, row in enumerate(decoder_rows()):
        if oracle_masks([row])[0]:
            with pytest.raises(ValueError, match="latent row fails kernel checks"):
                sample_point_cloud(row, n, seed)
            continue
        expected = full_chunk_point_cloud(oracle_decode(row), n, seed)
        assert sample_point_cloud(row, n, seed).tobytes() == expected.tobytes()


def test_descriptor_of_a_row_equals_the_former_sequence_path_bitwise():
    for row in decoder_rows():
        if oracle_masks([row])[0]:
            with pytest.raises(ValueError, match="latent row fails kernel checks"):
                condition_descriptor(row)
            continue
        expected = oracle_descriptor(oracle_decode(row))
        assert condition_descriptor(row).tobytes() == expected.tobytes()


def test_points_in_polygon_even_odd():
    poly = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    pts = np.array([[0.5, 0.5], [1.5, 0.5], [-0.1, 0.2], [0.25, 0.99]])
    np.testing.assert_array_equal(points_in_polygon(pts, poly), [True, False, False, True])


def loop_points_in_polygon(points, polygon):
    """The former test: one pass of five numpy calls per polygon edge."""
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


def polygon_cases():
    rng = np.random.default_rng(21)
    yield "triangle", profile(latent_row([(0, 0), (1, 0), (0, 1)], 0.5))
    yield "arc", profile(
        latent_row([(0, 0), (0.8, 0), (0.8, 0.6, 0.7), (0, 0.6)], 0.9)
    )
    yield "arcs", profile(
        latent_row([(0.5, -0.2, 0.4), (0.6, 0.7, -0.3), (-0.4, 0.1, 0.9)], 0.5)
    )
    yield "bowtie", profile(bowtie())
    yield "star", random_simple_polygon(rng, 40)


@pytest.mark.parametrize("block", [geometry._POLYGON_BLOCK, 1, 7 * 64])
@pytest.mark.parametrize("case", list(polygon_cases()), ids=lambda case: case[0])
def test_points_in_polygon_equals_the_edge_loop_bitwise(case, block, monkeypatch):
    # blocks of 1 and 7 edges (at 64 points) split the polygon's edges
    monkeypatch.setattr(geometry, "_POLYGON_BLOCK", block)
    _, poly = case
    rng = np.random.default_rng(len(poly))
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    on_edges = poly + rng.uniform(0.0, 1.0, (len(poly), 1)) * (np.roll(poly, -1, axis=0) - poly)
    for pts in (
        rng.uniform(lo - 0.1, hi + 0.1, size=(64, 2)),
        rng.uniform(lo, hi, size=(1024, 2)),
        poly,  # every vertex
        on_edges,  # a point on every edge
        np.column_stack([rng.uniform(lo[0], hi[0], len(poly)), poly[:, 1]]),  # at vertex heights
    ):
        assert points_in_polygon(pts, poly).tobytes() == loop_points_in_polygon(pts, poly).tobytes()
