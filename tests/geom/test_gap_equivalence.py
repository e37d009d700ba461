"""Bit-identity of the gap kernels against their plain reference forms.

The corner-to-edge ``_obb_gap`` and the circle-rejecting
``min_footprint_gap`` are speed-ups that must return exactly the floats the
plain loops they replaced returned: ``results/evaluation.txt`` depends on
every bit.  Results are compared with ``float.hex`` (bit for bit, sign of
zero included).
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geom import (
    OBB,
    Circle,
    Vec2,
    footprint_gap,
    min_footprint_gap,
    obb_overlaps_obb,
)
from repro.geom.shapes import _obb_gap


def _ref_point_segment_distance(px, py, ax, ay, bx, by):
    segx, segy = bx - ax, by - ay
    seg_len_sq = segx * segx + segy * segy
    if seg_len_sq == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * segx + (py - ay) * segy) / seg_len_sq))
    return math.hypot(px - (ax + segx * t), py - (ay + segy * t))


def _ref_segment_distance(p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y):
    px, py = p2x - p1x, p2y - p1y
    qx, qy = q2x - q1x, q2y - q1y
    d1 = px * (q1y - p1y) - py * (q1x - p1x)
    d2 = px * (q2y - p1y) - py * (q2x - p1x)
    d3 = qx * (p1y - q1y) - qy * (p1x - q1x)
    d4 = qx * (p2y - q1y) - qy * (p2x - q1x)
    if d1 * d2 < 0.0 and d3 * d4 < 0.0:
        return 0.0
    return min(
        _ref_point_segment_distance(q1x, q1y, p1x, p1y, p2x, p2y),
        _ref_point_segment_distance(q2x, q2y, p1x, p1y, p2x, p2y),
        _ref_point_segment_distance(p1x, p1y, q1x, q1y, q2x, q2y),
        _ref_point_segment_distance(p2x, p2y, q1x, q1y, q2x, q2y),
    )


def _ref_corner_coords(box):
    fx, fy = math.cos(box.heading), math.sin(box.heading)
    cx, cy = box.center.x, box.center.y
    dxx, dxy = fx * box.half_length, fy * box.half_length
    dyx, dyy = -fy * box.half_width, fx * box.half_width
    return (
        (cx + dxx) + dyx, (cy + dxy) + dyy,
        (cx - dxx) + dyx, (cy - dxy) + dyy,
        (cx - dxx) - dyx, (cy - dxy) - dyy,
        (cx + dxx) - dyx, (cy + dxy) - dyy,
    )


def reference_obb_gap(a: OBB, b: OBB) -> float:
    """The 16 edge-pair form the kernel replaced: the minimum over every
    pair of box edges of the segment distance (0 when the segments cross,
    or when the boxes overlap), with edge-midpoint pruning."""
    if obb_overlaps_obb(a, b):
        return 0.0
    ca, cb = _ref_corner_coords(a), _ref_corner_coords(b)
    half_a = (a.half_length, a.half_width, a.half_length, a.half_width)
    half_b = (b.half_length, b.half_width, b.half_length, b.half_width)
    best = math.inf
    for i in (0, 2, 4, 6):
        ni = (i + 2) % 8
        p1x, p1y, p2x, p2y = ca[i], ca[i + 1], ca[ni], ca[ni + 1]
        mix, miy = (p1x + p2x) / 2.0, (p1y + p2y) / 2.0
        for j in (0, 2, 4, 6):
            nj = (j + 2) % 8
            q1x, q1y, q2x, q2y = cb[j], cb[j + 1], cb[nj], cb[nj + 1]
            bound = (
                math.hypot(mix - (q1x + q2x) / 2.0, miy - (q1y + q2y) / 2.0)
                - half_a[i // 2]
                - half_b[j // 2]
            )
            if bound - 1e-9 > best:
                continue
            best = min(best, _ref_segment_distance(p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y))
    return best


def bits(value: float) -> str:
    return value.hex()


coords = st.floats(min_value=-60.0, max_value=60.0, allow_nan=False)
extents = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)
headings = st.one_of(
    st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
    # Axis-aligned boxes: parallel edges, exactly collinear corners.
    st.sampled_from([0.0, math.pi / 2.0, math.pi, -math.pi / 2.0, -math.pi]),
)


@st.composite
def boxes(draw):
    return OBB(Vec2(draw(coords), draw(coords)), draw(headings), draw(extents), draw(extents))


@st.composite
def box_pairs(draw):
    """Independent, overlapping and near-touching box pairs."""
    a = draw(boxes())
    mode = draw(st.sampled_from(["free", "overlap", "touch"]))
    heading = draw(headings)
    hl, hw = draw(extents), draw(extents)
    if mode == "free":
        return a, draw(boxes())
    if mode == "overlap":
        offset = Vec2(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
        return a, OBB(a.center + offset, heading, hl, hw)
    # Near-touching: b's centre a hair off the touching distance along one
    # of a's axes, with b aligned, slightly rotated or perpendicular.
    axis = draw(st.sampled_from([0, 1]))
    forward, left = a.axes
    direction = forward if axis == 0 else left
    reach = (a.half_length if axis == 0 else a.half_width) + hl
    eps = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6, -1e-12, -1e-9]))
    turn = draw(st.sampled_from([0.0, 1e-12, 1e-6, 0.05, -0.05]))
    side = draw(st.floats(-1.0, 1.0))
    center = a.center + direction * (reach + eps) + direction.perpendicular() * side
    return a, OBB(center, a.heading + turn, hl, hw)


class TestObbGapKernel:
    @settings(max_examples=400)
    @given(box_pairs())
    @example((OBB(Vec2(0, 0), 0.0, 2.25, 1.0), OBB(Vec2(0, 3.5), 0.0, 2.25, 1.0)))
    @example((OBB(Vec2(0, 0), 0.0, 2.25, 1.0), OBB(Vec2(4.5, 0), 0.0, 2.25, 1.0)))
    @example((OBB(Vec2(0, 0), 0.3, 2.25, 1.0), OBB(Vec2(3, 4), 1.9, 2.25, 1.0)))
    # Disjoint by the separating-axis test, 5.6e-17 m apart, yet one edge
    # pair's crossing test fires: the edge-pair form reports contact.
    @example((
        OBB(Vec2(0.0, 3.0), 1.1366411433271812, 1.0, 0.125),
        OBB(Vec2(0.8412882245399329, 4.814451466215189), 1.1366411433271812, 1.0, 1.0),
    ))
    def test_matches_sixteen_edge_pair_reference_bit_for_bit(self, pair):
        a, b = pair
        assert bits(_obb_gap(a, b)) == bits(reference_obb_gap(a, b))
        assert bits(_obb_gap(b, a)) == bits(reference_obb_gap(b, a))


@st.composite
def shapes(draw):
    center = Vec2(draw(st.floats(-25.0, 25.0)), draw(st.floats(-25.0, 25.0)))
    if draw(st.booleans()):
        return Circle(center, draw(st.floats(0.1, 1.0)))
    return OBB(center, draw(headings), draw(extents), draw(extents))


class TestMinFootprintGap:
    @given(shapes(), st.lists(shapes(), max_size=12))
    def test_equals_plain_min(self, ego, others):
        expected = min([math.inf] + [footprint_gap(ego, other) for other in others])
        assert bits(min_footprint_gap(ego, others)) == bits(expected)

    @given(shapes(), st.lists(shapes(), max_size=12), st.floats(0.0, 10.0))
    def test_extends_a_running_min(self, ego, others, stored):
        expected = stored
        for other in others:
            expected = min(expected, footprint_gap(ego, other))
        assert bits(min_footprint_gap(ego, others, stored)) == bits(expected)

    def test_far_pairs_skip_the_exact_gap(self, monkeypatch):
        import repro.geom.shapes as shapes_module

        calls = []
        exact = shapes_module.footprint_gap

        def counting(a, b):
            calls.append(b)
            return exact(a, b)

        monkeypatch.setattr(shapes_module, "footprint_gap", counting)
        ego = OBB(Vec2(0, 0), 0.0, 2.25, 1.0)
        near = OBB(Vec2(0, 3.5), 0.0, 2.25, 1.0)  # gap 1.5
        far = [Circle(Vec2(40, 0), 0.3), OBB(Vec2(0, -30), 1.0, 2.25, 1.0)]
        assert min_footprint_gap(ego, [near] + far) == 1.5
        assert calls == [near]

    def test_empty_scene_keeps_the_stored_min(self):
        ego = OBB(Vec2(0, 0), 0.0, 2.25, 1.0)
        assert min_footprint_gap(ego, []) == math.inf
        assert min_footprint_gap(ego, [], 2.5) == 2.5
