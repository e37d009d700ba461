"""Planar footprints and overlap tests.

Vehicles are modelled as oriented rectangles (OBBs) and pedestrians as
circles.  The simulator's ground-truth collision detector
(:mod:`repro.sim.collision`) and the geometric safety checks both use the
overlap predicates defined here, so the monitor and the ground truth share a
single, well-tested geometric vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Union

from .vec import Vec2


@dataclass(frozen=True)
class Circle:
    """A circular footprint (used for pedestrians and ghost obstacles)."""

    center: Vec2
    radius: float

    def contains(self, point: Vec2) -> bool:
        """True when ``point`` lies inside or on the circle boundary."""
        return self.center.distance_to(point) <= self.radius

    def translated(self, offset: Vec2) -> "Circle":
        """Circle moved by ``offset``."""
        return Circle(self.center + offset, self.radius)

    def bounding_radius(self) -> float:
        """The radius (the :class:`OBB` bounding-circle interface)."""
        return self.radius


@dataclass(frozen=True)
class OBB:
    """An oriented bounding box: ``center``, ``heading`` (radians) and
    half-extents along the local x (length) and y (width) axes.
    """

    center: Vec2
    heading: float
    half_length: float
    half_width: float

    @property
    def axes(self) -> "tuple[Vec2, Vec2]":
        """Local unit axes (forward, left) in world coordinates."""
        forward = Vec2.unit(self.heading)
        return forward, forward.perpendicular()

    def corners(self) -> List[Vec2]:
        """The four corners in counter-clockwise order."""
        forward, left = self.axes
        dx = forward * self.half_length
        dy = left * self.half_width
        return [
            self.center + dx + dy,
            self.center - dx + dy,
            self.center - dx - dy,
            self.center + dx - dy,
        ]

    def contains(self, point: Vec2) -> bool:
        """True when ``point`` lies inside or on the box boundary."""
        forward, left = self.axes
        rel = point - self.center
        return (
            abs(rel.dot(forward)) <= self.half_length + 1e-12
            and abs(rel.dot(left)) <= self.half_width + 1e-12
        )

    def translated(self, offset: Vec2) -> "OBB":
        """Box moved by ``offset`` (heading unchanged)."""
        return OBB(self.center + offset, self.heading, self.half_length, self.half_width)

    def inflated(self, margin: float) -> "OBB":
        """Box grown by ``margin`` on every side (safety buffers)."""
        return OBB(
            self.center,
            self.heading,
            self.half_length + margin,
            self.half_width + margin,
        )

    def bounding_radius(self) -> float:
        """Radius of the smallest circle centred on ``center`` containing the box."""
        return math.hypot(self.half_length, self.half_width)


Shape = Union[OBB, Circle]


def _project_obb(box: OBB, axis: Vec2) -> "tuple[float, float]":
    """Project an OBB onto a unit ``axis``; returns the (min, max) interval."""
    center = box.center.dot(axis)
    forward, left = box.axes
    extent = abs(forward.dot(axis)) * box.half_length + abs(left.dot(axis)) * box.half_width
    return center - extent, center + extent


def obb_overlaps_obb(a: OBB, b: OBB) -> bool:
    """Separating-axis overlap test between two oriented boxes.

    A cheap bounding-circle rejection runs first because in a sparse traffic
    scene almost all pairs are far apart.

    The body is the :func:`_project_obb` SAT loop with the vector algebra
    inlined on plain floats: this predicate (via :func:`footprint_gap`) is
    the simulator's hottest call, and the ~20 short-lived ``Vec2``
    instances per invocation dominated its cost.  Operation order matches
    the vector form exactly, keeping results bit-identical.
    """
    reach = a.bounding_radius() + b.bounding_radius()
    acx, acy = a.center.x, a.center.y
    bcx, bcy = b.center.x, b.center.y
    if math.hypot(acx - bcx, acy - bcy) > reach:
        return False
    afx, afy = math.cos(a.heading), math.sin(a.heading)
    bfx, bfy = math.cos(b.heading), math.sin(b.heading)
    ahl, ahw = a.half_length, a.half_width
    bhl, bhw = b.half_length, b.half_width
    # The four candidate axes: a.forward, a.left, b.forward, b.left
    # (left = forward rotated 90 degrees counter-clockwise).
    for ax, ay in ((afx, afy), (-afy, afx), (bfx, bfy), (-bfy, bfx)):
        acenter = acx * ax + acy * ay
        aextent = abs(afx * ax + afy * ay) * ahl + abs(-afy * ax + afx * ay) * ahw
        bcenter = bcx * ax + bcy * ay
        bextent = abs(bfx * ax + bfy * ay) * bhl + abs(-bfy * ax + bfx * ay) * bhw
        if acenter + aextent < bcenter - bextent or bcenter + bextent < acenter - aextent:
            return False
    return True


def obb_overlaps_circle(box: OBB, circle: Circle) -> bool:
    """True when an oriented box and a circle intersect."""
    fx, fy = math.cos(box.heading), math.sin(box.heading)
    cx, cy = box.center.x, box.center.y
    px, py = circle.center.x, circle.center.y
    relx, rely = px - cx, py - cy
    # Closest point on the box to the circle center, in local coordinates
    # (left axis = (-fy, fx), the forward axis rotated 90 degrees CCW).
    local_x = max(-box.half_length, min(box.half_length, relx * fx + rely * fy))
    local_y = max(-box.half_width, min(box.half_width, relx * -fy + rely * fx))
    closest_x = (cx + fx * local_x) + -fy * local_y
    closest_y = (cy + fy * local_x) + fx * local_y
    return math.hypot(closest_x - px, closest_y - py) <= circle.radius


def circle_overlaps_circle(a: Circle, b: Circle) -> bool:
    """True when two circles intersect."""
    return a.center.distance_to(b.center) <= a.radius + b.radius


def shapes_overlap(a: Shape, b: Shape) -> bool:
    """Dispatching overlap test for any pair of footprints."""
    if isinstance(a, OBB) and isinstance(b, OBB):
        return obb_overlaps_obb(a, b)
    if isinstance(a, OBB) and isinstance(b, Circle):
        return obb_overlaps_circle(a, b)
    if isinstance(a, Circle) and isinstance(b, OBB):
        return obb_overlaps_circle(b, a)
    if isinstance(a, Circle) and isinstance(b, Circle):
        return circle_overlaps_circle(a, b)
    raise TypeError(f"unsupported shape pair: {type(a).__name__}, {type(b).__name__}")


def separation_distance(a: Shape, b: Shape) -> float:
    """Conservative quick gap estimate (0 when overlapping).

    Centre distance minus bounding radii: exact for circle pairs, a lower
    bound for boxes.  Use :func:`footprint_gap` when exactness matters.
    """
    if shapes_overlap(a, b):
        return 0.0
    return max(0.0, a.center.distance_to(b.center) - a.bounding_radius() - b.bounding_radius())


def _point_segment_distance(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> float:
    """Distance from point ``p`` to segment ``ab`` on plain floats.

    ``p`` is measured against the point ``a + (b - a) * t`` with ``t`` the
    projection parameter clamped to ``[0, 1]``.  :func:`_obb_gap` inlines
    this body; the two must keep the same operation order.
    """
    segx, segy = bx - ax, by - ay
    seg_len_sq = segx * segx + segy * segy
    if seg_len_sq == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * segx + (py - ay) * segy) / seg_len_sq))
    return math.hypot(px - (ax + segx * t), py - (ay + segy * t))


def _segments_cross(
    p1x: float, p1y: float, p2x: float, p2y: float,
    q1x: float, q1y: float, q2x: float, q2y: float,
) -> bool:
    """True when each segment's endpoints lie strictly on opposite sides of
    the other's line (a proper crossing), on plain floats."""
    px, py = p2x - p1x, p2y - p1y
    qx, qy = q2x - q1x, q2y - q1y
    d1 = px * (q1y - p1y) - py * (q1x - p1x)
    d2 = px * (q2y - p1y) - py * (q2x - p1x)
    d3 = qx * (p1y - q1y) - qy * (p1x - q1x)
    d4 = qx * (p2y - q1y) - qy * (p2x - q1x)
    return d1 * d2 < 0.0 and d3 * d4 < 0.0


def _segment_distance(
    p1x: float, p1y: float, p2x: float, p2y: float,
    q1x: float, q1y: float, q2x: float, q2y: float,
) -> float:
    """Minimum distance between two segments, on plain floats."""
    if _segments_cross(p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y):
        return 0.0
    return min(
        _point_segment_distance(q1x, q1y, p1x, p1y, p2x, p2y),
        _point_segment_distance(q2x, q2y, p1x, p1y, p2x, p2y),
        _point_segment_distance(p1x, p1y, q1x, q1y, q2x, q2y),
        _point_segment_distance(p2x, p2y, q1x, q1y, q2x, q2y),
    )


def segment_distance(p1: Vec2, p2: Vec2, q1: Vec2, q2: Vec2) -> float:
    """Minimum distance between two line segments."""
    return _segment_distance(p1.x, p1.y, p2.x, p2.y, q1.x, q1.y, q2.x, q2.y)


#: Safety margin absorbing float rounding in the gap lower bounds of
#: :func:`_obb_gap` and :func:`min_footprint_gap`, so pruning can never
#: discard the true minimum.
_BOUND_SLACK = 1e-9

#: Box gaps (m) at or below which :func:`_obb_gap` also runs the edge
#: crossing test.  Rounding can make it fire only for edges within
#: rounding distance of each other, orders of magnitude below this band.
_CROSSING_BAND = 1e-6


def _obb_edges(box: OBB) -> "tuple[tuple[float, ...], ...]":
    """The four edges ``(x1, y1, dx, dy, len_sq, mid_x, mid_y, half)``.

    Edge ``i`` runs from corner ``i`` to corner ``i + 1`` of
    :meth:`OBB.corners` (CCW), with the corners computed in the same
    operation order (``(center ± dx) ± dy`` left to right); ``dx, dy`` and
    ``len_sq`` are exactly the segment terms of
    :func:`_point_segment_distance`.  The midpoint (``center ± dy`` or
    ``∓ dx``) and ``half``, the edge's half-length, feed a lower bound only.
    """
    fx, fy = math.cos(box.heading), math.sin(box.heading)
    cx, cy = box.center.x, box.center.y
    hl, hw = box.half_length, box.half_width
    dxx, dxy = fx * hl, fy * hl
    dyx, dyy = -fy * hw, fx * hw
    x0, y0 = (cx + dxx) + dyx, (cy + dxy) + dyy
    x1, y1 = (cx - dxx) + dyx, (cy - dxy) + dyy
    x2, y2 = (cx - dxx) - dyx, (cy - dxy) - dyy
    x3, y3 = (cx + dxx) - dyx, (cy + dxy) - dyy
    ex0, ey0 = x1 - x0, y1 - y0
    ex1, ey1 = x2 - x1, y2 - y1
    ex2, ey2 = x3 - x2, y3 - y2
    ex3, ey3 = x0 - x3, y0 - y3
    return (
        (x0, y0, ex0, ey0, ex0 * ex0 + ey0 * ey0, cx + dyx, cy + dyy, hl),
        (x1, y1, ex1, ey1, ex1 * ex1 + ey1 * ey1, cx - dxx, cy - dxy, hw),
        (x2, y2, ex2, ey2, ex2 * ex2 + ey2 * ey2, cx - dyx, cy - dyy, hl),
        (x3, y3, ex3, ey3, ex3 * ex3 + ey3 * ey3, cx + dxx, cy + dxy, hw),
    )


def _obb_gap(a: OBB, b: OBB) -> float:
    """Exact gap between two oriented boxes (0 when they overlap).

    Disjoint boxes do not cross, so the gap is the smallest distance from a
    corner of either box to an edge of the other.  The 32 corner-to-edge
    distances are visited one edge pair at a time: pair ``(i, j)`` measures
    the first corner of edge ``j`` of ``b`` against edge ``i`` of ``a`` and
    the first corner of edge ``i`` against edge ``j``, so the 16 pairs cover
    each corner-edge distance exactly once.  ``|mid_i - mid_j| - (h_i + h_j)``
    lower-bounds both, letting a pair be skipped once a closer one has been
    seen.  The point-to-segment distance is :func:`_point_segment_distance`
    inlined with the same operation order, so the result equals the minimum
    over all edge pairs of :func:`_segment_distance` bit for bit.  That
    includes boxes a hair apart, where rounding can make an edge pair's
    crossing test fire and the edge-pair form report contact: within
    :data:`_CROSSING_BAND` the crossing test runs too.
    """
    if obb_overlaps_obb(a, b):
        return 0.0
    edges_a = _obb_edges(a)
    edges_b = _obb_edges(b)
    best = math.inf
    for ax, ay, adx, ady, alen, amx, amy, ah in edges_a:
        for bx, by, bdx, bdy, blen, bmx, bmy, bh in edges_b:
            if math.hypot(amx - bmx, amy - bmy) - ah - bh - _BOUND_SLACK > best:
                continue
            # Corner (bx, by) against edge (ax, ay) + t * (adx, ady).
            if alen == 0.0:
                d = math.hypot(bx - ax, by - ay)
            else:
                t = ((bx - ax) * adx + (by - ay) * ady) / alen
                if t <= 0.0:
                    t = 0.0
                elif t > 1.0:
                    t = 1.0
                d = math.hypot(bx - (ax + adx * t), by - (ay + ady * t))
            if d < best:
                best = d
            # Corner (ax, ay) against edge (bx, by) + t * (bdx, bdy).
            if blen == 0.0:
                d = math.hypot(ax - bx, ay - by)
            else:
                t = ((ax - bx) * bdx + (ay - by) * bdy) / blen
                if t <= 0.0:
                    t = 0.0
                elif t > 1.0:
                    t = 1.0
                d = math.hypot(ax - (bx + bdx * t), ay - (by + bdy * t))
            if d < best:
                best = d
    if best <= _CROSSING_BAND:
        ca, cb = a.corners(), b.corners()
        for i in range(4):
            p1, p2 = ca[i], ca[(i + 1) % 4]
            for j in range(4):
                q1, q2 = cb[j], cb[(j + 1) % 4]
                if _segments_cross(p1.x, p1.y, p2.x, p2.y, q1.x, q1.y, q2.x, q2.y):
                    return 0.0
    return best


def _closest_point_on_obb(box: OBB, point: Vec2) -> Vec2:
    forward, left = box.axes
    rel = point - box.center
    local_x = max(-box.half_length, min(box.half_length, rel.dot(forward)))
    local_y = max(-box.half_width, min(box.half_width, rel.dot(left)))
    return box.center + forward * local_x + left * local_y


def footprint_gap(a: Shape, b: Shape) -> float:
    """Exact minimum gap between two footprints (0 when they touch/overlap).

    This is the separation measure the geometric safety checks use: a pass
    in the adjacent lane keeps a ~1.5 m gap, a genuine crossing conflict
    drives the gap to zero — which centre distances cannot distinguish.
    """
    if isinstance(a, OBB) and isinstance(b, OBB):
        return _obb_gap(a, b)
    if isinstance(a, Circle) and isinstance(b, Circle):
        return max(0.0, a.center.distance_to(b.center) - a.radius - b.radius)
    if isinstance(a, Circle):
        a, b = b, a
    if isinstance(a, OBB) and isinstance(b, Circle):
        if obb_overlaps_circle(a, b):
            return 0.0
        closest = _closest_point_on_obb(a, b.center)
        return max(0.0, closest.distance_to(b.center) - b.radius)
    raise TypeError(f"unsupported shape pair: {type(a).__name__}, {type(b).__name__}")


def min_footprint_gap(a: Shape, others: Iterable[Shape], best: float = math.inf) -> float:
    """``min(best, *(footprint_gap(a, b) for b in others))``, bit for bit.

    The gap is never below the centre distance minus both bounding radii,
    so a pair whose bound already reaches the running best cannot lower the
    minimum and skips the exact :func:`footprint_gap`.  Pass a stored
    running minimum as ``best`` to extend it.
    """
    ax, ay = a.center.x, a.center.y
    reach = a.bounding_radius()
    for b in others:
        center = b.center
        bound = math.hypot(ax - center.x, ay - center.y) - reach - b.bounding_radius()
        if bound - _BOUND_SLACK >= best:
            continue
        gap = footprint_gap(a, b)
        if gap < best:
            best = gap
    return best
