"""The float threat assessment equals its ``Vec2`` form bit for bit.

``_assess_vehicle`` computes distance, closest point of approach and
closing speed on plain floats through the ``_cpa`` core.  The reference
below is the body it replaced, which built ``Vec2`` values for the
relative position, relative velocity and the unit object-to-ego vector.
Fields are compared with ``float.hex`` so the sign of zero counts.
"""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geom import KinematicState, Vec2, angle_difference, closest_point_of_approach
from repro.geom.trajectory import _cpa
from repro.llm import features
from repro.llm.features import Threat, _assess_vehicle, _intended_ego_state
from repro.sim import Approach, IntersectionMap, Movement, ObjectKind, PerceivedObject
from repro.sim.intersection import in_intersection_box
from repro.sim.perception import PerceptionSnapshot

_MAP = IntersectionMap()
_ROUTE = _MAP.route(Approach.SOUTH, Movement.STRAIGHT)


def reference_assess_vehicle(snapshot, obj, ego_intent, ego_window):
    distance = obj.position.distance_to(snapshot.ego_position)
    if distance > 55.0:
        return None
    t_cpa, d_cpa = closest_point_of_approach(ego_intent, obj.kinematic_state())
    to_ego = snapshot.ego_position - obj.position
    rng = max(to_ego.norm(), 1e-6)
    closing = (obj.velocity - snapshot.ego_velocity).dot(to_ego / rng)

    if t_cpa > features._HORIZON_S or d_cpa > features._CONFLICT_CPA_M:
        cpa_severity = 0.0
    else:
        if d_cpa <= features._CERTAIN_CPA_M:
            geometry = 1.0
        else:
            geometry = max(
                0.0,
                (features._CONFLICT_CPA_M - d_cpa)
                / (features._CONFLICT_CPA_M - features._CERTAIN_CPA_M),
            )
        urgency = max(0.0, 1.0 - t_cpa / features._HORIZON_S)
        cpa_severity = min(1.0, geometry * (0.4 + 0.6 * urgency))

    overlap_s, box_eta = features._occupancy_overlap(obj, ego_window)
    occupancy_severity = 0.0
    if overlap_s > 0.0 and box_eta <= features._HORIZON_S:
        occupancy_severity = features._OCCUPANCY_SEVERITY_CAP * min(1.0, overlap_s / 1.5)

    severity = max(cpa_severity, occupancy_severity)
    if severity <= 0.0:
        return None

    is_pass = False
    ego_heading = ego_intent.velocity.angle()
    if obj.speed > 0.5 and closing < features._AGGRESSIVE_CLOSING_MPS:
        heading_gap = abs(angle_difference(obj.velocity.angle(), ego_heading + math.pi))
        if heading_gap <= features._ANTIPARALLEL_TOL:
            rel_at_cpa = obj.kinematic_state().at(t_cpa) - ego_intent.at(t_cpa)
            lateral = abs(rel_at_cpa.dot(Vec2.unit(ego_heading).perpendicular()))
            is_pass = lateral >= features._PASS_LATERAL_M
    if is_pass:
        severity *= 0.15

    return Threat(
        obj=obj,
        distance=distance,
        time_to_conflict=min(t_cpa, box_eta),
        conflict_distance=d_cpa,
        inside_box=in_intersection_box(obj.position),
        closing_speed=closing,
        on_ego_path=False,
        severity=severity,
    )


_FLOAT_FIELDS = ("distance", "time_to_conflict", "conflict_distance", "closing_speed", "severity")


def assert_same_threat(actual, expected):
    if expected is None:
        assert actual is None
        return
    assert actual is not None
    assert actual.obj is expected.obj
    for name in _FLOAT_FIELDS:
        assert getattr(actual, name).hex() == getattr(expected, name).hex(), name
    assert actual.inside_box == expected.inside_box
    assert actual.on_ego_path == expected.on_ego_path


def _snapshot(ego_s, ego_speed, objects=()):
    position = _ROUTE.point_at(ego_s)
    heading = _ROUTE.heading_at(ego_s)
    return PerceptionSnapshot(
        time=0.0,
        ego_position=position,
        ego_velocity=Vec2.unit(heading) * ego_speed,
        ego_heading=heading,
        ego_speed=ego_speed,
        objects=list(objects),
    )


def _vehicle(x, y, vx, vy):
    return PerceivedObject(
        object_id=3,
        kind=ObjectKind.VEHICLE,
        position=Vec2(x, y),
        velocity=Vec2(vx, vy),
        heading=math.atan2(vy, vx),
        length=4.5,
        width=2.0,
        source_id=3,
    )


def check(ego_s, ego_speed, obj):
    snapshot = _snapshot(ego_s, ego_speed, [obj])
    intent = _intended_ego_state(snapshot, _ROUTE, ego_s)
    window = (1.0, 4.5)
    assert_same_threat(
        _assess_vehicle(snapshot, obj, intent, window),
        reference_assess_vehicle(snapshot, obj, intent, window),
    )
    return snapshot, intent


_coord = st.floats(min_value=-70.0, max_value=70.0)
_speed = st.floats(min_value=-15.0, max_value=15.0)


class TestAssessVehicle:
    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=12.0),
        _coord, _coord, _speed, _speed,
    )
    @example(40.0, 7.0, 1.75, -20.0, 0.0, 0.0)
    @example(40.0, 0.0, -20.0, -2.0, 10.0, 0.0)
    def test_random_objects(self, ego_s, ego_speed, x, y, vx, vy):
        check(ego_s, ego_speed, _vehicle(x, y, vx, vy))

    @pytest.mark.parametrize("offset", [0.0, 5e-324, sys.float_info.min, 1e-170, 1e-200])
    def test_zero_and_underflowing_relative_velocity(self, offset):
        # Match the ego's intended velocity exactly, then nudge it by an
        # amount whose square is zero or subnormal.
        snapshot = _snapshot(40.0, 7.0)
        intent = _intended_ego_state(snapshot, _ROUTE, 40.0)
        ivx, ivy = intent.velocity.x, intent.velocity.y
        for x, y in ((1.75, -15.0), (3.0, -10.0), (-4.0, -18.0), (1.75, -24.0), (4.0, -27.0)):
            for vx, vy in ((ivx + offset, ivy), (ivx, ivy + offset), (ivx, ivy - offset)):
                check(40.0, 7.0, _vehicle(x, y, vx, vy))

    def test_object_on_the_ego_position(self):
        # Exact zeros in the offset: the closing-speed direction must keep
        # the old sign of zero.
        snapshot = _snapshot(40.0, 7.0)
        p = snapshot.ego_position
        for vx, vy in ((0.0, -6.0), (0.0, 0.0), (2.0, 7.0), (-3.0, 0.0)):
            check(40.0, 7.0, _vehicle(p.x, p.y, vx, vy))
            check(40.0, 7.0, _vehicle(p.x, p.y + 4.0, vx, vy))
            check(40.0, 7.0, _vehicle(p.x + 4.0, p.y, vx, vy))


def reference_cpa(a, b):
    """``closest_point_of_approach`` before the float ``_cpa`` core."""
    rel_pos = b.position - a.position
    rel_vel = b.velocity - a.velocity
    if rel_vel.x == 0.0 and rel_vel.y == 0.0:
        return 0.0, rel_pos.norm()
    speed_sq = rel_vel.norm_sq()
    if speed_sq >= sys.float_info.min:
        t_cpa = max(0.0, -rel_pos.dot(rel_vel) / speed_sq)
        d_cpa = (rel_pos + rel_vel * t_cpa).norm()
        return t_cpa, d_cpa
    scaled = rel_vel * 2.0 ** 600
    t_scaled = max(0.0, -rel_pos.dot(scaled) / scaled.norm_sq())
    d_cpa = (rel_pos + scaled * t_scaled).norm()
    return t_scaled * 2.0 ** 600, d_cpa


_component = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200, sys.float_info.min]),
)


@given(*[_component] * 8)
@example(0.0, 0.0, 3.0, 4.0, 0.0, 0.0, 5e-324, 0.0)
@example(0.0, 1.0, 0.0, 0.0, 0.0, -1e-170, 0.0, 0.0)
@example(2.0, -1.0, -2.0, 1.0, 1e-200, 0.0, 0.0, 1e-200)
def test_cpa_matches_vec2_reference(ax, ay, bx, by, avx, avy, bvx, bvy):
    a = KinematicState(Vec2(ax, ay), Vec2(avx, avy))
    b = KinematicState(Vec2(bx, by), Vec2(bvx, bvy))
    expected = reference_cpa(a, b)
    for t, d in (closest_point_of_approach(a, b), _cpa(bx - ax, by - ay, bvx - avx, bvy - avy)):
        assert (t.hex(), d.hex()) == (expected[0].hex(), expected[1].hex())
