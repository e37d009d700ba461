"""The single ego-relative pass renders exactly the old channel text.

``build_sensor_suite`` computes each object's distance, bearing and offset
once and lets the LiDAR, radar and front-camera channels share them.  The
prompt text never reaches ``results/evaluation.txt``, so the report oracle
cannot see a changed character in these channels: this file is what pins
the prompt text.  The renderers below are the bodies the pass
replaced, kept as the reference.
"""

import math

import pytest

import repro.llm.planner as planner_module
from repro.experiments.campaign import run_once
from repro.experiments.table2 import SCENARIO_ORDER
from repro.geom import Vec2, angle_difference
from repro.sim import Approach, IntersectionMap, Movement, build_sensor_suite
from repro.sim.perception import ObjectKind, PerceivedObject, PerceptionSnapshot
from repro.sim.sensors import front_camera_descriptor, lidar_summary, radar_summary


def _ref_bearing_description(ego_heading, ego_position, target):
    relative = angle_difference((target - ego_position).angle(), ego_heading)
    octant = int(round(relative / (math.pi / 4.0))) % 8
    names = [
        "ahead",
        "ahead-left",
        "left",
        "behind-left",
        "behind",
        "behind-right",
        "right",
        "ahead-right",
    ]
    return names[octant]


def _ref_describe_object(snapshot, obj):
    distance = obj.position.distance_to(snapshot.ego_position)
    bearing = _ref_bearing_description(snapshot.ego_heading, snapshot.ego_position, obj.position)
    return (
        f"{obj.kind.value} #{obj.object_id}: {distance:.1f} m {bearing}, "
        f"size {obj.length:.1f}x{obj.width:.1f} m, speed {obj.speed:.1f} m/s"
    )


def reference_lidar(snapshot, max_range=50.0):
    objects = sorted(
        snapshot.nearby(max_range),
        key=lambda o: o.position.distance_to(snapshot.ego_position),
    )
    if not objects:
        return "LiDAR: no obstacles within range."
    lines = [_ref_describe_object(snapshot, obj) for obj in objects]
    return "LiDAR obstacles: " + "; ".join(lines) + "."


def reference_radar(snapshot, max_range=60.0):
    detections = []
    for obj in snapshot.nearby(max_range):
        to_obj = obj.position - snapshot.ego_position
        rng = to_obj.norm()
        if rng < 1e-6:
            continue
        direction = to_obj / rng
        radial = (obj.velocity - snapshot.ego_velocity).dot(direction)
        trend = "closing" if radial < -0.1 else ("opening" if radial > 0.1 else "steady")
        detections.append(f"#{obj.object_id} range {rng:.1f} m, radial {radial:+.1f} m/s ({trend})")
    if not detections:
        return "Radar: no detections."
    return "Radar detections: " + "; ".join(detections) + "."


def reference_front_camera(snapshot, fov_deg=90.0):
    half_fov = math.radians(fov_deg) / 2.0
    visible = []
    for obj in snapshot.objects:
        relative = angle_difference(
            (obj.position - snapshot.ego_position).angle(), snapshot.ego_heading
        )
        if abs(relative) <= half_fov:
            visible.append(obj)
    if not visible:
        return "Front camera: clear view of the road ahead."
    parts = [_ref_describe_object(snapshot, obj) for obj in visible[:5]]
    return "Front camera view: " + "; ".join(parts) + "."


def reference_channels(snapshot):
    return (reference_lidar(snapshot), reference_radar(snapshot), reference_front_camera(snapshot))


def suite_channels(snapshot, route, ego_s=0.0):
    suite = build_sensor_suite(snapshot, route, ego_s, 0.0)
    return (suite.lidar_summary, suite.radar_summary, suite.front_camera)


_ROUTE = IntersectionMap().route(Approach.SOUTH, Movement.STRAIGHT)


def _object(object_id, x, y, vx=0.0, vy=0.0, kind=ObjectKind.VEHICLE):
    return PerceivedObject(
        object_id=object_id,
        kind=kind,
        position=Vec2(x, y),
        velocity=Vec2(vx, vy),
        heading=0.0,
        length=4.5,
        width=2.0,
        source_id=object_id,
    )


def _snapshot(objects, ego=(1.75, -20.0), heading=math.pi / 2.0):
    return PerceptionSnapshot(
        time=3.0,
        ego_position=Vec2(*ego),
        ego_velocity=Vec2(0.0, 6.0),
        ego_heading=heading,
        ego_speed=6.0,
        objects=list(objects),
    )


def _octant_boundary_objects(ego, heading, radius=12.0):
    """Objects at every multiple of pi/8 from the heading: the octant
    boundaries of the bearing names and the 45-degree camera half-FOV."""
    return [
        _object(
            100 + k,
            ego[0] + radius * math.cos(heading + k * math.pi / 8.0),
            ego[1] + radius * math.sin(heading + k * math.pi / 8.0),
        )
        for k in range(-8, 9)
    ]


_EGO = (1.75, -20.0)

EDGE_CASES = {
    "empty": [],
    "at_ego_position": [_object(1, *_EGO, vx=3.0), _object(2, 1.75, -10.0, vy=-4.0)],
    "at_50_and_60_m": [
        _object(1, 1.75, 30.0),
        _object(2, 1.75, 40.0),
        _object(3, 1.75, -80.0, vy=2.0),
        _object(4, 1.75, 40.000001),
        _object(5, 61.75, -20.0),
    ],
    "equal_distances": [
        _object(7, 11.75, -20.0),
        _object(3, -8.25, -20.0),
        _object(9, 1.75, -10.0),
        _object(1, 1.75, -30.0),
        _object(5, 1.75, -10.0, kind=ObjectKind.PEDESTRIAN),
    ],
    "octant_boundaries": _octant_boundary_objects(_EGO, math.pi / 2.0),
    "octant_boundaries_heading_zero": _octant_boundary_objects(_EGO, 0.0),
    "more_than_five_visible": [_object(k, 1.75, -20.0 + 3.0 * k, vy=-0.1 * k) for k in range(1, 9)],
}


class TestHandBuiltEdgeCases:
    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_suite_matches_reference(self, name):
        heading = 0.0 if name.endswith("heading_zero") else math.pi / 2.0
        snapshot = _snapshot(EDGE_CASES[name], heading=heading)
        assert suite_channels(snapshot, _ROUTE) == reference_channels(snapshot)

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_public_channels_match_reference(self, name):
        snapshot = _snapshot(EDGE_CASES[name])
        assert lidar_summary(snapshot) == reference_lidar(snapshot)
        assert radar_summary(snapshot) == reference_radar(snapshot)
        assert front_camera_descriptor(snapshot) == reference_front_camera(snapshot)
        for limit in (10.0, 50.0, 60.0):
            assert lidar_summary(snapshot, limit) == reference_lidar(snapshot, limit)
            assert radar_summary(snapshot, limit) == reference_radar(snapshot, limit)
        for fov in (30.0, 90.0, 180.0, 360.0):
            assert front_camera_descriptor(snapshot, fov) == reference_front_camera(snapshot, fov)

    def test_edge_cases_reach_their_branches(self):
        # The radar skips the object at the ego position; LiDAR keeps it.
        snapshot = _snapshot(EDGE_CASES["at_ego_position"])
        assert "#1 " not in radar_summary(snapshot)
        assert "#1:" in lidar_summary(snapshot)
        # Exactly 50 m is inside LiDAR range and exactly 60 m inside radar's.
        snapshot = _snapshot(EDGE_CASES["at_50_and_60_m"])
        assert "#1:" in lidar_summary(snapshot) and "#2:" not in lidar_summary(snapshot)
        assert "#5 range 60.0" in radar_summary(snapshot)
        # Equal distances keep the object-list order.
        lidar = lidar_summary(_snapshot(EDGE_CASES["equal_distances"]))
        order = [lidar.index(f"#{k}:") for k in (7, 3, 9, 1, 5)]
        assert order == sorted(order)


@pytest.mark.parametrize("scenario", SCENARIO_ORDER, ids=lambda s: s.value)
def test_campaign_snapshots_match_reference(scenario, monkeypatch):
    """Every tick of each paper scenario (seed 0) renders the old text."""
    seen = []
    real = planner_module.build_sensor_suite

    def checked(snapshot, route, ego_s, ego_acceleration, yaw_rate=0.0):
        suite = real(snapshot, route, ego_s, ego_acceleration, yaw_rate)
        seen.append(
            ((suite.lidar_summary, suite.radar_summary, suite.front_camera), reference_channels(snapshot))
        )
        return suite

    real_plan = planner_module.LLMPlanner.plan

    def rendering_plan(self, *args, **kwargs):
        output = real_plan(self, *args, **kwargs)
        output.prompt  # the planner renders lazily; force it every tick
        return output

    monkeypatch.setattr(planner_module, "build_sensor_suite", checked)
    monkeypatch.setattr(planner_module.LLMPlanner, "plan", rendering_plan)
    ticks = run_once(scenario, 0).iterations
    assert len(seen) == ticks > 0
    mismatches = [pair for pair in seen if pair[0] != pair[1]]
    assert not mismatches, mismatches[0]
