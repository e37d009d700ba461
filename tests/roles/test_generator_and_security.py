"""Tests for generator roles and the security assessor."""

import pytest

from repro.core import Verdict
from repro.geom import Vec2
from repro.llm import LLMPlanner
from repro.roles import (
    DIRECTIVE_KEY,
    EGO_ROUTE_KEY,
    EGO_S_KEY,
    PERCEPTION_KEY,
    LLMGeneratorRole,
    RuleBasedPlannerRole,
    ScriptedSecurityAssessor,
)
from repro.sim import AttackKind, AttackPlan, Maneuver, ObjectKind, PerceivedObject

from .conftest import advance, make_context


class TestLLMGenerator:
    def test_proposes_maneuver_with_explanation(self, quiet_interface):
        generator = LLMGeneratorRole()
        context = make_context(quiet_interface)
        result = generator.execute(context)
        assert isinstance(result.data["action"], Maneuver)
        assert result.narrative  # CoT explanation
        assert result.verdict is Verdict.INFO

    def test_planner_prompt_renders_on_read(self, quiet_interface):
        state = make_context(quiet_interface).state
        output = LLMPlanner().plan(
            state.require_world(PERCEPTION_KEY),
            state.require_world(EGO_ROUTE_KEY),
            state.require_world(EGO_S_KEY),
        )
        assert output.prompt.approx_tokens > 100

    def test_running_state_remembered(self, quiet_interface):
        generator = LLMGeneratorRole()
        context = make_context(quiet_interface)
        generator.execute(context)
        assert context.state.recall("last_decision") is not None
        assert isinstance(context.state.recall("last_explanation"), str)

    def test_reset_clears_history(self, quiet_interface):
        generator = LLMGeneratorRole()
        generator.execute(make_context(quiet_interface))
        assert generator.planner.history
        generator.reset()
        assert generator.planner.history == []

    def test_decision_inertia_holds_maneuver(self, quiet_interface):
        generator = LLMGeneratorRole()
        first = generator.execute(make_context(quiet_interface))
        advance(quiet_interface, 1, first.data["action"])
        second = generator.execute(make_context(quiet_interface, iteration=1))
        assert second.data["fresh"] is False
        assert second.data["action"] == first.data["action"]

    def test_failure_mode_counter(self, quiet_interface):
        generator = LLMGeneratorRole()
        context = make_context(quiet_interface)
        # Force a ghost panic by planting a blocker right ahead.
        snapshot = context.state.world("perception")
        route = context.state.world("ego_route")
        ego_s = context.state.world("ego_s")
        snapshot.objects.append(
            PerceivedObject(
                object_id=-5,
                kind=ObjectKind.VEHICLE,
                position=route.point_at(ego_s + 8.0),
                velocity=Vec2.zero(),
                heading=route.heading_at(ego_s + 8.0),
                length=4.5,
                width=2.0,
                source_id=None,
            )
        )
        result = generator.execute(context)
        assert result.data["failure_mode"] == "ghost_reaction"
        assert context.metrics.count("llm.failure.ghost_reaction") == 1


class TestRuleBasedPlanner:
    def test_clear_road_proceeds(self, quiet_interface):
        planner = RuleBasedPlannerRole()
        result = planner.execute(make_context(quiet_interface))
        assert result.data["action"] in (Maneuver.PROCEED, Maneuver.YIELD)

    def test_blocked_lane_waits(self, quiet_interface):
        planner = RuleBasedPlannerRole()
        context = make_context(quiet_interface)
        snapshot = context.state.world("perception")
        route = context.state.world("ego_route")
        ego_s = context.state.world("ego_s")
        snapshot.objects.append(
            PerceivedObject(
                object_id=-5,
                kind=ObjectKind.VEHICLE,
                position=route.point_at(ego_s + 9.0),
                velocity=Vec2.zero(),
                heading=route.heading_at(ego_s + 9.0),
                length=4.5,
                width=2.0,
                source_id=None,
            )
        )
        result = planner.execute(context)
        assert result.data["action"] is Maneuver.WAIT

    def test_deterministic(self, quiet_interface):
        planner = RuleBasedPlannerRole()
        a = planner.execute(make_context(quiet_interface)).data["action"]
        b = planner.execute(make_context(quiet_interface)).data["action"]
        assert a == b


class TestSecurityAssessor:
    def test_no_plan_no_directive(self, quiet_interface):
        assessor = ScriptedSecurityAssessor()
        result = assessor.execute(make_context(quiet_interface))
        assert result.data[DIRECTIVE_KEY] is AttackKind.NONE
        assert not result.data["attack_active"]

    def test_directive_during_window(self, quiet_interface):
        plan = AttackPlan(kind=AttackKind.GHOST_OBSTACLE, start_time=0.0, duration=10.0)
        assessor = ScriptedSecurityAssessor(plan=plan)
        result = assessor.execute(make_context(quiet_interface))
        assert result.data[DIRECTIVE_KEY] is AttackKind.GHOST_OBSTACLE
        assert result.data["attack_active"]

    def test_window_expiry(self, quiet_interface):
        plan = AttackPlan(kind=AttackKind.GHOST_OBSTACLE, start_time=0.0, duration=0.1)
        assessor = ScriptedSecurityAssessor(plan=plan)
        advance(quiet_interface, 5, Maneuver.PROCEED)
        result = assessor.execute(make_context(quiet_interface))
        assert result.data[DIRECTIVE_KEY] is AttackKind.NONE

    def test_periodic_rearm_duty_cycle(self):
        plan = AttackPlan(kind=AttackKind.TRAJECTORY_SPOOF, start_time=1.0, duration=2.0)
        assessor = ScriptedSecurityAssessor(plan=plan, repeat_period=5.0)
        assert not assessor._attack_active(0.5)
        assert assessor._attack_active(1.5)   # first on-window
        assert not assessor._attack_active(4.0)  # off part of the cycle
        assert assessor._attack_active(6.5)   # re-armed next cycle

    def test_invalid_repeat_period(self):
        with pytest.raises(ValueError):
            ScriptedSecurityAssessor(repeat_period=0.0)

    def test_anomaly_detection_flags_implausible_speed(self, quiet_interface):
        assessor = ScriptedSecurityAssessor()
        context = make_context(quiet_interface)
        snapshot = context.state.world("perception")
        snapshot.objects.append(
            PerceivedObject(
                object_id=50,
                kind=ObjectKind.VEHICLE,
                position=snapshot.ego_position + Vec2(10, 10),
                velocity=Vec2(20.0, 0.0),
                heading=0.0,
                length=4.5,
                width=2.0,
                source_id=50,
            )
        )
        result = assessor.execute(context)
        assert result.verdict is Verdict.WARNING
        assert "plausibility" in result.narrative

    def test_anomaly_detection_can_be_disabled(self, quiet_interface):
        assessor = ScriptedSecurityAssessor(detect_anomalies=False)
        context = make_context(quiet_interface)
        snapshot = context.state.world("perception")
        snapshot.objects.append(
            PerceivedObject(
                object_id=50,
                kind=ObjectKind.VEHICLE,
                position=snapshot.ego_position + Vec2(10, 10),
                velocity=Vec2(20.0, 0.0),
                heading=0.0,
                length=4.5,
                width=2.0,
                source_id=50,
            )
        )
        assert assessor.execute(context).verdict is Verdict.INFO
