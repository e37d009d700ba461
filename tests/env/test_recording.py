"""Tests for trace recording and replay."""

import pytest

from repro.core import EventKind, OrchestrationController, OrchestratorConfig, TerminationReason
from repro.env import TraceFrame, TraceRecorder
from repro.experiments.campaign import build_controller
from repro.sim import ScenarioType, build_scenario
from tests.conftest import StubEnvironment, constant_generator


@pytest.fixture
def recorded_controller():
    controller = OrchestrationController(
        [constant_generator("go")],
        StubEnvironment(steps=4),
        OrchestratorConfig(),
    )
    recorder = TraceRecorder.attach(controller)
    controller.run()
    return controller, recorder


class TestRecording:
    def test_one_frame_per_iteration(self, recorded_controller):
        _, recorder = recorded_controller
        assert len(recorder.frames) == 4
        assert [f.iteration for f in recorder.frames] == [0, 1, 2, 3]

    def test_frames_capture_action_and_verdicts(self, recorded_controller):
        _, recorder = recorded_controller
        frame = recorder.frames[0]
        assert frame.action == "go"
        assert frame.action_source == "Generator"
        assert frame.verdicts == {"Generator": "info"}

    def test_heavy_keys_excluded(self):
        controller = build_controller(build_scenario(ScenarioType.NOMINAL, 0))
        controller.config.max_iterations = 5
        recorder = TraceRecorder.attach(controller)
        controller.run()
        assert recorder.frames
        for frame in recorder.frames:
            assert "perception" not in frame.world
            assert "ego_route" not in frame.world

    def test_signal_extraction(self, recorded_controller):
        _, recorder = recorded_controller
        assert recorder.signal("value") == [0.0, 1.0, 2.0, 3.0]
        assert recorder.signal("missing") == []

    def test_actions_helper(self, recorded_controller):
        _, recorder = recorded_controller
        assert recorder.actions() == ["go"] * 4


def _frame_from_history(controller):
    """The frame the recorder built before ``StateManager.latest``: from a
    full copy of the history, taking its last record."""
    history = controller.state.history
    record = history[-1]
    return TraceFrame(
        iteration=record.iteration,
        time=record.time,
        world={
            k: v for k, v in record.world_state.items() if k not in TraceRecorder.EXCLUDED_KEYS
        },
        action=record.executed_action,
        action_source=record.action_source,
        verdicts={name: result.verdict.value for name, result in record.outputs.items()},
    )


class TestLongRun:
    def test_timeout_run_frames_equal_history_copy_frames(self):
        # Runs past the history bound, so the deque has wrapped many times.
        controller = OrchestrationController(
            [constant_generator("go")],
            StubEnvironment(steps=10_000),
            OrchestratorConfig(max_iterations=700, history_limit=64),
        )
        recorder = TraceRecorder.attach(controller)
        expected = []
        controller.events.subscribe(
            lambda event: expected.append(_frame_from_history(controller))
            if event.kind is EventKind.ITERATION_FINISHED
            else None
        )
        result = controller.run()
        assert result.reason is TerminationReason.MAX_ITERATIONS
        assert len(recorder.frames) == 700
        assert recorder.frames == expected

    def test_scenario_timeout_frames_equal_history_copy_frames(self):
        controller = build_controller(build_scenario(ScenarioType.CONGESTED, 3))
        controller.config.max_iterations = 60
        recorder = TraceRecorder.attach(controller)
        expected = []
        controller.events.subscribe(
            lambda event: expected.append(_frame_from_history(controller))
            if event.kind is EventKind.ITERATION_FINISHED
            else None
        )
        result = controller.run()
        assert result.reason is TerminationReason.MAX_ITERATIONS
        assert recorder.frames == expected


class TestPersistence:
    def test_save_load_round_trip(self, recorded_controller, tmp_path):
        _, recorder = recorded_controller
        path = tmp_path / "trace.jsonl"
        recorder.save(path)
        frames = TraceRecorder.load(path)
        assert len(frames) == len(recorder.frames)
        assert frames[0].iteration == 0
        assert frames[0].action == "go"
        assert frames[0].world["value"] == 0.0

    def test_real_run_serializes(self, tmp_path):
        controller = build_controller(build_scenario(ScenarioType.NOMINAL, 0))
        controller.config.max_iterations = 10
        recorder = TraceRecorder.attach(controller)
        controller.run()
        path = tmp_path / "run.jsonl"
        recorder.save(path)
        frames = TraceRecorder.load(path)
        assert len(frames) == 10
        # Maneuver enums serialize as their value strings.
        assert isinstance(frames[0].action, str)

    def test_frame_json_round_trip(self):
        frame = TraceFrame(
            iteration=2,
            time=0.2,
            world={"speed": 5.0, "flag": True},
            action="proceed",
            action_source="Generator",
            verdicts={"Monitor": "pass"},
        )
        restored = TraceFrame.from_json(frame.to_json())
        assert restored == frame
