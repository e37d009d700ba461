"""Tests for the phase profiler: attribution, merging, determinism."""

import json

import pytest

from repro.core import OrchestrationController
from repro.obs.profile import (
    MERGED_PROFILE_NAME,
    PROFILE_SCHEMA_VERSION,
    PhaseProfiler,
    capture_hotspots,
    load_profile,
    merge_profile_dir,
    unit_profile_path,
    write_profile,
)
from tests.conftest import StubEnvironment, constant_generator


class TestPhaseProfiler:
    def test_phase_context_accumulates(self):
        profiler = PhaseProfiler()
        for _ in range(3):
            with profiler.phase("a"):
                pass
        stat = profiler.stat("a")
        assert stat.count == 3
        assert stat.wall_s >= 0.0
        assert stat.hist.count == 3

    def test_record_explicit(self):
        profiler = PhaseProfiler()
        profiler.record("x", 0.5, 0.25)
        profiler.record("x", 0.5, 0.25)
        assert profiler.stat("x").count == 2
        assert profiler.stat("x").wall_s == pytest.approx(1.0)
        assert profiler.stat("x").cpu_s == pytest.approx(0.5)

    def test_merge_and_snapshot_round_trip(self):
        a, b = PhaseProfiler(), PhaseProfiler()
        a.record("p", 1.0)
        a.record("q", 2.0)
        b.record("p", 3.0)
        a.merge(b)
        assert a.stat("p").count == 2
        assert a.stat("p").wall_s == pytest.approx(4.0)
        restored = PhaseProfiler.from_snapshot(a.snapshot())
        assert restored.count_snapshot() == a.count_snapshot()
        assert restored.stat("p").wall_s == pytest.approx(4.0)
        assert restored.stat("p").hist.count == a.stat("p").hist.count

    def test_snapshot_is_json_serializable_and_sorted(self):
        profiler = PhaseProfiler()
        profiler.record("z", 1.0)
        profiler.record("a", 1.0)
        snapshot = profiler.snapshot()
        json.dumps(snapshot)
        assert list(snapshot) == sorted(snapshot)

    def test_count_snapshot_has_no_timing(self):
        profiler = PhaseProfiler()
        profiler.record("p", 1.0, 0.5)
        counts = profiler.count_snapshot()
        assert counts == {"p": 1}


class TestHotspots:
    def test_capture_returns_result_and_rows(self):
        def work(n):
            return sum(range(n))

        result, rows = capture_hotspots(work, 1000, top_n=5)
        assert result == sum(range(1000))
        assert 0 < len(rows) <= 5
        assert {"function", "calls", "tottime_s", "cumtime_s"} <= set(rows[0])


class TestProfileFiles:
    def test_write_and_load(self, tmp_path):
        profiler = PhaseProfiler()
        profiler.record("p", 1.0)
        path = tmp_path / "unit.profile.json"
        write_profile(path, profiler, key="k", kind="unit")
        data = load_profile(path)
        assert data["schema"] == PROFILE_SCHEMA_VERSION
        assert data["key"] == "k"
        assert data["kind"] == "unit"
        assert data["phases"]["p"]["count"] == 1

    def test_merge_profile_dir(self, tmp_path):
        for i, name in enumerate(("u1", "u2")):
            profiler = PhaseProfiler()
            profiler.record("p", float(i + 1))
            write_profile(
                unit_profile_path(tmp_path, name), profiler, key=name, kind="unit"
            )
        merged_path = merge_profile_dir(tmp_path)
        assert merged_path == tmp_path / MERGED_PROFILE_NAME
        merged = load_profile(merged_path)
        assert merged["units"] == 2
        assert merged["phases"]["p"]["count"] == 2
        assert merged["phases"]["p"]["wall_s"] == pytest.approx(3.0)


class TestOrchestratorIntegration:
    def test_disarmed_by_default(self):
        controller = OrchestrationController(
            [constant_generator("go")], StubEnvironment(steps=2)
        )
        assert controller.profiler is None
        controller.run()

    def test_armed_profiler_attributes_phases(self):
        controller = OrchestrationController(
            [constant_generator("go")], StubEnvironment(steps=3)
        )
        profiler = PhaseProfiler()
        controller.profiler = profiler
        result = controller.run()
        n = result.iterations
        assert profiler.stat("orchestrator.decide").count == n
        assert profiler.stat("sim.observe").count == n
        assert profiler.stat("sim.step").count == n
        assert profiler.stat("role.Generator").count == n

    def test_profiling_does_not_change_outcomes(self):
        plain = OrchestrationController(
            [constant_generator("go")], StubEnvironment(steps=4)
        )
        profiled = OrchestrationController(
            [constant_generator("go")], StubEnvironment(steps=4)
        )
        profiled.profiler = PhaseProfiler()
        a, b = plain.run(), profiled.run()
        assert a.iterations == b.iterations
        assert a.reason == b.reason


class TestCampaignDeterminism:
    def test_jobs4_phase_counts_match_serial(self, tmp_path):
        """The merged ``phases`` section is mode-independent by design."""
        from repro.experiments.campaign import execute_suite
        from repro.sim.scenario import ScenarioType

        counts = {}
        for jobs in (1, 4):
            profile_dir = tmp_path / f"jobs{jobs}"
            execute_suite(
                (ScenarioType.NOMINAL,),
                (0, 1),
                jobs=jobs,
                progress=None,
                profile=profile_dir,
            )
            merged = load_profile(profile_dir / MERGED_PROFILE_NAME)
            counts[jobs] = PhaseProfiler.from_snapshot(
                merged["phases"]
            ).count_snapshot()
        assert counts[1] == counts[4]
        assert counts[1]["role.Generator"] > 0
