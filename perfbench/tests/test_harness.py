"""The harness's own checks: oracles trip, wrappers go away, ticks add up.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
They use one-seed campaigns (a few seconds each), not the full workloads.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import layers
import run
import workloads
from repro.experiments.runner import run_evaluation

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

SEEDS = (0,)


@pytest.fixture(scope="module")
def one_seed_report(tmp_path_factory: pytest.TempPathFactory) -> Path:
    path = tmp_path_factory.mktemp("oracle") / "evaluation.txt"
    path.write_text(run_evaluation(seeds=SEEDS))
    return path


def _paper(name: str, expected: Path, jobs: int = 1) -> workloads.PaperWorkload:
    return workloads.PaperWorkload(name, jobs, expected, seeds=SEEDS)


def test_matching_report_passes(one_seed_report: Path, tmp_path: Path) -> None:
    wl = _paper("paper-serial", one_seed_report)
    with layers.TickClock() as clock:
        result = wl.run_pass(tmp_path / "p", clock, label="p")
    assert result.ok, result.problems
    assert result.runs == 6 and result.ticks == len(result.tick_samples) > 0


def test_one_byte_change_trips_report_check(one_seed_report: Path, tmp_path: Path) -> None:
    data = bytearray(one_seed_report.read_bytes())
    data[len(data) // 2] ^= 0x01
    tampered = tmp_path / "evaluation.txt"
    tampered.write_bytes(bytes(data))
    wl = _paper("paper-serial", tampered)
    values, passes, problems = run.untraced(wl, tmp_path / "work", 0.0)
    (failed,) = passes
    assert not failed.ok
    assert failed.failed_runs == failed.runs == 6
    assert "differs" in failed.problems[0]
    assert values == {}  # a failed pass reports no timing
    assert failed.calibration > 0  # the calibration score is still recorded


def test_tracer_restores_every_target() -> None:
    import repro.experiments.campaign  # noqa: F401 - loads every layer module
    import repro.dist.queue  # noqa: F401

    targets = [*layers.TICK_TARGETS, *layers.PARENT_TARGETS, layers.TRACE_WRITE]
    originals = {t.metric: t.resolve()[1] for t in targets}
    tracer = layers.Tracer(targets)
    with tracer:
        from repro.geom import footprint_gap
        from repro.sim import world

        assert getattr(footprint_gap, layers.WRAPPER_MARK, False)
        assert getattr(world.footprint_gap, layers.WRAPPER_MARK, False)
        assert layers.leftover_wrappers()
    assert layers.leftover_wrappers() == []
    for target in targets:
        assert target.resolve()[1] is originals[target.metric]
    with layers.TickClock():
        assert layers.leftover_wrappers()
    assert layers.leftover_wrappers() == []


def test_traced_run_accounts_for_the_tick(one_seed_report: Path, tmp_path: Path) -> None:
    wl = _paper("paper-serial", one_seed_report)
    values, passes, problems = run.traced(wl, tmp_path / "work")
    assert problems == [] and all(p.ok for p in passes)
    assert layers.leftover_wrappers() == []
    parts = sum(values[f"{m}_ms_per_tick"] for m in (
        "env.observe", "env.apply_action", "env.advance",
        "roles.generator.execute", "roles.safety_monitor.execute",
        "roles.security_assessor.execute", "roles.fault_injector.execute",
        "roles.performance_oracle.execute", "roles.recovery_planner.execute",
    ))
    assert values["core.orchestrator.self_ms_per_tick"] >= 0.0
    assert parts + values["core.orchestrator.self_ms_per_tick"] == pytest.approx(
        values["bench.tick_ms"], rel=1e-9
    )
    assert values["sim.route.point_at.calls_per_tick"] > 0
    assert "bench.trace_overhead_frac" in values
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} - set(values) == {"dist.queue.host_spawn_s"}


def test_calibrating_clock_measures_every_run(one_seed_report: Path, tmp_path: Path) -> None:
    wl = _paper("paper-serial", one_seed_report)
    with layers.TickClock(calibrate=True) as clock:
        result = wl.run_pass(tmp_path / "p", clock, label="p")
    assert result.ok, result.problems
    assert result.speed_mops > 0 and 0 < result.calibration_s < result.wall_s
    assert len(result.speeds) == result.runs
    assert sum(run[3] for run in result.speeds) == result.ticks
    assert layers.leftover_wrappers() == []


def test_times_go_on_the_reference_speed() -> None:
    from measure import REFERENCE_MOPS

    p = workloads.PassResult(label="p", runs=2, ticks=100, wall_s=4.5, cpu_s=4.4)
    assert p.factor == 1.0 and p.ref_wall_s == 4.5  # no speed known: raw time
    fast, slow = 2 * REFERENCE_MOPS, REFERENCE_MOPS
    p.add_speed([(fast, 3.0, 0.25, 60), (slow, 1.0, 0.25, 40)], workers=1)
    assert p.speed_mops == pytest.approx((fast * 3.0 + slow * 1.0) / 4.0)
    assert p.ref_wall_s == pytest.approx((4.5 - 0.5) * 1.75)
    assert p.ref_cpu_s == pytest.approx((4.4 - 0.5) * 1.75)
    p.add_speed([(fast, 3.0, 0.25, 60), (fast, 3.0, 0.25, 40)], workers=2)
    assert p.ref_wall_s == pytest.approx((4.5 - 0.25) * 2.0)


def test_ticks_go_on_the_speed_around_them(monkeypatch: pytest.MonkeyPatch) -> None:
    from measure import REFERENCE_MOPS

    monkeypatch.setattr(workloads, "SPEED_WINDOW", 0)
    p = workloads.PassResult(label="p", runs=2, ticks=3, tick_samples=[1.0, 1.0, 1.0])
    assert p.ref_ticks() == [1.0, 1.0, 1.0]
    p.add_speed([(2 * REFERENCE_MOPS, 1.0, 0.0, 1), (REFERENCE_MOPS, 1.0, 0.0, 2)], workers=1)
    assert p.ref_ticks() == pytest.approx([2.0, 1.0, 1.0])
    monkeypatch.setattr(workloads, "SPEED_WINDOW", 1)
    assert p.ref_ticks() == pytest.approx([1.5, 1.5, 1.5])
    p.tick_samples.append(1.0)  # records no longer split the samples
    assert p.ref_ticks() == pytest.approx([1.5] * 4)


def test_tail_idle_worker_seconds() -> None:
    report = SimpleNamespace(records=[
        SimpleNamespace(key="a", worker="w1"),
        SimpleNamespace(key="b", worker="w2"),
        SimpleNamespace(key="c", worker="w1"),
    ])
    finished = {"a": 1.0, "b": 2.0, "c": 5.0}
    assert workloads.tail_idle_worker_s(finished, report) == 3.0


def test_audit_problems_flag_anything_but_exactly_once() -> None:
    clean = {
        "journal_tasks": 3, "journal_duplicate_keys": [], "unique_ok_keys": 3,
        "quarantined": 0, "pending_tasks": 0, "open_claims": 0,
    }
    assert workloads.audit_problems(clean, 3) == []
    assert workloads.audit_problems(dict(clean, journal_duplicate_keys=["k"]), 3)
    assert workloads.audit_problems(dict(clean, open_claims=1), 3)
    assert workloads.audit_problems(clean, 4)


def test_refuses_a_checkout_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
