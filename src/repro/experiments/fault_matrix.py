"""Fault-robustness matrix: the full fault library, systematically.

The paper's use case exercises two attacks (ghost obstacle, trajectory
spoofing), but the FaultInjector's brief is wider: "sensor noise/failure,
communication delays/loss, GPS spoofing" (§III.B.2).  This experiment
sweeps every fault model in the library across scenarios and reports the
dependability impact — the systematic-injection capability §V.E credits
the framework with, extended to the whole library.

Run as a script::

    python -m repro.experiments.fault_matrix [--seeds N] [--jobs N] \
        [--journal PATH] [--resume]
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.stats import MeanStd, Rate
from ..analysis.tables import render_table
from ..exec import CampaignEngine, EnginePolicy, WorkUnit
from ..core import (
    OrchestrationController,
    OrchestratorConfig,
    ResilienceConfig,
    RoleGraph,
)
from ..core.role import Role, RoleContext, RoleKind, RoleResult, Verdict
from ..env.sim_interface import IntersectionSimInterface
from ..geom import Vec2
from ..llm.planner import LLMPlanner
from ..roles.fault_injector import (
    DropoutFault,
    FaultModel,
    FaultPipeline,
    GhostObstacleFault,
    GPSBiasFault,
    LatencyFault,
    SensorNoiseFault,
    TrajectorySpoofFault,
)
from ..obs.profile import PhaseProfiler, unit_profile_path, write_profile
from ..obs.trace import TraceRecorder, unit_trace_path
from ..roles.generator import LLMGeneratorRole
from ..roles.performance_oracle import IntersectionPerformanceOracle
from ..roles.recovery_planner import EmergencyBrakeRecovery
from ..roles.registry import create_fallback
from ..roles.safety_monitor import GeometricSafetyMonitor
from ..sim.actions import Maneuver
from ..sim.scenario import ScenarioType, build_scenario
from .campaign import positive_int

#: The sweep: fault label -> factory for a fresh (per-run) fault model.
FAULT_FACTORIES: Dict[str, Optional[Callable[[], FaultModel]]] = {
    "none": None,
    "sensor_noise": lambda: SensorNoiseFault(position_sigma=0.8, velocity_sigma=0.6),
    "dropout": lambda: DropoutFault(drop_probability=0.4),
    "latency": lambda: LatencyFault(delay_ticks=5),
    "gps_bias": lambda: GPSBiasFault(offset=Vec2(2.5, 0.0)),
    "ghost_obstacle": lambda: GhostObstacleFault(distance_ahead=14.0),
    "trajectory_spoof": lambda: TrajectorySpoofFault(speed_factor=2.2, path_bend=0.35),
}


class PresetFaultInjector(Role):
    """Minimal injector role keeping one fault armed for the whole run.

    The environment interface clears its pipeline on every reset, so a
    pre-armed fault would vanish when the orchestrator starts; this role
    re-arms it (idempotently) each iteration instead — a 20-line
    demonstration of how scripted fault campaigns plug in.
    """

    kind = RoleKind.FAULT_INJECTOR

    def __init__(
        self,
        pipeline: FaultPipeline,
        factory: Callable[[], FaultModel],
        name: str = "PresetFaultInjector",
    ) -> None:
        super().__init__(name)
        self.pipeline = pipeline
        self.factory = factory
        self._kind = factory().kind

    def execute(self, context: RoleContext) -> RoleResult:
        if self._kind not in self.pipeline.active_kinds:
            self.pipeline.arm(self.factory())
        records = self.pipeline.drain_records()
        for record in records:
            context.metrics.record_fault(
                record.kind, context.iteration, record.time, record.detail
            )
        return RoleResult(verdict=Verdict.INFO, data={"injections": len(records)})


def _run(
    scenario: ScenarioType,
    seed: int,
    factory: Optional[Callable[[], FaultModel]],
    trace: "str | Path | None" = None,
    trace_id: str = "run",
    resilience: Optional[Dict[str, object]] = None,
    profile: "str | Path | None" = None,
):
    """One run with the given fault kind armed for the whole scenario.

    ``resilience`` carries the optional ``deadline_ms``/``breaker``/
    ``crash_window`` knobs (JSON-friendly so it survives the journal).
    ``profile`` names a per-run phase-profile JSON file to write.
    """
    spec = build_scenario(scenario, seed)
    pipeline = FaultPipeline(seed=seed)
    environment = IntersectionSimInterface(spec, pipeline=pipeline)
    resilience = resilience or {}
    crash_window = resilience.get("crash_window")
    roles = [
        LLMGeneratorRole(
            planner=LLMPlanner(seed=seed),
            name="Generator",
            crash_window=tuple(crash_window) if crash_window else None,
        ),
        GeometricSafetyMonitor(name="SafetyMonitor"),
        IntersectionPerformanceOracle(name="PerformanceOracle"),
        EmergencyBrakeRecovery(name="RecoveryPlanner"),
    ]
    if factory is not None:
        roles.insert(1, PresetFaultInjector(pipeline, factory))
    resilience_config: Optional[ResilienceConfig] = None
    if resilience:
        kwargs: Dict[str, object] = {
            "deadline_ms": resilience.get("deadline_ms"),
            "safe_action": Maneuver.WAIT,
            "max_hold": 3,
        }
        if resilience.get("breaker"):
            kwargs.update(
                breaker_threshold=3,
                breaker_cooldown=25,
                max_retries=1,
                fallback=create_fallback(),
            )
        resilience_config = ResilienceConfig(**kwargs)
    controller = OrchestrationController(
        RoleGraph.sequential(roles),
        environment,
        OrchestratorConfig(
            max_iterations=int(spec.timeout_s / 0.1) + 10,
            resilience=resilience_config,
        ),
    )
    recorder = (
        TraceRecorder(trace, trace_id=trace_id).attach(controller)
        if trace is not None
        else None
    )
    profiler = PhaseProfiler() if profile is not None else None
    if profiler is not None:
        controller.profiler = profiler
        if recorder is not None:
            recorder.profiler = profiler
    result = controller.run()
    if recorder is not None:
        recorder.finalize(result.metrics)
    if profiler is not None:
        write_profile(Path(profile), profiler, key=trace_id, kind="unit")
    info = result.environment_info
    return {
        "flagged": bool(result.metrics.violations_of("safety")),
        "collision": bool(info["collision"]),
        "cleared": info["clearance_time"] is not None,
        "clearance": info["clearance_time"],
        "degraded": result.metrics.count("resilience.degraded.entered"),
        "overruns": result.metrics.count("resilience.deadline_overruns"),
    }


def execute_cell(payload: "Tuple") -> Dict[str, object]:
    """Engine worker entry: one (scenario, seed, fault-label) run.

    Accepts the historical 3-tuple payload, the traced 4-tuple with a
    trailing campaign trace directory (or ``None``), the resilient
    5-tuple whose last element is the resilience options dict, and the
    profiled 6-tuple adding a campaign profile directory (or ``None``).
    """
    scenario_value, seed, label = payload[:3]
    trace_dir = payload[3] if len(payload) > 3 else None
    resilience = payload[4] if len(payload) > 4 else None
    profile_dir = payload[5] if len(payload) > 5 else None
    key = f"{scenario_value}:{seed}:{label}"
    trace = unit_trace_path(trace_dir, key) if trace_dir is not None else None
    profile = unit_profile_path(profile_dir, key) if profile_dir is not None else None
    return _run(
        ScenarioType(scenario_value), seed, FAULT_FACTORIES[label],
        trace=trace, trace_id=key, resilience=resilience, profile=profile,
    )


def generate(
    seeds: Sequence[int] = tuple(range(8)),
    scenarios: Sequence[ScenarioType] = (ScenarioType.NOMINAL, ScenarioType.CONGESTED),
    *,
    jobs: int = 1,
    journal: "str | Path | None" = None,
    resume: bool = False,
    trace: "str | Path | None" = None,
    profile: "str | Path | None" = None,
    deadline_ms: Optional[float] = None,
    breaker: bool = False,
    crash_window: Optional[Tuple[int, int]] = None,
) -> str:
    """Render the fault x scenario robustness matrix.

    ``deadline_ms``/``breaker``/``crash_window`` arm the orchestrator's
    resilience layer for every cell; the journal key gains a ``:res-...``
    suffix so resilient sweeps never collide with historical journals.
    ``profile`` names a campaign profile directory: each cell writes a
    phase profile under ``<profile>/units/`` and the engine merges them
    into ``<profile>/profile.json``.
    """
    resilience: Optional[Dict[str, object]] = None
    key_suffix = ""
    if deadline_ms is not None or breaker or crash_window is not None:
        resilience = {
            "deadline_ms": deadline_ms,
            "breaker": breaker,
            "crash_window": list(crash_window) if crash_window else None,
        }
        key_suffix = (
            f":res-d{deadline_ms if deadline_ms is not None else 'off'}"
            f"-b{int(breaker)}"
            + (f"-c{crash_window[0]}-{crash_window[1]}" if crash_window else "")
        )

    def _payload(scenario: ScenarioType, seed: int, label: str) -> Tuple:
        # Positional payload slots: later slots force earlier ones to
        # exist (None-filled) so execute_cell can index by position.
        payload: Tuple = (scenario.value, seed, label)
        if trace is not None or resilience is not None or profile is not None:
            payload = payload + (str(trace) if trace is not None else None,)
        if resilience is not None or profile is not None:
            payload = payload + (resilience,)
        if profile is not None:
            payload = payload + (str(profile),)
        return payload

    units = [
        WorkUnit(
            key=f"{scenario.value}:{seed}:{label}{key_suffix}",
            payload=_payload(scenario, seed, label),
        )
        for scenario in scenarios
        for label in FAULT_FACTORIES
        for seed in seeds
    ]
    engine = CampaignEngine(
        execute_cell,
        EnginePolicy(jobs=jobs),
        journal=journal,
        resume=resume,
        trace=trace,
        profile=profile,
    )
    cells = engine.run(units).raise_on_error().results()

    rows: List[List[str]] = []
    cursor = 0
    for scenario in scenarios:
        for label in FAULT_FACTORIES:
            outcomes = cells[cursor : cursor + len(seeds)]
            cursor += len(seeds)
            n = len(outcomes)
            clearances = [o["clearance"] for o in outcomes if o["clearance"] is not None]
            row = [
                scenario.value,
                label,
                str(Rate(sum(o["flagged"] for o in outcomes), n)),
                str(Rate(sum(o["collision"] for o in outcomes), n)),
                str(Rate(sum(not o["cleared"] for o in outcomes), n)),
                str(MeanStd.of(clearances)) if clearances else "n/a",
            ]
            if resilience is not None:
                row.append(str(sum(o.get("degraded", 0) for o in outcomes)))
                row.append(str(sum(o.get("overruns", 0) for o in outcomes)))
            rows.append(row)
    headers = [
        "Scenario",
        "Injected fault",
        "Monitor flagged",
        "Collisions",
        "Never cleared",
        "Clearance (s)",
    ]
    if resilience is not None:
        headers += ["Degraded entries", "Deadline overruns"]
    return render_table(
        headers=headers,
        rows=rows,
        title="Fault-robustness matrix (full injector library)",
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=8)
    parser.add_argument("--jobs", type=positive_int, default=1)
    parser.add_argument("--journal", type=Path, default=None)
    parser.add_argument("--resume", action="store_true")
    parser.add_argument(
        "--trace", type=Path, default=None, metavar="DIR",
        help="record schema-v1 run + engine traces into DIR",
    )
    parser.add_argument(
        "--profile", type=Path, default=None, metavar="DIR",
        help="record per-cell phase profiles into DIR, merged into "
        "DIR/profile.json (inspect with `python -m repro.obs profile DIR`)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-role wall-clock deadline budget",
    )
    parser.add_argument(
        "--breaker", action="store_true",
        help="guard the Generator with retry + circuit breaker",
    )
    parser.add_argument(
        "--log-level",
        default="WARNING",
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        help="repro.* logger level (stderr)",
    )
    args = parser.parse_args(argv)
    if args.resume and args.journal is None:
        parser.error("--resume requires --journal")
    from ..obs import configure_logging

    configure_logging(args.log_level)
    print(
        generate(
            seeds=tuple(range(args.seeds)),
            jobs=args.jobs,
            journal=args.journal,
            resume=args.resume,
            trace=args.trace,
            profile=args.profile,
            deadline_ms=args.deadline_ms,
            breaker=args.breaker,
        )
    )


if __name__ == "__main__":
    main()
