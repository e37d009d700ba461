"""Work-count oracle: exact per-run call counts of the assurance tick's kernels.

Wall time depends on the machine; how often each kernel runs does not.
This script runs the serial 90-run paper campaign (6 scenarios x 15
seeds) in this process with counting wrappers installed from outside:
every ``repro`` module or class attribute bound to a target is replaced
by a wrapper, and the originals are put back afterwards, the way
``perfbench/layers.py`` installs its timers.  Nothing in ``src/`` counts,
so an untraced tick pays nothing for the oracle.

It prints one JSON object, ``"<scenario>/<seed>"`` -> ``{counter: calls}``,
which must equal the committed file byte for byte::

    PYTHONPATH=src python benchmarks/work_counts.py > wc.json
    cmp wc.json results/work_counts.json

A kernel that does more work than before (a route sampled twice where
once did, a prediction rolled out further) changes its count and fails
the compare; so does a phase profiler left armed, since
``PhaseProfiler.phase`` and ``PhaseProfiler.record`` must count 0 in an
unprofiled campaign.  Each run's counts are taken around that run alone,
so they do not depend on what the process ran before, and therefore not
on ``--jobs`` or the backend either.  A change that alters the counts on
purpose regenerates the file and says why.
"""

from __future__ import annotations

import importlib
import json
import sys
from typing import Any, Callable, Dict, List, Tuple

from repro.experiments import campaign, runner

#: ``(counter, module, class or None, attribute)``.  The six role classes
#: are the ones ``perfbench/layers.py`` times as ``roles.*.execute``.
TARGETS: Tuple[Tuple[str, str, "str | None", str], ...] = (
    ("ticks", "repro.core.orchestrator", "OrchestrationController", "_run_iteration"),
    ("Route.xy_at", "repro.sim.intersection", "Route", "xy_at"),
    ("Route.heading_at", "repro.sim.intersection", "Route", "heading_at"),
    ("footprint_gap", "repro.geom.shapes", None, "footprint_gap"),
    ("shapes._obb_gap", "repro.geom.shapes", None, "_obb_gap"),
    ("predict_min_separation", "repro.roles.geometry_checks", None, "predict_min_separation"),
    ("ManeuverExecutor.acceleration_for", "repro.sim.actions", "ManeuverExecutor", "acceleration_for"),
    ("Vehicle._pose", "repro.sim.vehicle", "Vehicle", "_pose"),
    ("EventBus.publish", "repro.core.events", "EventBus", "publish"),
    ("LLMGeneratorRole.execute", "repro.roles.generator", "LLMGeneratorRole", "execute"),
    ("GeometricSafetyMonitor.execute", "repro.roles.safety_monitor", "GeometricSafetyMonitor", "execute"),
    ("ScriptedSecurityAssessor.execute", "repro.roles.security_assessor", "ScriptedSecurityAssessor", "execute"),
    ("FaultInjectorRole.execute", "repro.roles.fault_injector", "FaultInjectorRole", "execute"),
    ("IntersectionPerformanceOracle.execute", "repro.roles.performance_oracle", "IntersectionPerformanceOracle", "execute"),
    ("EmergencyBrakeRecovery.execute", "repro.roles.recovery_planner", "EmergencyBrakeRecovery", "execute"),
    ("PhaseProfiler.phase", "repro.obs.profile", "PhaseProfiler", "phase"),
    ("PhaseProfiler.record", "repro.obs.profile", "PhaseProfiler", "record"),
)


def _sites(module: str, cls: "str | None", attr: str) -> Tuple[Any, List[Tuple[Any, str]]]:
    """The original, and every attribute a caller could reach it through.

    A method is reached through its class; a function imported by name
    into other modules is bound in each of them.
    """
    owner: Any = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
        if attr not in vars(owner):
            raise AttributeError(f"{cls}.{attr} is not defined on the class")
        return vars(owner)[attr], [(owner, attr)]
    original = getattr(owner, attr)
    sites = [
        (mod, name)
        for mod_name, mod in list(sys.modules.items())
        if mod is not None and (mod_name == "repro" or mod_name.startswith("repro."))
        for name, value in list(vars(mod).items())
        if value is original
    ]
    return original, sites


def per_run_counts(work: Callable[[], Any]) -> Dict[str, Dict[str, int]]:
    """Call ``work`` with the counters installed; return the counts per run.

    Every ``campaign.run_once`` that ``work`` makes (directly, or through
    a serial engine) becomes one ``"<scenario>/<seed>"`` row holding the
    calls made during that run and no other.
    """
    counts = dict.fromkeys((target[0] for target in TARGETS), 0)
    rows: Dict[str, Dict[str, int]] = {}
    undo: List[Tuple[Any, str, Any]] = []

    def wrap(module: str, cls: "str | None", attr: str, make: Callable[[Any], Any]) -> None:
        original, sites = _sites(module, cls, attr)
        wrapper = make(original)
        for site, name in sites:
            undo.append((site, name, original))
            setattr(site, name, wrapper)

    def counting(name: str) -> Callable[[Any], Any]:
        def make(original: Any) -> Any:
            def counted(*args: Any, **kwargs: Any) -> Any:
                counts[name] += 1
                return original(*args, **kwargs)

            return counted

        return make

    def per_run(original: Any) -> Any:
        def run_once(scenario_type: Any, seed: int, *args: Any, **kwargs: Any) -> Any:
            before = dict(counts)
            try:
                return original(scenario_type, seed, *args, **kwargs)
            finally:
                rows[f"{scenario_type.value}/{seed}"] = {
                    name: counts[name] - before[name] for name in counts
                }

        return run_once

    try:
        for name, module, cls, attr in TARGETS:
            wrap(module, cls, attr, counting(name))
        wrap(campaign.__name__, None, "run_once", per_run)
        work()
    finally:
        for site, name, original in reversed(undo):
            setattr(site, name, original)
    return rows


def compare(expected: Dict[str, Dict[str, int]], actual: Dict[str, Dict[str, int]]) -> List[str]:
    """One line per run or counter where ``actual`` differs from ``expected``."""
    problems = []
    for run in sorted(set(expected) | set(actual)):
        if run not in actual or run not in expected:
            problems.append(f"{run}: {'missing' if run not in actual else 'unexpected'} run")
            continue
        want, got = expected[run], actual[run]
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                problems.append(f"{run}: {name} expected {want.get(name)}, got {got.get(name)}")
    return problems


def main() -> int:
    rows = per_run_counts(lambda: runner.run_evaluation(jobs=1))
    print(json.dumps(rows, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
