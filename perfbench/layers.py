"""Outside-in tracing: wrap the program's layer entry points, then restore.

The benchmark never edits the program.  A traced pass replaces a fixed
set of functions and methods of ``repro`` with timing wrappers
(:class:`Tracer`), runs the workload, and puts the originals back.  A
function imported by name into other modules (``from ..geom import
footprint_gap``) is bound in each of them, so every ``repro`` module
attribute that *is* the original is patched, not just the defining one.

:class:`TickClock` times each assurance tick from ``ITERATION_STARTED``
to ``ITERATION_FINISHED`` on the controller's public event bus.  It
reaches the controller by wrapping ``campaign.build_controller``; in
forked pool workers (which inherit the wrapper) it spills each run's
samples to a file the parent reads back.  With ``calibrate=True`` it
also measures the host's speed in the process that runs each scenario,
just before the run, so a pass's times can be put on a reference speed
(see :func:`measure.speed_factor`).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from measure import calibration_score

#: Marker attribute set on every wrapper, so tests can prove none is left.
WRAPPER_MARK = "__perfbench_wrapper__"

#: Calibration-loop iterations before each run (about 6 ms).
RUN_CALIBRATION_LOOP = 4_000

#: Environment variable naming the directory queue hosts spill their
#: per-run speeds to (read by ``sitecustomize.py``).
SPEED_DIR_ENV = "PERFBENCH_SPEED_DIR"


@dataclass(frozen=True)
class Target:
    """One function (``cls is None``) or method of the program to time."""

    metric: str
    module: str
    attr: str
    cls: Optional[str] = None

    def resolve(self) -> Tuple[Any, Any]:
        """``(owner, original)`` where ``owner`` defines the attribute."""
        owner: Any = importlib.import_module(self.module)
        if self.cls is not None:
            owner = getattr(owner, self.cls)
            if self.attr not in vars(owner):
                raise AttributeError(f"{self.cls}.{self.attr} is not defined on the class")
        return owner, getattr(owner, self.attr)


def _method(metric: str, module: str, cls: str, attr: str) -> Target:
    return Target(metric, module, attr, cls)


#: The tick layers: everything that runs inside one assurance tick.
TICK_TARGETS: Tuple[Target, ...] = (
    Target("geom.footprint_gap", "repro.geom.shapes", "footprint_gap"),
    _method("sim.route.point_at", "repro.sim.intersection", "Route", "point_at"),
    _method("llm.planner.plan", "repro.llm.planner", "LLMPlanner", "plan"),
    Target("llm.features.observe", "repro.llm.features", "observe"),
    _method("env.observe", "repro.env.sim_interface", "IntersectionSimInterface", "observe"),
    _method(
        "env.apply_action", "repro.env.sim_interface", "IntersectionSimInterface",
        "apply_action",
    ),
    _method("env.advance", "repro.env.sim_interface", "IntersectionSimInterface", "advance"),
    _method("sim.world.step", "repro.sim.world", "World", "step"),
    _method("roles.generator.execute", "repro.roles.generator", "LLMGeneratorRole", "execute"),
    _method(
        "roles.safety_monitor.execute", "repro.roles.safety_monitor",
        "GeometricSafetyMonitor", "execute",
    ),
    _method(
        "roles.security_assessor.execute", "repro.roles.security_assessor",
        "ScriptedSecurityAssessor", "execute",
    ),
    _method(
        "roles.fault_injector.execute", "repro.roles.fault_injector",
        "FaultInjectorRole", "execute",
    ),
    _method(
        "roles.performance_oracle.execute", "repro.roles.performance_oracle",
        "IntersectionPerformanceOracle", "execute",
    ),
    _method(
        "roles.recovery_planner.execute", "repro.roles.recovery_planner",
        "EmergencyBrakeRecovery", "execute",
    ),
    Target(
        "roles.predict_min_separation", "repro.roles.geometry_checks",
        "predict_min_separation",
    ),
    Target("stl.safety_robustness", "repro.analysis.trace_checks", "safety_robustness"),
)

#: Spans that run in the dispatching (parent) process whatever the backend.
PARENT_TARGETS: Tuple[Target, ...] = (
    _method("exec.journal.append_task", "repro.exec.journal", "RunJournal", "append_task"),
    _method("dist.spool.enqueue", "repro.dist.spool", "Spool", "enqueue"),
    _method("dist.queue.drain", "repro.dist.queue", "QueueBackend", "_drain_outcomes"),
)

#: Trace-file writes; in-process they are timed per record.
TRACE_WRITE = _method("obs.trace.write", "repro.obs.trace", "TraceWriter", "write")

#: The top-level spans of a tick; with the orchestrator's self time they
#: add up to it.  The other tick targets run nested inside these.
TICK_PARTITION = (
    "env.observe",
    "roles.generator.execute",
    "roles.safety_monitor.execute",
    "roles.security_assessor.execute",
    "roles.fault_injector.execute",
    "roles.performance_oracle.execute",
    "roles.recovery_planner.execute",
    "env.apply_action",
    "env.advance",
)


def _bindings(original: Any) -> List[Tuple[Any, str]]:
    """Every ``repro`` module attribute bound to ``original``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((module, attr))
    return found


class Tracer:
    """Install timing wrappers on :class:`Target` s; restore on exit.

    ``stats[metric]`` is a ``[calls, nanoseconds]`` cell.  Use as a
    context manager; :meth:`restore` is idempotent and checks that each
    attribute is the original again.
    """

    def __init__(self, targets: "Tuple[Target, ...] | List[Target]") -> None:
        self.targets = list(targets)
        self.stats: Dict[str, List[int]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    def _wrapper(self, original: Callable[..., Any], cell: List[int]) -> Callable[..., Any]:
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                cell[1] += clock() - started
                cell[0] += 1

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    def install(self) -> "Tracer":
        for target in self.targets:
            owner, original = target.resolve()
            cell = self.stats.setdefault(target.metric, [0, 0])
            wrapper = self._wrapper(original, cell)
            sites = [(owner, target.attr)]
            if target.cls is None:
                sites = _bindings(original)
            for site, attr in sites:
                self._patches.append((site, attr, original))
                setattr(site, attr, wrapper)
        return self

    def restore(self) -> None:
        while self._patches:
            site, attr, original = self._patches.pop()
            setattr(site, attr, original)
            if vars(site).get(attr) is not original:
                raise RuntimeError(f"could not restore {site!r}.{attr}")

    def calls(self, metric: str) -> int:
        return self.stats.get(metric, [0, 0])[0]

    def seconds(self, metric: str) -> float:
        return self.stats.get(metric, [0, 0])[1] / 1e9

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()


class TickClock:
    """Per-tick wall times from the controller's event bus.

    Call :meth:`install` once (it wraps ``build_controller`` in every
    ``repro`` module that binds it) and :meth:`restore` at the end.
    :meth:`begin` starts a pass; :meth:`collect` returns the pass's
    samples in seconds, including those forked workers spilled.

    With ``calibrate`` set, every run is preceded by a short calibration
    loop in the process that runs it, and :meth:`collect_runs` returns
    one ``(mops, run_s, calibration_s, ticks)`` record per run: the speed
    measured, the run's wall time from controller build to
    ``RUN_TERMINATED``, the time the calibration itself took, and how
    many tick samples the run added.  Runs and samples come back in the
    same order, so the records split the samples run by run.

    A process other than the one that made the clock spills its samples
    at every ``RUN_TERMINATED``; ``spill_every_run`` makes the owner do
    so too (a queue host, which the benchmark process does not share
    memory with).
    """

    def __init__(self, calibrate: bool = False, spill_every_run: bool = False) -> None:
        self.calibrate = calibrate
        self.spill_every_run = spill_every_run
        self.samples = array("d")
        self.runs = array("d")  # flat (mops, run_s, calibration_s, ticks) records
        self.spill_dir: Optional[Path] = None
        self._owner_pid = os.getpid()
        self._started = 0.0
        self._run_mops = 0.0
        self._run_began = 0.0
        self._run_calibration_s = 0.0
        self._run_first = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    def install(self) -> "TickClock":
        from repro.core.events import EventKind
        from repro.experiments import campaign

        started_kind = EventKind.ITERATION_STARTED
        finished_kind = EventKind.ITERATION_FINISHED
        terminated_kind = EventKind.RUN_TERMINATED
        clock = time.perf_counter

        def on_event(event: Any) -> None:
            kind = event.kind
            if kind is started_kind:
                self._started = clock()
            elif kind is finished_kind:
                self.samples.append(clock() - self._started)
            elif kind is terminated_kind:
                if self._run_mops:
                    run_s = clock() - self._run_began
                    ticks = len(self.samples) - self._run_first
                    self.runs.extend((self._run_mops, run_s, self._run_calibration_s, ticks))
                    self._run_mops = 0.0
                if self.spill_every_run or os.getpid() != self._owner_pid:
                    self._spill()

        original = campaign.build_controller

        @functools.wraps(original)
        def build_controller(*args: Any, **kwargs: Any) -> Any:
            if self.calibrate:
                started = clock()
                self._run_mops = calibration_score(RUN_CALIBRATION_LOOP)
                self._run_began = clock()
                self._run_calibration_s = self._run_began - started
                self._run_first = len(self.samples)
            controller = original(*args, **kwargs)
            controller.events.subscribe(on_event)
            return controller

        setattr(build_controller, WRAPPER_MARK, True)
        for site, attr in _bindings(original):
            self._patches.append((site, attr, original))
            setattr(site, attr, build_controller)
        return self

    def restore(self) -> None:
        while self._patches:
            site, attr, original = self._patches.pop()
            setattr(site, attr, original)

    def _spill(self) -> None:
        if self.spill_dir is None:
            return
        for prefix, data in (("ticks", self.samples), ("runs", self.runs)):
            with (self.spill_dir / f"{prefix}-{os.getpid()}.f64").open("ab") as fh:
                data.tofile(fh)
            del data[:]

    def begin(self, spill_dir: Path) -> None:
        spill_dir.mkdir(parents=True, exist_ok=True)
        self.spill_dir = spill_dir
        del self.samples[:]
        del self.runs[:]

    def _gather(self, prefix: str, data: "array[float]") -> List[float]:
        values = list(data)
        del data[:]
        if self.spill_dir is not None:
            for path in sorted(self.spill_dir.glob(f"{prefix}-*.f64")):
                spilled = array("d")
                spilled.frombytes(path.read_bytes())
                values.extend(spilled)
        return values

    def collect(self) -> List[float]:
        return self._gather("ticks", self.samples)

    def collect_runs(self) -> List[Tuple[float, float, float, int]]:
        flat = self._gather("runs", self.runs)
        return [
            (flat[i], flat[i + 1], flat[i + 2], int(flat[i + 3])) for i in range(0, len(flat), 4)
        ]

    def __enter__(self) -> "TickClock":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()


def leftover_wrappers() -> List[str]:
    """Names of ``repro`` attributes still bound to a benchmark wrapper."""
    left = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, WRAPPER_MARK, False):
                left.append(f"{name}.{attr}")
            elif isinstance(value, type) and value.__module__ == name:
                left.extend(
                    f"{name}.{attr}.{meth}"
                    for meth, member in vars(value).items()
                    if getattr(member, WRAPPER_MARK, False)
                )
    return left
