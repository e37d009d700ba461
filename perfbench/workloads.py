"""The three benchmark workloads, driven through the public entry points.

Each workload runs a *pass* — one whole campaign through
``repro.experiments.runner.run_evaluation`` or
``repro.experiments.campaign.execute_suite`` — times it from outside,
then checks the pass's outputs.  A pass whose outputs disagree with the
oracle is failed: all its runs count as failed and its timing is not
reported.

``paper-serial`` and ``paper-jobs2`` are the paper's §V protocol (6
scenarios x seeds 0-14, in protocol order); the benchmark seed does not
change them.
``short-durable`` runs short ``nominal`` scenarios whose seeds come from
the benchmark seed, over the queue backend with a journal and traces.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.dist.spool import audit_spool
from repro.exec import CampaignExecutionError, ExecutionReport
from repro.exec.progress import TASK_FINISHED, ProgressEvent
from repro.experiments import runner
from repro.experiments.campaign import (
    DEFAULT_SEEDS,
    build_campaign_report,
    execute_suite,
)
from repro.experiments.table2 import SCENARIO_ORDER
from repro.jsonutil import dumps as strict_dumps
from repro.sim.scenario import ScenarioType

from layers import SPEED_DIR_ENV
from measure import cpu_seconds, peak_rss_mb, speed_factor, tree_bytes

WORKLOAD_NAMES = ("paper-serial", "paper-jobs2", "short-durable")

#: Runs per ``short-durable`` pass (about 93 ticks each).
DURABLE_RUNS = 40

#: Queue-host count of ``short-durable`` (the container has 2 CPUs).
DURABLE_HOSTS = 2

#: Runs on either side of a run whose speeds set its ticks' local factor.
SPEED_WINDOW = 2


def durable_seeds(seed: int) -> Tuple[int, ...]:
    base = 100_000 + seed * DURABLE_RUNS
    return tuple(range(base, base + DURABLE_RUNS))


def scenario_units(workload: str, seed: int) -> List[Tuple[ScenarioType, int]]:
    """Every (scenario, run seed) pair one pass of ``workload`` runs."""
    if workload in ("paper-serial", "paper-jobs2"):
        return [(s, x) for s in SCENARIO_ORDER for x in DEFAULT_SEEDS]
    if workload == "short-durable":
        return [(ScenarioType.NOMINAL, x) for x in durable_seeds(seed)]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class PassResult:
    """What one pass did, how long it took and whether it was right."""

    label: str
    runs: int
    failed_runs: int = 0
    ticks: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    tick_samples: List[float] = field(default_factory=list)
    artifact_bytes: int = 0
    calibration: float = 0.0
    #: Per-run ``(mops, run_s, calibration_s, ticks)`` records of a
    #: calibrated pass (see :class:`layers.TickClock`).
    speeds: List[Tuple[float, float, float, int]] = field(default_factory=list)
    #: Time-weighted calibration speed, in Mops/s, of the processes that
    #: ran the scenarios (0 when the pass was not calibrated).
    speed_mops: float = 0.0
    #: Seconds those processes spent in the calibration loop, and how
    #: many of them shared the pass's wall time.
    calibration_s: float = 0.0
    workers: int = 1
    peak_rss_mb: float = 0.0
    problems: List[str] = field(default_factory=list)
    report: Optional[ExecutionReport] = None
    finished_at: Dict[str, float] = field(default_factory=dict)
    spool: Optional[Path] = None
    trace: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return not self.problems and self.failed_runs == 0

    @property
    def factor(self) -> float:
        """What puts this pass's times on the reference speed (1 if unknown)."""
        return speed_factor(self.speed_mops) if self.speed_mops else 1.0

    @property
    def ref_wall_s(self) -> float:
        """Timed wall seconds less the calibration, at the reference speed."""
        return (self.wall_s - self.calibration_s / self.workers) * self.factor

    @property
    def ref_cpu_s(self) -> float:
        """CPU seconds less the calibration, at the reference speed."""
        return (self.cpu_s - self.calibration_s) * self.factor

    def add_speed(self, runs: "Sequence[Tuple[float, float, float, int]]", workers: int) -> None:
        """Record the per-run calibrations a :class:`TickClock` collected."""
        weight = sum(run[1] for run in runs)
        if weight > 0:
            self.speeds = list(runs)
            self.speed_mops = sum(run[0] * run[1] for run in runs) / weight
            self.calibration_s = sum(run[2] for run in runs)
            self.workers = workers

    def ref_ticks(self) -> List[float]:
        """Tick samples at the reference speed, each run's by its own factor.

        A run's factor is the time-weighted speed of the runs within
        :data:`SPEED_WINDOW` of it, so a tick is put on the speed the host
        had around it rather than over the whole pass.  Without per-run
        records that split the samples, the pass's factor is used.
        """
        if sum(run[3] for run in self.speeds) != len(self.tick_samples):
            return [t * self.factor for t in self.tick_samples]
        scaled: List[float] = []
        first = 0
        for i, (_, _, _, ticks) in enumerate(self.speeds):
            near = self.speeds[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 1]
            mops = sum(run[0] * run[1] for run in near) / sum(run[1] for run in near)
            factor = speed_factor(mops)
            scaled.extend(t * factor for t in self.tick_samples[first: first + ticks])
            first += ticks
        return scaled

    def fail(self, problem: str) -> None:
        """Mark the pass failed: every run in it counts as failed."""
        self.problems.append(problem)
        self.failed_runs = self.runs


class FinishTimes:
    """Progress hook: campaign-relative settle time of every run."""

    def __init__(self) -> None:
        self.at: Dict[str, float] = {}

    def __call__(self, event: ProgressEvent) -> None:
        if event.kind == TASK_FINISHED and event.key is not None:
            self.at[event.key] = event.wall_s


@contextlib.contextmanager
def _progress_into_runner(hook: Optional[FinishTimes]) -> Iterator[None]:
    """Hand ``hook`` to the campaign ``run_evaluation`` starts."""
    if hook is None:
        yield
        return
    original = runner.execute_suite
    runner.execute_suite = functools.partial(original, progress=hook)
    try:
        yield
    finally:
        runner.execute_suite = original


@contextlib.contextmanager
def _speed_in_hosts(spill_dir: Optional[Path]) -> Iterator[None]:
    """Have the queue hosts started inside calibrate into ``spill_dir``.

    See ``sitecustomize.py``; ``None`` leaves the hosts untouched.
    """
    if spill_dir is None:
        yield
        return
    os.environ[SPEED_DIR_ENV] = str(spill_dir)
    try:
        yield
    finally:
        del os.environ[SPEED_DIR_ENV]


def _timed(result: PassResult, call: Any) -> Any:
    """Run ``call`` as the pass's timed region; record wall and CPU."""
    cpu0 = cpu_seconds()
    started = time.perf_counter()
    try:
        return call()
    except CampaignExecutionError as exc:
        result.problems.append(f"{len(exc.errors)} run(s) failed: {exc}")
        result.failed_runs = len(exc.errors)
    except Exception as exc:  # noqa: BLE001 - a crashed pass is a failed pass
        result.fail(f"pass raised {type(exc).__name__}: {exc}")
    finally:
        result.wall_s = time.perf_counter() - started
        result.cpu_s = cpu_seconds() - cpu0
        result.peak_rss_mb = peak_rss_mb()
    return None


def canonical_report(results: Any) -> str:
    return strict_dumps(build_campaign_report(results), indent=2, sort_keys=True)


class PaperWorkload:
    """The 90-run paper campaign; the oracle is the committed report."""

    def __init__(
        self, name: str, jobs: int, expected: Path, seeds: Sequence[int] = DEFAULT_SEEDS
    ) -> None:
        self.name = name
        self.seeds = tuple(seeds)
        self.jobs = jobs
        self.runs = len(self.seeds) * len(SCENARIO_ORDER)
        self.expected = expected.read_bytes()

    def prepare(self, work: Path) -> None:
        """Nothing to precompute: the oracle is a committed file."""

    def run_pass(
        self,
        pass_dir: Path,
        clock: Any,
        *,
        label: str,
        progress: Optional[FinishTimes] = None,
        jobs: Optional[int] = None,
    ) -> PassResult:
        result = PassResult(label=label, runs=self.runs)
        clock.begin(pass_dir / "ticks")
        out = pass_dir / "out"
        execution: List[ExecutionReport] = []
        with _progress_into_runner(progress):
            text = _timed(
                result,
                lambda: runner.run_evaluation(
                    seeds=self.seeds,
                    out_dir=out,
                    jobs=self.jobs if jobs is None else jobs,
                    execution=execution,
                ),
            )
        result.tick_samples = clock.collect()
        result.add_speed(clock.collect_runs(), self.jobs if jobs is None else jobs)
        result.artifact_bytes = tree_bytes(out)
        if progress is not None:
            result.finished_at = dict(progress.at)
        if text is None:
            return result
        result.report = execution[-1]
        result.ticks = sum(o.iterations for o in result.report.results())
        self.check(result, text, (out / "evaluation.txt").read_bytes())
        return result

    def run_inprocess(self, pass_dir: Path, clock: Any, *, label: str) -> PassResult:
        return self.run_pass(pass_dir, clock, label=label, jobs=1)

    def check(self, result: PassResult, text: str, written: bytes) -> None:
        if text.encode("utf-8") != self.expected or written != self.expected:
            result.fail("evaluation report differs from results/evaluation.txt")
        if len(result.tick_samples) != result.ticks:
            result.fail(
                f"tick clock saw {len(result.tick_samples)} ticks, runs report {result.ticks}"
            )


def iteration_spans(trace_dir: Path) -> List[float]:
    """Durations of the ``iteration`` spans in a campaign's unit traces."""
    samples = []
    for path in sorted((trace_dir / "units").glob("*.trace.jsonl")):
        with path.open(encoding="utf-8") as fh:
            for line in fh:
                if '"span_kind": "iteration"' in line:
                    samples.append(json.loads(line)["duration_s"])
    return samples


def unit_trace_records(trace_dir: Path) -> "Tuple[int, int]":
    """``(records, bytes)`` of a campaign's unit trace files."""
    records = size = 0
    for path in (trace_dir / "units").glob("*.trace.jsonl"):
        data = path.read_bytes()
        records += data.count(b"\n")
        size += len(data)
    return records, size


class DurableWorkload:
    """Short nominal runs over the queue backend, journaled and traced.

    The oracle is the canonical campaign report of an in-process serial
    run of the same spec, computed once in :meth:`prepare`.
    """

    name = "short-durable"

    def __init__(self, seed: int, root: Path) -> None:
        self.seeds = durable_seeds(seed)
        self.runs = len(self.seeds)
        self.root = root
        self.reference: Optional[str] = None

    def _suite(self, **kwargs: Any) -> Any:
        return execute_suite((ScenarioType.NOMINAL,), self.seeds, **kwargs)

    def prepare(self, work: Path) -> None:
        results, _ = self._suite(jobs=1, progress=None)
        self.reference = canonical_report(results)

    def run_pass(
        self,
        pass_dir: Path,
        clock: Any,
        *,
        label: str,
        progress: Optional[FinishTimes] = None,
    ) -> PassResult:
        result = PassResult(label=label, runs=self.runs)
        result.spool = pass_dir / "spool"
        result.trace = pass_dir / "trace"
        clock.begin(pass_dir / "host-clock")
        with _speed_in_hosts(clock.spill_dir if clock.calibrate else None):
            outcome = _timed(
                result,
                lambda: self._suite(
                    backend="queue",
                    hosts=DURABLE_HOSTS,
                    spool=result.spool,
                    journal=pass_dir / "journal.jsonl",
                    trace=result.trace,
                    progress=progress,
                ),
            )
        result.add_speed(clock.collect_runs(), DURABLE_HOSTS)
        host_ticks = clock.collect()
        shutil.rmtree(clock.spill_dir, ignore_errors=True)
        result.artifact_bytes = tree_bytes(pass_dir)
        if progress is not None:
            result.finished_at = dict(progress.at)
        if outcome is None:
            return result
        results, result.report = outcome
        result.ticks = sum(o.iterations for o in result.report.results())
        result.tick_samples = iteration_spans(result.trace)
        self.check(result, results)
        if result.speeds and len(host_ticks) == result.ticks:
            result.tick_samples = host_ticks  # in run order, to match the speeds
        return result

    def run_inprocess(self, pass_dir: Path, clock: Any, *, label: str) -> PassResult:
        """The same runs serially in this process, traced to files."""
        result = PassResult(label=label, runs=self.runs)
        result.trace = pass_dir / "trace"
        clock.begin(pass_dir / "ticks")
        outcome = _timed(
            result, lambda: self._suite(jobs=1, trace=result.trace, progress=None)
        )
        result.tick_samples = clock.collect()
        if outcome is None:
            return result
        results, result.report = outcome
        result.ticks = sum(o.iterations for o in result.report.results())
        if canonical_report(results) != self.reference:
            result.fail("in-process campaign report differs from the reference run")
        return result

    def check(self, result: PassResult, results: Any) -> None:
        if canonical_report(results) != self.reference:
            result.fail("queue campaign report differs from the in-process serial run")
        if len(result.tick_samples) != result.ticks:
            result.fail(
                f"traces hold {len(result.tick_samples)} iteration spans, "
                f"runs report {result.ticks} ticks"
            )
        summarize = subprocess.run(
            [sys.executable, "-m", "repro.obs", "summarize", str(result.spool), "--no-timing"],
            cwd=self.root,
            env=dict(os.environ, PYTHONPATH=str(self.root / "src")),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        if summarize.returncode != 0:
            result.fail(
                f"obs summarize exited {summarize.returncode}: "
                f"{summarize.stderr.decode(errors='replace')[-200:]}"
            )
        audit = audit_spool(result.spool)
        problems = audit_problems(audit, self.runs)
        if problems:
            result.fail("spool audit: " + "; ".join(problems))


def audit_problems(audit: Dict[str, Any], runs: int) -> List[str]:
    """Everything in an ``audit_spool`` report that is not exactly-once."""
    problems = []
    if audit["journal_tasks"] != runs:
        problems.append(f"journal holds {audit['journal_tasks']} tasks, expected {runs}")
    if audit["journal_duplicate_keys"]:
        problems.append(f"settled twice: {audit['journal_duplicate_keys'][:3]}")
    if audit["unique_ok_keys"] != runs:
        problems.append(f"{audit['unique_ok_keys']} keys settled ok, expected {runs}")
    for key in ("quarantined", "pending_tasks", "open_claims"):
        if audit[key]:
            problems.append(f"{key}={audit[key]}")
    return problems


def spool_claims(spool: Path) -> int:
    """Distinct claims behind the outcome lines of a spool."""
    claims = set()
    for path in (spool / "outcomes").glob("*.jsonl"):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                claim = json.loads(line).get("claim")
                if claim is not None:
                    claims.add(claim)
    return len(claims)


def tail_idle_worker_s(finished_at: Dict[str, float], report: ExecutionReport) -> float:
    """Worker-seconds idle after the first worker ran out of work.

    Each worker's last settle time is when it ran dry; the campaign ends
    at the last one, so the tail is the sum over workers of the gap.
    """
    last: Dict[str, float] = {}
    for record in report.records:
        at = finished_at.get(record.key)
        if at is not None and record.worker is not None:
            last[record.worker] = max(last.get(record.worker, 0.0), at)
    if not last:
        return 0.0
    end = max(last.values())
    return sum(end - t for t in last.values())


def make_workload(name: str, seed: int, root: Path, expected: Optional[Path] = None) -> Any:
    expected = expected or root / "results" / "evaluation.txt"
    if name == "paper-serial":
        return PaperWorkload(name, 1, expected)
    if name == "paper-jobs2":
        return PaperWorkload(name, 2, expected)
    if name == "short-durable":
        return DurableWorkload(seed, root)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOAD_NAMES)}")


def check_counts(passes: Sequence[PassResult]) -> List[str]:
    """Run and tick counts must be identical across the passes of a run."""
    seen = {(p.runs, p.ticks) for p in passes if p.ok}
    if len(seen) > 1:
        return [f"run/tick counts differ across passes: {sorted(seen)}"]
    return []
