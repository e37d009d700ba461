"""The campaign execution engine: sharded task running over a backend.

:class:`CampaignEngine` turns a list of :class:`~repro.exec.work.WorkUnit`
into settled :class:`TaskRecord` results.  The engine owns campaign
*semantics* — unit identity, journaling/resume, tracing, progress, the
summary — and delegates *execution* to an
:class:`~repro.dist.backend.ExecutorBackend` (default: the
:class:`~repro.dist.local.LocalPoolBackend`, a ``ProcessPoolExecutor``
of forked workers with a deterministic in-process fallback for
``jobs=1`` and for platforms without ``fork``; ``--backend queue``
distributes units to separate host processes via
:class:`~repro.dist.queue.QueueBackend`).  Guarantees, regardless of
backend or mode:

* **order independence** — records come back in unit order, and each task
  derives everything from its own payload, so ``jobs=N`` equals ``jobs=1``
  field-for-field for deterministic task functions;
* **fault tolerance** — a task that raises, times out (per-task SIGALRM
  deadline) or loses its worker process is retried with exponential
  backoff up to ``max_retries`` times, then recorded as a
  :class:`TaskError` *outcome*; the campaign always runs to completion;
* **checkpoint/resume** — every settled task is appended (and flushed) to
  a JSONL :mod:`~repro.exec.journal`; re-running with ``resume=True``
  replays journaled successes and executes only the missing tasks;
* **telemetry** — progress events (runs/s + ETA via the default stderr
  reporter) and a :class:`~repro.exec.progress.CampaignSummary` with
  retry counts and per-worker utilization.

The worker function must be a module-level (picklable) callable taking a
unit's payload; with a journal, its results must round-trip through the
``encode``/``decode`` hooks to JSON.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..obs.profile import (
    ENGINE_PROFILE_NAME,
    PhaseProfiler,
    capture_hotspots,
    merge_profile_dir,
    phase,
    unit_profile_path,
    write_profile,
)
from ..obs.telemetry import TelemetryRegistry
from ..obs.trace import EngineTracer
from .journal import RunJournal, check_spec_fingerprint, load_journal
from .progress import (
    CAMPAIGN_FINISHED,
    CAMPAIGN_STARTED,
    TASK_FINISHED,
    TASK_RETRY,
    CampaignSummary,
    ProgressEvent,
    ProgressHook,
    default_progress_hook,
)
from .work import WorkUnit, check_unique_keys, fingerprint

if TYPE_CHECKING:  # pragma: no cover - avoid an exec <-> dist import cycle
    from ..dist.backend import ExecutorBackend


class TaskTimeout(Exception):
    """A task overran its per-task deadline."""


class CampaignCancelled(Exception):
    """The campaign was cancelled via the engine's ``cancel`` hook.

    Every task settled before the cancellation point is already journaled
    (the journal flushes per line), so a later ``resume=True`` run picks
    up exactly where the cancelled one stopped.
    """


class CampaignExecutionError(Exception):
    """Raised by strict callers when a campaign settled with failed tasks."""

    def __init__(self, errors: "List[TaskError]") -> None:
        self.errors = list(errors)
        preview = "; ".join(
            f"{e.key}: {e.error_type}: {e.message}" for e in self.errors[:3]
        )
        more = f" (+{len(self.errors) - 3} more)" if len(self.errors) > 3 else ""
        super().__init__(f"{len(self.errors)} task(s) failed: {preview}{more}")


@dataclass(frozen=True)
class EnginePolicy:
    """Execution knobs: parallelism, deadlines and retry behaviour.

    Attributes:
        jobs: worker process count; ``1`` runs in-process.
        timeout_s: per-task deadline (``None`` disables it).  Enforced via
            ``SIGALRM`` in the executing process, so it needs a Unix main
            thread; elsewhere tasks run undeadlined.
        max_retries: extra attempts after the first failure.
        retry_backoff_s: base backoff, doubled per subsequent attempt.
    """

    jobs: int = 1
    timeout_s: Optional[float] = None
    max_retries: int = 2
    retry_backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")


@dataclass(frozen=True)
class TaskError:
    """Terminal failure of one unit — an outcome, not an exception."""

    key: str
    error_type: str
    message: str
    attempts: int


@dataclass
class TaskRecord:
    """One settled unit: success result or terminal error, plus telemetry."""

    key: str
    status: str  # "ok" | "error"
    attempts: int
    elapsed_s: float = 0.0
    worker: Optional[str] = None
    result: Any = None
    error: Optional[TaskError] = None
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class ExecutionReport:
    """Everything a campaign produced, in submission order."""

    records: List[TaskRecord]
    summary: CampaignSummary
    #: Engine telemetry registry — populated only for traced campaigns.
    telemetry: Optional[TelemetryRegistry] = None
    #: Profile directory — populated only for profiled campaigns; the
    #: merged breakdown lives at ``<profile_dir>/profile.json``.
    profile_dir: Optional[Path] = None

    def record_map(self) -> Dict[str, TaskRecord]:
        return {r.key: r for r in self.records}

    def results(self) -> List[Any]:
        """Successful results only, in unit order."""
        return [r.result for r in self.records if r.ok]

    def errors(self) -> "List[TaskError]":
        return [r.error for r in self.records if r.error is not None]

    def raise_on_error(self) -> "ExecutionReport":
        errors = self.errors()
        if errors:
            raise CampaignExecutionError(errors)
        return self


# ----------------------------------------------------------------------
# task entry (runs in the worker process, or inline for jobs=1)
# ----------------------------------------------------------------------
def _alarm_usable() -> bool:
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


def _call_with_deadline(
    fn: Callable[[Any], Any], payload: Any, timeout_s: Optional[float]
) -> Any:
    """Run ``fn(payload)``, raising :class:`TaskTimeout` past the deadline."""
    if timeout_s is None or not _alarm_usable():
        return fn(payload)

    def _on_alarm(signum: int, frame: Any) -> None:
        raise TaskTimeout(f"task exceeded {timeout_s:g} s deadline")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn(payload)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _task_entry(
    fn: Callable[[Any], Any],
    payload: Any,
    timeout_s: Optional[float],
    hotspot_spec: "Optional[Tuple[str, str, int]]" = None,
) -> "Tuple[Any, str, float]":
    """(result, worker id, elapsed seconds) for one attempt.

    ``hotspot_spec`` = ``(path, key, top_n)`` arms per-unit
    :mod:`cProfile` capture: the task runs under the profiler and its
    top-N hotspot rows are written as JSON to ``path`` (a ``units/``
    profile file the parent's merge step folds in).  Wall time then
    includes the profiler's own overhead — hotspot capture is a
    diagnostic mode, not a throughput mode.
    """
    started = time.perf_counter()
    if hotspot_spec is None:
        result = _call_with_deadline(fn, payload, timeout_s)
    else:
        path, key, top_n = hotspot_spec
        result, rows = _call_with_deadline(
            lambda p: capture_hotspots(fn, p, top_n=top_n), payload, timeout_s
        )
        write_profile(path, PhaseProfiler(), key=key, kind="hotspots", hotspots=rows)
    return result, f"pid{os.getpid()}", time.perf_counter() - started


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class CampaignEngine:
    """Run a campaign's work units to completion under an execution policy.

    Args:
        fn: module-level worker callable, ``fn(payload) -> result``.
        policy: parallelism/deadline/retry knobs.
        encode: result -> JSON-serializable value (journaling only).
        decode: inverse of ``encode``, applied to journal replays.
        journal: JSONL journal path; without ``resume`` an existing file
            is overwritten, with it the file is extended.
        resume: replay journaled successes instead of re-running them.
        progress: a ``ProgressHook``, ``None`` to silence, or ``"auto"``
            (default) for a stderr ticker when stderr is a terminal.
        trace: campaign trace directory; when set, an
            :class:`~repro.obs.trace.EngineTracer` records dispatch/settle
            spans to ``<trace>/engine.trace.jsonl`` and writes a
            deterministic ``manifest.json`` merging per-unit run traces at
            campaign end.  ``None`` (default) writes nothing.
        profile: campaign profile directory; when set, the engine
            attributes its own time to ``engine.*`` phases
            (``dispatch``/``pickle``/``worker_run``/``retry_wait``),
            writes them to ``<profile>/engine.profile.json`` and merges
            every per-unit profile under ``<profile>/units/`` into
            ``<profile>/profile.json`` at campaign end.  ``None``
            (default) records nothing.
        hotspot_top_n: > 0 arms per-unit :mod:`cProfile` capture (needs
            ``profile``); each unit's top-N hotspot rows are written as
            JSON and folded into the merged profile.
        spec_fingerprint: hash of the normalized campaign spec (options)
            that produced the units.  Recorded in the journal header;
            resuming against a journal whose header carries a *different*
            spec fingerprint raises
            :class:`~repro.exec.journal.JournalSpecMismatch` instead of
            silently mixing two configurations.  ``None`` skips the check.
        cancel: zero-arg callable polled between task settles; returning
            ``True`` aborts the campaign with :class:`CampaignCancelled`
            (journaled tasks survive, so a ``resume`` run continues from
            the cancellation point).  The long-lived service uses this as
            its job-cancellation hook.
        backend: an :class:`~repro.dist.backend.ExecutorBackend` that
            runs the pending units.  ``None`` (default) builds a
            per-run :class:`~repro.dist.local.LocalPoolBackend` — the
            historical single-host behaviour.  Caller-supplied backends
            are never closed by the engine, so one long-lived backend
            (e.g. a :class:`~repro.dist.queue.QueueBackend` with its
            worker fleet) can serve many campaigns.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        policy: Optional[EnginePolicy] = None,
        *,
        encode: Optional[Callable[[Any], Any]] = None,
        decode: Optional[Callable[[Any], Any]] = None,
        journal: "str | Path | None" = None,
        resume: bool = False,
        progress: "ProgressHook | str | None" = "auto",
        trace: "str | Path | None" = None,
        profile: "str | Path | None" = None,
        hotspot_top_n: int = 0,
        spec_fingerprint: Optional[str] = None,
        cancel: Optional[Callable[[], bool]] = None,
        backend: "Optional[ExecutorBackend]" = None,
    ) -> None:
        self.fn = fn
        self.policy = policy or EnginePolicy()
        self.backend = backend
        self.encode = encode or (lambda value: value)
        self.decode = decode or (lambda value: value)
        self.journal_path = Path(journal) if journal is not None else None
        self.resume = resume
        self.spec_fingerprint = spec_fingerprint
        self.cancel = cancel
        self.trace_dir = Path(trace) if trace is not None else None
        self.profile_dir = Path(profile) if profile is not None else None
        if hotspot_top_n < 0:
            raise ValueError(f"hotspot_top_n must be >= 0, got {hotspot_top_n}")
        if hotspot_top_n and self.profile_dir is None:
            raise ValueError("hotspot_top_n requires a profile directory")
        self.hotspot_top_n = hotspot_top_n
        self._tracer: Optional[EngineTracer] = None
        self._profiler: Optional[PhaseProfiler] = None
        self.progress: Optional[ProgressHook]
        if progress == "auto":
            self.progress = default_progress_hook()
        else:
            self.progress = progress if callable(progress) else None

    # ------------------------------------------------------------------
    def run(self, units: Sequence[WorkUnit]) -> ExecutionReport:
        units = list(units)
        check_unique_keys(units)
        started = time.perf_counter()

        records: Dict[str, TaskRecord] = {}
        # Imported here, not at module top: the dist package imports the
        # engine's task/record types, so a top-level import would cycle.
        from ..dist.backend import ExecutionContext

        backend = self.backend
        owned = backend is None
        if backend is None:
            from ..dist.local import LocalPoolBackend

            backend = LocalPoolBackend()
        mode, jobs = backend.plan(self.policy)
        summary = CampaignSummary(total=len(units), jobs=jobs, mode=mode)
        if self.trace_dir is not None:
            self._tracer = EngineTracer(self.trace_dir)
            self._tracer.campaign_started(len(units), summary.jobs, summary.mode)
        self._profiler = PhaseProfiler() if self.profile_dir is not None else None
        self._emit(ProgressEvent(kind=CAMPAIGN_STARTED, total=len(units)))

        try:
            journal = self._open_journal(units, records)
        except Exception:
            self._abandon_observers()
            raise
        summary.cached = len(records)
        for record in records.values():
            if self._tracer is not None:
                self._tracer.task_settled(
                    record.key,
                    record.status,
                    record.attempts,
                    record.elapsed_s,
                    record.worker,
                    record.cached,
                )
            self._emit_finished(record, len(records), len(units), started)
        pending = [u for u in units if u.key not in records]

        try:
            if pending:
                ctx = ExecutionContext(
                    fn=self.fn,
                    policy=self.policy,
                    settle=self._make_settler(
                        records, journal, summary, len(units), started
                    ),
                    check_cancelled=self._check_cancelled,
                    record_retry=self._make_retry_recorder(summary),
                    sleep=self._sleep,
                    cancellable=self.cancel is not None,
                    profiler=self._profiler,
                    hotspot_spec=(
                        self._hotspot_spec if self.hotspot_top_n > 0 else None
                    ),
                    encode=self.encode,
                    decode=self.decode,
                    telemetry=(
                        self._tracer.telemetry if self._tracer is not None else None
                    ),
                    trace_dir=self.trace_dir,
                    journal_path=self.journal_path,
                )
                backend.execute(pending, ctx)
        except BaseException:
            # Cancellation (or a crash) must not leak open trace handles
            # in a long-lived server; settled tasks are already journaled.
            self._abandon_observers()
            raise
        finally:
            if journal is not None:
                journal.close()
            if owned:
                backend.close()

        summary.wall_time_s = time.perf_counter() - started
        self._emit(
            ProgressEvent(
                kind=CAMPAIGN_FINISHED,
                total=len(units),
                done=len(records),
                wall_s=summary.wall_time_s,
            )
        )
        telemetry: Optional[TelemetryRegistry] = None
        if self._tracer is not None:
            self._tracer.campaign_finished(
                dataclasses.asdict(summary), [u.key for u in units]
            )
            telemetry = self._tracer.telemetry
            self._tracer = None
        if self._profiler is not None:
            write_profile(
                self.profile_dir / ENGINE_PROFILE_NAME,
                self._profiler,
                key="campaign",
                kind="engine",
            )
            merge_profile_dir(self.profile_dir)
            self._profiler = None
        return ExecutionReport(
            records=[records[u.key] for u in units],
            summary=summary,
            telemetry=telemetry,
            profile_dir=self.profile_dir,
        )

    def _abandon_observers(self) -> None:
        """Close the tracer's file and drop the profiler without writing
        footers/manifests — the next (resumed) run rewrites them whole."""
        if self._tracer is not None:
            self._tracer.writer.close()
            self._tracer = None
        self._profiler = None

    def _check_cancelled(self) -> None:
        if self.cancel is not None and self.cancel():
            raise CampaignCancelled("campaign cancelled")

    # ------------------------------------------------------------------
    # journal wiring
    # ------------------------------------------------------------------
    def _open_journal(
        self, units: Sequence[WorkUnit], records: Dict[str, TaskRecord]
    ) -> Optional[RunJournal]:
        if self.journal_path is None:
            return None
        campaign_fp = fingerprint(sorted(u.key for u in units))
        fresh = True
        if self.resume:
            state = load_journal(self.journal_path)
            check_spec_fingerprint(state, self.journal_path, self.spec_fingerprint)
            fresh = state.header is None and not state.tasks
            for unit in units:
                entry = state.tasks.get(unit.key)
                if entry is None or entry.get("status") != "ok":
                    continue
                records[unit.key] = TaskRecord(
                    key=unit.key,
                    status="ok",
                    attempts=int(entry.get("attempts", 1)),
                    elapsed_s=float(entry.get("elapsed_s", 0.0)),
                    worker=entry.get("worker"),
                    result=self.decode(entry.get("result")),
                    cached=True,
                )
        elif self.journal_path.exists():
            self.journal_path.unlink()
        journal = RunJournal(self.journal_path)
        if fresh:
            journal.write_header(
                campaign_fp, total=len(units), spec_fingerprint=self.spec_fingerprint
            )
        return journal

    # ------------------------------------------------------------------
    # settling
    # ------------------------------------------------------------------
    def _make_settler(
        self,
        records: Dict[str, TaskRecord],
        journal: Optional[RunJournal],
        summary: CampaignSummary,
        total: int,
        started: float,
    ) -> Callable[[TaskRecord], None]:
        def settle(record: TaskRecord) -> None:
            records[record.key] = record
            summary.executed += 1
            if record.error is not None:
                summary.errors += 1
            if record.worker is not None:
                summary.per_worker_tasks[record.worker] = (
                    summary.per_worker_tasks.get(record.worker, 0) + 1
                )
                summary.per_worker_busy_s[record.worker] = (
                    summary.per_worker_busy_s.get(record.worker, 0.0)
                    + record.elapsed_s
                )
            summary.busy_time_s += record.elapsed_s
            if self._tracer is not None:
                self._tracer.task_settled(
                    record.key,
                    record.status,
                    record.attempts,
                    record.elapsed_s,
                    record.worker,
                    record.cached,
                )
            if journal is not None:
                if record.ok:
                    journal.append_task(
                        record.key,
                        "ok",
                        record.attempts,
                        record.elapsed_s,
                        worker=record.worker,
                        result=self.encode(record.result),
                    )
                else:
                    journal.append_task(
                        record.key,
                        "error",
                        record.attempts,
                        record.elapsed_s,
                        worker=record.worker,
                        error=record.error.message,
                        error_type=record.error.error_type,
                    )
            self._emit_finished(record, len(records), total, started)

        return settle

    def _emit(self, event: ProgressEvent) -> None:
        if self._tracer is not None and event.kind == TASK_RETRY:
            self._tracer.task_retry(event.key or "?", event.attempts)
        if self.progress is not None:
            self.progress(event)

    def _emit_finished(
        self, record: TaskRecord, done: int, total: int, started: float
    ) -> None:
        self._emit(
            ProgressEvent(
                kind=TASK_FINISHED,
                total=total,
                done=done,
                key=record.key,
                status=record.status,
                attempts=record.attempts,
                elapsed_s=record.elapsed_s,
                cached=record.cached,
                wall_s=time.perf_counter() - started,
            )
        )

    def _make_retry_recorder(
        self, summary: CampaignSummary
    ) -> Callable[[str, int], None]:
        """Backends report each retry here; the engine counts and traces it."""

        def record_retry(key: str, attempts: int) -> None:
            summary.retries += 1
            self._emit(
                ProgressEvent(
                    kind=TASK_RETRY,
                    total=summary.total,
                    key=key,
                    attempts=attempts,
                )
            )

        return record_retry

    def _hotspot_spec(self, unit: WorkUnit) -> "Optional[Tuple[str, str, int]]":
        if self.hotspot_top_n <= 0:
            return None
        # A distinct key suffix keeps the hotspot file from colliding with
        # the unit profile the task function itself may write.
        path = unit_profile_path(self.profile_dir, unit.key + "#hotspots")
        return (str(path), unit.key, self.hotspot_top_n)

    def _sleep(self, seconds: float) -> None:
        """Back-off sleep, attributed to ``engine.retry_wait`` when profiling."""
        with phase(self._profiler, "engine.retry_wait"):
            time.sleep(seconds)

