"""Span-based tracing: durable, replayable evidence for every run.

A *trace* is a versioned JSONL file — one per orchestration run (or per
campaign work unit) — carrying four record kinds:

``trace_header``
    ``{"kind": "trace_header", "schema": 1, "trace_kind": "run"|"engine",
    "trace_id": ..., "meta": {...}}`` — identity and provenance.
``event``
    one line per :class:`~repro.core.events.Event` published on the run's
    bus: ``{"kind": "event", "seq": N, "event": "<EventKind.value>",
    "iteration": i, "time": t, "role": ..., "payload": {...}}``.
``span``
    a closed timing interval: ``{"kind": "span", "span_id", "parent_id",
    "span_kind": "run"|"iteration"|"role"|"task", "name", "start_s",
    "duration_s", "iteration", "attrs"}``.  Spans nest run → iteration →
    role execution; engine traces carry one ``task`` span per settled
    work unit.
``trace_footer``
    the run's recorded :meth:`~repro.core.metrics.DependabilityMetrics.summary`
    and the run's :class:`~repro.obs.telemetry.TelemetryRegistry` snapshot —
    written last so ``repro.obs summarize`` can *recompute* counts from the
    events and cross-check them against what the metrics collector saw.

:class:`TraceRecorder` attaches to an
:class:`~repro.core.orchestrator.OrchestrationController` (an ``EventBus``
subscriber plus the controller's single ``tracer`` instrumentation hook);
:class:`EngineTracer` attaches to a
:class:`~repro.exec.engine.CampaignEngine` and additionally merges the
per-unit trace files written by worker processes into a deterministic
``manifest.json``.  Tracing is strictly opt-in: without a recorder the
orchestrator pays one ``is not None`` check per hook site and nothing is
written.
"""

from __future__ import annotations

import hashlib
import json
import re
import time as wall_clock
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, IO, Iterable, List, Optional, Tuple

from ..core.events import Event, EventKind
from ..durable import read_complete_lines
from ..jsonutil import dumps as strict_dumps
from .profile import phase
from .telemetry import TelemetryRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.metrics import DependabilityMetrics
    from ..core.orchestrator import OrchestrationController

#: Version stamp of the trace file layout described above.
TRACE_SCHEMA_VERSION = 1

#: File name suffix every trace file carries.
TRACE_SUFFIX = ".trace.jsonl"

#: Engine (task-dispatch) trace file name inside a campaign trace dir.
ENGINE_TRACE_NAME = "engine" + TRACE_SUFFIX

#: Campaign manifest file name inside a campaign trace dir.
MANIFEST_NAME = "manifest.json"

#: Marker file of a service job directory (see :mod:`repro.service.store`;
#: duplicated here so obs never imports the service package).
JOB_FILE_NAME = "job.json"

#: Subdirectories of a job directory that hold traces.
_JOB_TRACE_SUBDIRS = ("trace", "search")

_SAFE_CHARS = re.compile(r"[^A-Za-z0-9._-]+")


def _digest(text: str, length: int = 10) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:length]


def safe_trace_name(key: str) -> str:
    """Filesystem-safe, collision-free file name for a unit key."""
    safe = _SAFE_CHARS.sub("-", key).strip("-")[:80] or "unit"
    return f"{safe}-{_digest(key)}{TRACE_SUFFIX}"


def unit_trace_path(trace_dir: "str | Path", key: str) -> Path:
    """Where a campaign work unit's run trace lives under ``trace_dir``."""
    return Path(trace_dir) / "units" / safe_trace_name(key)


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
class TraceWriter:
    """Append-only JSONL writer (lazy open, flush per record).

    Payload values that are not JSON-serializable degrade to ``repr`` —
    a trace must never lose a record over an exotic payload object.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._fh: Optional[IO[str]] = None
        self.records_written = 0

    def write(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w", encoding="utf-8")
        self._fh.write(strict_dumps(record, sort_keys=True, default=repr) + "\n")
        self._fh.flush()
        self.records_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class TraceRecorder:
    """Record one orchestration run into a trace file.

    Usage::

        recorder = TraceRecorder(path, trace_id="nominal:0").attach(controller)
        result = controller.run()
        recorder.finalize(result.metrics)

    Attaching subscribes to the controller's event bus (every published
    event becomes an ``event`` record and updates the telemetry registry)
    and installs the recorder as the controller's ``tracer`` so role
    executions produce precisely-timed ``role`` spans.
    """

    def __init__(
        self,
        path: "str | Path",
        trace_id: str = "run",
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.writer = TraceWriter(path)
        self.trace_id = trace_id
        self.meta = dict(meta or {})
        self.telemetry = TelemetryRegistry()
        #: Optional :class:`~repro.obs.profile.PhaseProfiler`; when armed,
        #: every record write is attributed to the ``trace.io`` phase.
        self.profiler: Optional[Any] = None
        self._t0 = wall_clock.perf_counter()
        self._seq = 0
        self._next_span_id = 1
        self._spans_written = 0
        self._run_span: Optional[Tuple[int, float]] = None  # (span_id, start)
        self._iter_span: Optional[Tuple[int, float, int]] = None  # (id, start, iteration)
        self._unsubscribe = None
        self._controller: Optional["OrchestrationController"] = None
        self._finalized = False

    def _write(self, record: Dict[str, Any]) -> None:
        """Write one record, attributing the I/O to ``trace.io`` when a
        phase profiler is armed."""
        with phase(self.profiler, "trace.io"):
            self.writer.write(record)

    # ------------------------------------------------------------------
    def attach(self, controller: "OrchestrationController") -> "TraceRecorder":
        self._write(
            {
                "kind": "trace_header",
                "schema": TRACE_SCHEMA_VERSION,
                "trace_kind": "run",
                "trace_id": self.trace_id,
                "meta": self.meta,
            }
        )
        self._unsubscribe = controller.events.subscribe(self._on_event)
        controller.tracer = self
        self._controller = controller
        return self

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return wall_clock.perf_counter() - self._t0

    def _open_span(self) -> Tuple[int, float]:
        span_id = self._next_span_id
        self._next_span_id += 1
        return span_id, self._now()

    def _write_span(
        self,
        span_id: int,
        parent_id: Optional[int],
        span_kind: str,
        name: str,
        start_s: float,
        duration_s: float,
        iteration: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._write(
            {
                "kind": "span",
                "span_id": span_id,
                "parent_id": parent_id,
                "span_kind": span_kind,
                "name": name,
                "start_s": round(start_s, 9),
                "duration_s": round(duration_s, 9),
                "iteration": iteration,
                "attrs": attrs or {},
            }
        )
        self._spans_written += 1

    # ------------------------------------------------------------------
    # EventBus subscriber
    # ------------------------------------------------------------------
    def _on_event(self, event: Event) -> None:
        self._seq += 1
        self._write(
            {
                "kind": "event",
                "seq": self._seq,
                "event": event.kind.value,
                "iteration": event.iteration,
                "time": event.time,
                "role": event.role,
                "payload": event.payload,
            }
        )
        self.telemetry.counter(f"events.{event.kind.value}").inc()

        kind = event.kind
        if kind is EventKind.ITERATION_STARTED:
            if self._run_span is None:
                self._run_span = self._open_span()
            self._iter_span = (*self._open_span(), event.iteration)
        elif kind is EventKind.ITERATION_FINISHED:
            self._close_iteration_span()
            self.telemetry.gauge("iterations").set(event.iteration + 1)
        elif kind is EventKind.ROLE_EXECUTED:
            verdict = event.payload.get("verdict")
            if verdict is not None:
                self.telemetry.counter(f"verdicts.{verdict}").inc()
        elif kind is EventKind.VIOLATION_DETECTED:
            category = event.payload.get("category", "generic")
            self.telemetry.counter(f"violations.{category}").inc()
        elif kind is EventKind.FAULT_INJECTED:
            fault = event.payload.get("fault", "fault")
            self.telemetry.counter(f"faults.{fault}").inc()
        elif kind is EventKind.RECOVERY_ACTIVATED:
            self.telemetry.counter("recovery.activations").inc()
        elif kind is EventKind.DEADLINE_EXCEEDED:
            self.telemetry.counter("resilience.deadline_exceeded").inc()
        elif kind is EventKind.DEGRADED_MODE_ENTERED:
            self.telemetry.counter("resilience.degraded_entered").inc()
        elif kind is EventKind.DEGRADED_MODE_EXITED:
            self.telemetry.counter("resilience.degraded_exited").inc()
        elif kind is EventKind.ACTION_HELD:
            self.telemetry.counter("resilience.holds").inc()
        elif kind is EventKind.ROLE_RETRIED:
            self.telemetry.counter("resilience.retries").inc()
        elif kind is EventKind.RUN_TERMINATED:
            self._close_iteration_span()
            if self._run_span is not None:
                span_id, start = self._run_span
                self._run_span = None
                self._write_span(
                    span_id,
                    None,
                    "run",
                    self.trace_id,
                    start,
                    self._now() - start,
                    attrs={"reason": event.payload.get("reason")},
                )

    def _close_iteration_span(self) -> None:
        if self._iter_span is None:
            return
        span_id, start, iteration = self._iter_span
        self._iter_span = None
        parent = self._run_span[0] if self._run_span else None
        self._write_span(
            span_id,
            parent,
            "iteration",
            f"iteration[{iteration}]",
            start,
            self._now() - start,
            iteration=iteration,
        )

    # ------------------------------------------------------------------
    # controller instrumentation hook
    # ------------------------------------------------------------------
    def record_role_span(
        self, role: str, iteration: int, elapsed_s: float, verdict: str
    ) -> None:
        """Called by ``OrchestrationController._execute_role`` when tracing."""
        span_id, _ = self._open_span()
        parent = self._iter_span[0] if self._iter_span else None
        self._write_span(
            span_id,
            parent,
            "role",
            role,
            self._now() - elapsed_s,
            elapsed_s,
            iteration=iteration,
            attrs={"verdict": verdict},
        )
        self.telemetry.histogram(f"role_latency_s.{role}").record(elapsed_s)

    # ------------------------------------------------------------------
    def finalize(
        self,
        metrics: Optional["DependabilityMetrics"] = None,
        extras: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Close open spans, write the footer, detach and close the file.

        ``extras`` merges additional top-level fields into the footer
        record (e.g. ``stl_robustness``, computed from world-state frames
        the trace itself does not carry); reserved footer keys win.
        """
        if self._finalized:
            return self.writer.path
        self._finalized = True
        self._close_iteration_span()
        if self._run_span is not None:
            span_id, start = self._run_span
            self._run_span = None
            self._write_span(span_id, None, "run", self.trace_id, start, self._now() - start)
        # The ring-buffer cap only truncates the *in-memory* bus log (this
        # trace received every event via its subscription), but a nonzero
        # count means in-process consumers saw truncated evidence — record
        # it so `obs summarize` can warn.
        dropped = (
            self._controller.events.dropped_events if self._controller is not None else 0
        )
        footer: Dict[str, Any] = dict(extras or {})
        footer.update(
            {
                "kind": "trace_footer",
                "schema": TRACE_SCHEMA_VERSION,
                "trace_id": self.trace_id,
                "events": self._seq,
                "spans": self._spans_written,
                "dropped_events": dropped,
                "metrics_summary": metrics.summary() if metrics is not None else None,
                "telemetry": self.telemetry.snapshot(),
            }
        )
        self._write(footer)
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        if self._controller is not None:
            self._controller.tracer = None
            self._controller = None
        self.writer.close()
        return self.writer.path


def trace_controller(
    controller: "OrchestrationController",
    path: "str | Path",
    trace_id: str = "run",
    meta: Optional[Dict[str, Any]] = None,
) -> TraceRecorder:
    """Convenience: build a recorder and attach it in one call."""
    return TraceRecorder(path, trace_id=trace_id, meta=meta).attach(controller)


# ----------------------------------------------------------------------
# engine (task-dispatch) tracing
# ----------------------------------------------------------------------
class EngineTracer:
    """Record a :class:`~repro.exec.engine.CampaignEngine` campaign.

    Writes ``<dir>/engine.trace.jsonl`` (one ``task`` span per settled
    unit, retry events, a campaign-level footer with the engine's
    telemetry registry) and, at campaign end, merges whatever per-unit
    run traces the workers produced into ``<dir>/manifest.json`` —
    deterministically, in unit-submission order, regardless of the order
    the pool settled them in.
    """

    def __init__(self, trace_dir: "str | Path") -> None:
        self.trace_dir = Path(trace_dir)
        self.writer = TraceWriter(self.trace_dir / ENGINE_TRACE_NAME)
        self.telemetry = TelemetryRegistry()
        self._t0 = wall_clock.perf_counter()
        self._seq = 0
        self._next_span_id = 1

    def _now(self) -> float:
        return wall_clock.perf_counter() - self._t0

    def campaign_started(self, total: int, jobs: int, mode: str) -> None:
        self.writer.write(
            {
                "kind": "trace_header",
                "schema": TRACE_SCHEMA_VERSION,
                "trace_kind": "engine",
                "trace_id": "campaign",
                "meta": {"total": total, "jobs": jobs, "mode": mode},
            }
        )

    def task_retry(self, key: str, attempts: int) -> None:
        self._seq += 1
        self.writer.write(
            {
                "kind": "event",
                "seq": self._seq,
                "event": "task_retry",
                "iteration": attempts,
                "time": round(self._now(), 6),
                "role": key,
                "payload": {"attempts": attempts},
            }
        )
        self.telemetry.counter("tasks.retries").inc()

    def task_settled(
        self,
        key: str,
        status: str,
        attempts: int,
        elapsed_s: float,
        worker: Optional[str],
        cached: bool,
    ) -> None:
        span_id = self._next_span_id
        self._next_span_id += 1
        self.writer.write(
            {
                "kind": "span",
                "span_id": span_id,
                "parent_id": None,
                "span_kind": "task",
                "name": key,
                "start_s": round(self._now() - elapsed_s, 9),
                "duration_s": round(elapsed_s, 9),
                "iteration": None,
                "attrs": {
                    "status": status,
                    "attempts": attempts,
                    "worker": worker,
                    "cached": cached,
                },
            }
        )
        self.telemetry.counter(f"tasks.{status}").inc()
        if cached:
            self.telemetry.counter("tasks.cached").inc()
        else:
            self.telemetry.histogram("task_latency_s").record(max(elapsed_s, 0.0))
        if worker is not None:
            self.telemetry.counter(f"worker.{worker}.tasks").inc()

    def campaign_finished(
        self, summary: Dict[str, Any], unit_keys: Iterable[str]
    ) -> None:
        """Footer + manifest; closes the engine trace file."""
        self.telemetry.gauge("wall_time_s").set(float(summary.get("wall_time_s", 0.0)))
        self.telemetry.gauge("busy_time_s").set(float(summary.get("busy_time_s", 0.0)))
        self.writer.write(
            {
                "kind": "trace_footer",
                "schema": TRACE_SCHEMA_VERSION,
                "trace_id": "campaign",
                "events": self._seq,
                "spans": self._next_span_id - 1,
                "metrics_summary": None,
                "campaign_summary": summary,
                "telemetry": self.telemetry.snapshot(),
            }
        )
        self.writer.close()
        write_manifest(self.trace_dir, unit_keys)


def write_manifest(trace_dir: "str | Path", unit_keys: Iterable[str]) -> Path:
    """Merge per-worker unit traces into a deterministic campaign manifest.

    Entries appear in unit-submission order and reference only trace
    files that actually exist (a unit that never produced a trace — e.g.
    resumed from a journal without re-running — is listed with
    ``"file": null``).
    """
    trace_dir = Path(trace_dir)
    entries = []
    for key in unit_keys:
        path = unit_trace_path(trace_dir, key)
        entries.append(
            {
                "key": key,
                "file": str(path.relative_to(trace_dir)) if path.exists() else None,
            }
        )
    manifest = {
        "kind": "campaign_manifest",
        "schema": TRACE_SCHEMA_VERSION,
        "engine_trace": ENGINE_TRACE_NAME
        if (trace_dir / ENGINE_TRACE_NAME).exists()
        else None,
        "total": len(entries),
        "traces": entries,
    }
    out = trace_dir / MANIFEST_NAME
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(strict_dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
class TraceData:
    """Parsed contents of one trace file."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.header: Optional[Dict[str, Any]] = None
        self.footer: Optional[Dict[str, Any]] = None
        self.events: List[Dict[str, Any]] = []
        self.spans: List[Dict[str, Any]] = []
        self.corrupt_lines = 0

    @property
    def trace_kind(self) -> str:
        return (self.header or {}).get("trace_kind", "run")

    @property
    def trace_id(self) -> str:
        return (self.header or {}).get("trace_id", self.path.stem)

    def telemetry(self) -> Optional[TelemetryRegistry]:
        if self.footer and self.footer.get("telemetry") is not None:
            return TelemetryRegistry.from_snapshot(self.footer["telemetry"])
        return None


def load_trace(path: "str | Path") -> TraceData:
    """Parse one trace file; a torn final line counts as one corrupt line."""
    path = Path(path)
    data = TraceData(path)
    lines, consumed = read_complete_lines(path)
    if path.stat().st_size > consumed:
        data.corrupt_lines += 1
    for line in lines:
        try:
            record = json.loads(line)
        except (UnicodeDecodeError, json.JSONDecodeError):
            data.corrupt_lines += 1
            continue
        if not isinstance(record, dict):
            data.corrupt_lines += 1
            continue
        kind = record.get("kind")
        if kind == "trace_header":
            data.header = record
        elif kind == "trace_footer":
            data.footer = record
        elif kind == "event":
            data.events.append(record)
        elif kind == "span":
            data.spans.append(record)
        else:
            data.corrupt_lines += 1
    return data


#: `repro.dist` spool marker (kept literal here so `repro.obs` stays
#: importable without pulling in the execution stack).
SPOOL_MANIFEST_NAME = "spool.json"
SPOOL_KIND = "dist_spool"


def _read_spool_manifest(path: Path) -> Optional[Dict[str, Any]]:
    """The spool manifest at ``path``, or ``None`` if not a dist spool."""
    manifest = path / SPOOL_MANIFEST_NAME
    if not manifest.exists():
        return None
    try:
        record = json.loads(manifest.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(record, dict) or record.get("kind") != SPOOL_KIND:
        return None
    return record


def discover_traces(path: "str | Path") -> List[Path]:
    """Trace files under ``path``: the file itself, a manifest's entries
    (in manifest order), every ``*.trace.jsonl`` below a directory
    (sorted by relative path) — or, for a service job directory (marked
    by ``job.json``), the traces of its ``trace/`` and ``search/``
    sub-trees plus any trace files directly inside it, so ``repro.obs
    summarize <job-dir>`` works on whatever the job produced."""
    path = Path(path)
    if path.is_file():
        return [path]
    if not path.is_dir():
        raise FileNotFoundError(f"no trace file or directory at {path}")
    if (path / JOB_FILE_NAME).exists():
        found: List[Path] = []
        for sub in _JOB_TRACE_SUBDIRS:
            subdir = path / sub
            if subdir.is_dir():
                found.extend(discover_traces(subdir))
        found.extend(sorted(path.glob("*" + TRACE_SUFFIX)))
        return found
    spool = _read_spool_manifest(path)
    if spool is not None:
        # A `repro.dist` spool holds outcome journals, not traces; its
        # manifest points at wherever the coordinating engine recorded
        # traces (if it recorded any at all).
        trace_dir = spool.get("trace_dir")
        if trace_dir and Path(trace_dir).is_dir():
            return discover_traces(trace_dir)
        return []
    manifest = path / MANIFEST_NAME
    if manifest.exists():
        entries = json.loads(manifest.read_text()).get("traces", [])
        found = [path / e["file"] for e in entries if e.get("file")]
        engine = path / ENGINE_TRACE_NAME
        if engine.exists():
            found.append(engine)
        return found
    return sorted(
        (p for p in path.rglob("*" + TRACE_SUFFIX)),
        key=lambda p: str(p.relative_to(path)),
    )


def load_run_traces(path: "str | Path") -> List[TraceData]:
    """Every *run* trace under ``path`` (engine traces excluded), sorted
    by trace id for deterministic aggregation."""
    traces = [load_trace(p) for p in discover_traces(path)]
    runs = [t for t in traces if t.trace_kind == "run"]
    runs.sort(key=lambda t: t.trace_id)
    return runs


# ----------------------------------------------------------------------
# recomputation (the self-certification core of `repro.obs summarize`)
# ----------------------------------------------------------------------
def recompute_counts(trace: TraceData) -> Dict[str, Any]:
    """Recompute the metrics-summary count fields from event records only.

    Returns the same shape as the count fields of
    :meth:`DependabilityMetrics.summary` — ``iterations_completed``,
    ``violation_counts``, ``fault_count``, ``recovery_activations`` — so
    a traced run is self-certifying: recomputed counts must equal the
    footer's recorded summary.
    """
    iterations = 0
    violations: Dict[str, int] = {}
    faults = 0
    recoveries = 0
    for event in trace.events:
        name = event.get("event")
        if name == EventKind.ITERATION_FINISHED.value:
            iterations += 1
        elif name == EventKind.VIOLATION_DETECTED.value:
            category = (event.get("payload") or {}).get("category", "generic")
            violations[category] = violations.get(category, 0) + 1
        elif name == EventKind.FAULT_INJECTED.value:
            faults += 1
        elif name == EventKind.RECOVERY_ACTIVATED.value:
            recoveries += 1
    return {
        "iterations_completed": iterations,
        "violation_counts": violations,
        "fault_count": faults,
        "recovery_activations": recoveries,
    }


def verify_trace(trace: TraceData) -> Tuple[bool, List[str]]:
    """Check a run trace's recomputed counts against its recorded summary.

    Returns ``(consistent, mismatch_descriptions)``; a trace without a
    recorded metrics summary is vacuously consistent.
    """
    recorded = (trace.footer or {}).get("metrics_summary")
    if recorded is None:
        return True, []
    recomputed = recompute_counts(trace)
    mismatches: List[str] = []
    for field, value in recomputed.items():
        expected = recorded.get(field)
        if field == "violation_counts":
            expected = dict(expected or {})
        if value != expected:
            mismatches.append(f"{field}: recomputed {value!r} != recorded {expected!r}")
    return not mismatches, mismatches


#: Search-trace event kinds and the ``search_summary`` footer field each
#: one recomputes (see :mod:`repro.search.driver`).
SEARCH_EVENT_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("candidate_sampled", "candidates"),
    ("candidate_evaluated", "evaluations"),
    ("counterexample_found", "counterexamples"),
    ("minimization_step", "minimization_steps"),
)


def recompute_search_counts(trace: TraceData) -> Dict[str, int]:
    """Recompute a search trace's summary counts from raw events only.

    Same self-certification pattern as :func:`recompute_counts`: the
    recomputed candidate/evaluation/counterexample/minimization counts
    must match the ``search_summary`` the driver recorded in its footer.
    """
    counts = {field: 0 for _event, field in SEARCH_EVENT_FIELDS}
    by_event = dict(SEARCH_EVENT_FIELDS)
    for event in trace.events:
        field = by_event.get(event.get("event", ""))
        if field is not None:
            counts[field] += 1
    return counts


def verify_search_trace(trace: TraceData) -> Tuple[bool, List[str]]:
    """Cross-check a search trace's recomputed counts against its footer.

    A search trace without a recorded ``search_summary`` is vacuously
    consistent (e.g. the driver crashed before writing the footer — the
    caller sees that as a missing footer, not a count mismatch).
    """
    recorded = (trace.footer or {}).get("search_summary")
    if recorded is None:
        return True, []
    recomputed = recompute_search_counts(trace)
    mismatches: List[str] = []
    for field, value in recomputed.items():
        if value != recorded.get(field):
            mismatches.append(
                f"{field}: recomputed {value!r} != recorded {recorded.get(field)!r}"
            )
    return not mismatches, mismatches


def aggregate_search_counts(traces: Iterable[TraceData]) -> Dict[str, int]:
    """Sum recomputed search counts across search traces."""
    total = {field: 0 for _event, field in SEARCH_EVENT_FIELDS}
    total["traces"] = 0
    for trace in traces:
        total["traces"] += 1
        for field, value in recompute_search_counts(trace).items():
            total[field] += value
    return total


def aggregate_counts(traces: Iterable[TraceData]) -> Dict[str, Any]:
    """Sum recomputed counts across run traces (deterministic given the
    trace set, independent of execution order or worker count)."""
    total = {
        "runs": 0,
        "iterations_completed": 0,
        "violation_counts": {},
        "fault_count": 0,
        "recovery_activations": 0,
        "events": {},
    }
    for trace in traces:
        counts = recompute_counts(trace)
        total["runs"] += 1
        total["iterations_completed"] += counts["iterations_completed"]
        total["fault_count"] += counts["fault_count"]
        total["recovery_activations"] += counts["recovery_activations"]
        for category, n in counts["violation_counts"].items():
            total["violation_counts"][category] = (
                total["violation_counts"].get(category, 0) + n
            )
        for event in trace.events:
            name = event.get("event", "?")
            total["events"][name] = total["events"].get(name, 0) + 1
    return total
