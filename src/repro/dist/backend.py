"""The executor-backend interface: where campaign work units actually run.

:class:`~repro.exec.engine.CampaignEngine` owns campaign *semantics* —
unit identity, journaling/resume, tracing, progress, the summary — and
delegates *execution* to an :class:`ExecutorBackend`: take the pending
work units, run them somewhere, and settle one
:class:`~repro.exec.engine.TaskRecord` per unit through the
:class:`ExecutionContext` the engine hands over.  Two backends ship:

* :class:`~repro.dist.local.LocalPoolBackend` — the reference backend:
  the forked ``ProcessPoolExecutor`` (with serial fallback) that used to
  live inside the engine;
* :class:`~repro.dist.queue.QueueBackend` — N "host" worker processes
  fed from a durable on-disk work queue (claim files, heartbeats, lease
  reclaim, exactly-once outcome journaling — see
  :mod:`repro.dist.spool`).

The contract every backend must honour, so that reports stay
byte-identical across backends:

* every pending unit is settled exactly once (``ok`` or ``error``);
* results reach ``settle`` decoded (a backend that ships results across
  a byte boundary applies ``ctx.encode``/``ctx.decode`` to round-trip
  them — the same hooks the journal uses, so the round-trip is already
  part of the determinism contract);
* retries are reported through ``ctx.record_retry`` and terminal
  failures become error *records*, never exceptions — the campaign runs
  to completion;
* ``ctx.check_cancelled()`` is polled between settles so cancellation
  interrupts promptly and journaled work survives.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Tuple

from ..exec.engine import EnginePolicy, TaskError, TaskRecord
from ..exec.work import WorkUnit
from ..obs.profile import PhaseProfiler
from ..obs.telemetry import TelemetryRegistry


@dataclass
class ExecutionContext:
    """Everything a backend needs from the engine for one ``run()``.

    Attributes:
        fn: the per-unit worker callable (module-level, picklable).
        policy: the engine's :class:`~repro.exec.engine.EnginePolicy`.
        settle: deliver one settled record; the engine journals, traces
            and emits progress from here.  Must be called exactly once
            per pending unit, from the engine's thread.
        check_cancelled: raises
            :class:`~repro.exec.engine.CampaignCancelled` when the
            engine's cancel hook fired; poll between settles.
        record_retry: report one retry (key, attempts-so-far); the
            engine counts it and emits the ``task_retry`` event.
        sleep: back-off sleep, attributed to ``engine.retry_wait`` when
            the engine is profiling.
        cancellable: whether a cancel hook is armed at all — backends
            use bounded waits instead of blocking forever when it is.
        profiler: the engine's phase profiler (``None`` when the
            campaign is not profiled).
        hotspot_spec: per-unit cProfile capture spec builder, or
            ``None`` when hotspot capture is disarmed.
        encode: result -> JSON-ready value (journal/byte-boundary form).
        decode: inverse of ``encode``.
        telemetry: the engine tracer's registry when the campaign is
            traced (``None`` otherwise); backends may add counters.
        trace_dir: campaign trace directory, if tracing is on (backends
            may record it for audit tooling).
        journal_path: the engine's merged journal path, if journaled.
    """

    fn: Callable[[Any], Any]
    policy: EnginePolicy
    settle: Callable[[TaskRecord], None]
    check_cancelled: Callable[[], None]
    record_retry: Callable[[str, int], None]
    sleep: Callable[[float], None] = time.sleep
    cancellable: bool = False
    profiler: Optional[PhaseProfiler] = None
    hotspot_spec: Optional[Callable[[WorkUnit], Tuple[str, str, int]]] = None
    encode: Callable[[Any], Any] = lambda value: value
    decode: Callable[[Any], Any] = lambda value: value
    telemetry: Optional[TelemetryRegistry] = None
    trace_dir: Optional[Path] = None
    journal_path: Optional[Path] = None

    def backoff(self, attempts: int) -> float:
        return self.policy.retry_backoff_s * (2 ** (attempts - 1))

    def unit_hotspot_spec(self, unit: WorkUnit) -> "Optional[Tuple[str, str, int]]":
        if self.hotspot_spec is None:
            return None
        return self.hotspot_spec(unit)


def error_record(
    unit_key: str, attempts: int, exc: BaseException, elapsed_s: float = 0.0
) -> TaskRecord:
    """A terminal-failure record for one unit (an outcome, not a raise)."""
    error = TaskError(
        key=unit_key,
        error_type=type(exc).__name__,
        message=str(exc) or repr(exc),
        attempts=attempts,
    )
    return TaskRecord(
        key=unit_key,
        status="error",
        attempts=attempts,
        elapsed_s=elapsed_s,
        error=error,
    )


class ExecutorBackend:
    """Where pending work units run; see the module docstring contract.

    A backend may outlive a single campaign: the search driver runs one
    engine per batch against a single backend, so ``execute`` must be
    re-enterable (serially) and ``close`` releases whatever long-lived
    resources the backend holds (worker processes, spool directories).
    Engines never close a caller-supplied backend.
    """

    #: Registry/CLI name; subclasses override.
    name = "abstract"
    #: Whether per-unit cProfile hotspot capture can be honoured.
    supports_hotspots = False

    def plan(self, policy: EnginePolicy) -> "Tuple[str, int]":
        """``(mode, effective_jobs)`` for the campaign summary."""
        raise NotImplementedError

    def execute(
        self, pending: Sequence[WorkUnit], ctx: ExecutionContext
    ) -> None:
        """Run every pending unit; settle each exactly once via ``ctx``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release long-lived resources; idempotent."""

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


#: CLI-facing backend names.
BACKEND_CHOICES: Tuple[str, ...] = ("local", "queue")


def create_backend(
    name: str,
    *,
    hosts: int = 0,
    spool: "str | Path | None" = None,
    telemetry: Optional[TelemetryRegistry] = None,
    **knobs: Any,
) -> ExecutorBackend:
    """Build a backend by CLI name.

    ``local`` ignores every distribution knob (parallelism comes from
    ``EnginePolicy.jobs``).  ``queue`` runs ``hosts`` worker processes
    (default: the policy's job count at plan time is *not* consulted —
    pass ``hosts`` explicitly, 0 means 2) over the on-disk spool at
    ``spool`` (an ephemeral temp spool when ``None``); extra keyword
    knobs (``lease_timeout_s``, ``heartbeat_s``, ...) pass through to
    :class:`~repro.dist.queue.QueueBackend`.
    """
    if name == "local":
        from .local import LocalPoolBackend

        return LocalPoolBackend()
    if name == "queue":
        from .queue import QueueBackend

        return QueueBackend(
            hosts=hosts or 2, spool=spool, telemetry=telemetry, **knobs
        )
    raise ValueError(
        f"unknown executor backend {name!r} (choose from {BACKEND_CHOICES})"
    )
