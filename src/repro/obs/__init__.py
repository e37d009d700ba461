"""Observability: end-to-end tracing and telemetry for the assurance loop.

The evidence trail used to live (and die) in process memory — the
:class:`~repro.core.events.EventBus` log and
:class:`~repro.core.metrics.DependabilityMetrics`.  This package makes it
durable and queryable across every layer:

* :mod:`repro.obs.trace` — span-based JSONL tracing (run → iteration →
  role execution), :class:`TraceRecorder` for orchestration runs,
  :class:`EngineTracer` for the execution engine's task dispatch, and a
  deterministic campaign manifest merging per-worker trace files.
* :mod:`repro.obs.telemetry` — a picklable registry of counters, gauges
  and log-linear histograms, mergeable across worker processes.
* :mod:`repro.obs.profile` — the phase profiler: attributes wall/CPU
  time to orchestration and engine phases, merges worker profiles like
  telemetry, and optionally captures per-unit ``cProfile`` hotspots.
* :mod:`repro.obs.metrics` — Prometheus text exposition over the
  telemetry registry (rendering, parsing, validation, ``metrics.json``
  snapshots); what ``GET /v1/metrics`` serves.
* :mod:`repro.obs.index` — the cross-run trace query engine: an
  incrementally refreshed, schema-versioned index over run/job trace
  trees, with filters, group-by aggregation and drift verification.
* :mod:`repro.obs.top` — the live fleet dashboard (``obs top``) over a
  running service or a trace directory.
* :mod:`repro.obs.cli` — the ``python -m repro.obs`` command
  (``summarize`` / ``tail`` / ``diff`` / ``query`` / ``top`` /
  ``profile``): recomputes dependability
  counts from the raw event records and cross-checks them against each
  run's recorded metrics summary, making traced campaigns
  self-certifying.

Library modules log under the ``repro.*`` logger hierarchy (the stdlib
:mod:`logging` module); :func:`configure_logging` is the one-call switch
CLI entry points expose via ``--log-level``.
"""

from __future__ import annotations

import logging
from typing import Optional

from .profile import (
    ENGINE_PROFILE_NAME,
    MERGED_PROFILE_NAME,
    PROFILE_SCHEMA_VERSION,
    PROFILE_SUFFIX,
    PhaseProfiler,
    PhaseStat,
    capture_hotspots,
    load_profile,
    merge_profile_dir,
    render_profile,
    unit_profile_path,
    write_profile,
)
from .index import (
    INDEX_FILE_NAME,
    INDEX_SCHEMA_VERSION,
    build_row,
    index_rows,
    refresh_index,
    verify_index,
)
from .metrics import (
    EXPOSITION_CONTENT_TYPE,
    METRICS_FILE_NAME,
    METRICS_SCHEMA_VERSION,
    load_metrics_json,
    parse_exposition,
    render_exposition,
    validate_exposition,
    write_metrics_json,
)
from .telemetry import Counter, Gauge, Histogram, TelemetryRegistry
from .trace import (
    ENGINE_TRACE_NAME,
    MANIFEST_NAME,
    TRACE_SCHEMA_VERSION,
    TRACE_SUFFIX,
    EngineTracer,
    TraceData,
    TraceRecorder,
    TraceWriter,
    aggregate_counts,
    discover_traces,
    load_run_traces,
    load_trace,
    recompute_counts,
    safe_trace_name,
    trace_controller,
    unit_trace_path,
    verify_trace,
    write_manifest,
)


def configure_logging(level: "int | str" = logging.INFO, stream=None) -> logging.Logger:
    """Configure the ``repro`` logger hierarchy for CLI / script use.

    Library modules never configure logging themselves (standard library
    etiquette); entry points call this once.  Returns the root ``repro``
    logger.  Idempotent: an existing handler is re-leveled, not duplicated.
    """
    if isinstance(level, str):
        level = getattr(logging, level.upper())
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    if not logger.handlers:
        handler = logging.StreamHandler(stream)
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)-7s %(name)s: %(message)s")
        )
        logger.addHandler(handler)
    else:
        for handler in logger.handlers:
            handler.setLevel(logging.NOTSET)
    return logger


__all__ = [
    "Counter",
    "ENGINE_PROFILE_NAME",
    "ENGINE_TRACE_NAME",
    "EXPOSITION_CONTENT_TYPE",
    "EngineTracer",
    "Gauge",
    "Histogram",
    "INDEX_FILE_NAME",
    "INDEX_SCHEMA_VERSION",
    "MANIFEST_NAME",
    "MERGED_PROFILE_NAME",
    "METRICS_FILE_NAME",
    "METRICS_SCHEMA_VERSION",
    "PROFILE_SCHEMA_VERSION",
    "PROFILE_SUFFIX",
    "PhaseProfiler",
    "PhaseStat",
    "TRACE_SCHEMA_VERSION",
    "TRACE_SUFFIX",
    "TelemetryRegistry",
    "TraceData",
    "TraceRecorder",
    "TraceWriter",
    "aggregate_counts",
    "build_row",
    "capture_hotspots",
    "configure_logging",
    "discover_traces",
    "index_rows",
    "load_metrics_json",
    "load_profile",
    "load_run_traces",
    "load_trace",
    "merge_profile_dir",
    "parse_exposition",
    "recompute_counts",
    "refresh_index",
    "render_exposition",
    "render_profile",
    "safe_trace_name",
    "trace_controller",
    "unit_profile_path",
    "unit_trace_path",
    "validate_exposition",
    "verify_index",
    "verify_trace",
    "write_manifest",
    "write_metrics_json",
    "write_profile",
]
