"""The on-disk job store: one directory per job, every byte durable.

Layout under the service root (see DESIGN.md §9)::

    <root>/
      jobs/
        j000001/
          job.json        immutable submission record (id, seq, spec)
          state.json      full mutable JobRecord (atomic replace on save)
          events.jsonl    append-only progress/lifecycle event stream
          journal.jsonl   engine run journal   (campaign jobs)
          trace/          schema-v1 trace dir  (campaign jobs)
          search/         driver artifacts     (falsify jobs)
          report.json     canonical final report
          error.txt       traceback, when the job failed
        j000002/
          ...

Everything the scheduler knows lives here — the server process holds no
state that is not reconstructible from this tree, which is what makes
kill-and-restart recovery a directory walk rather than a protocol.
Files are written through :mod:`repro.durable`: a crash mid-save of
``state.json`` leaves the previous consistent state, never a torn file.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..durable import append_line, atomic_write, read_complete_lines
from ..jsonutil import dumps as strict_dumps
from ..obs.telemetry import TelemetryRegistry
from .jobs import JobRecord, JobSpec

JOBS_DIR_NAME = "jobs"
JOB_FILE = "job.json"
STATE_FILE = "state.json"
EVENTS_FILE = "events.jsonl"
ERROR_FILE = "error.txt"


class UnknownJob(KeyError):
    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        super().__init__(f"unknown job {job_id!r}")


def _write_json(path: Path, data: Dict) -> None:
    atomic_write(path, strict_dumps(data, indent=2, sort_keys=True) + "\n")


class JobStore:
    """Durable job records under one service root directory.

    Thread-safe: the id-allocation and per-job event appends are locked;
    ``state.json`` saves are atomic replaces so concurrent readers (the
    HTTP handlers) always see a consistent record.
    """

    def __init__(
        self,
        root: "str | Path",
        *,
        telemetry: Optional[TelemetryRegistry] = None,
    ) -> None:
        self.root = Path(root)
        self.jobs_root = self.root / JOBS_DIR_NAME
        self.jobs_root.mkdir(parents=True, exist_ok=True)
        #: Optional shared registry; the scheduler injects its own so
        #: store I/O timings show up in ``GET /v1/metrics``.
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._event_locks: Dict[str, threading.Lock] = {}

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        path = self.jobs_root / job_id
        if not (path / JOB_FILE).exists():
            raise UnknownJob(job_id)
        return path

    def _event_lock(self, job_id: str) -> threading.Lock:
        with self._lock:
            return self._event_locks.setdefault(job_id, threading.Lock())

    # ------------------------------------------------------------------
    # create / save / load
    # ------------------------------------------------------------------
    def create(self, spec: JobSpec) -> JobRecord:
        """Allocate the next id, persist the submission, return the record."""
        with self._lock:
            seq = self._next_seq()
            job_id = f"j{seq:06d}"
            job_dir = self.jobs_root / job_id
            job_dir.mkdir(parents=True)
            record = JobRecord(id=job_id, seq=seq, spec=spec)
            record.transitions.append({"state": record.state, "at": _now()})
            _write_json(
                job_dir / JOB_FILE,
                {"id": job_id, "seq": seq, "spec": spec.to_dict()},
            )
            _write_json(job_dir / STATE_FILE, record.to_dict())
        return record

    def save(self, record: JobRecord) -> None:
        start = time.perf_counter()
        _write_json(self.job_dir(record.id) / STATE_FILE, record.to_dict())
        if self.telemetry is not None:
            self.telemetry.histogram("store.save_s").record(
                time.perf_counter() - start
            )

    def load(self, job_id: str) -> JobRecord:
        path = self.job_dir(job_id) / STATE_FILE
        try:
            return JobRecord.from_dict(json.loads(path.read_text()))
        except (OSError, ValueError) as exc:
            raise UnknownJob(job_id) from exc

    def list(self) -> List[JobRecord]:
        """All known jobs, in submission (seq) order."""
        records = []
        for path in sorted(self.jobs_root.iterdir()):
            if (path / JOB_FILE).exists():
                try:
                    records.append(self.load(path.name))
                except UnknownJob:
                    continue
        records.sort(key=lambda r: r.seq)
        return records

    def _next_seq(self) -> int:
        top = 0
        for path in self.jobs_root.iterdir():
            name = path.name
            if name.startswith("j") and name[1:].isdigit():
                top = max(top, int(name[1:]))
        return top + 1

    # ------------------------------------------------------------------
    # event stream (feeds `watch` / GET /v1/jobs/<id>/events)
    # ------------------------------------------------------------------
    def append_event(self, job_id: str, event: Dict) -> None:
        path = self.job_dir(job_id) / EVENTS_FILE
        line = strict_dumps(event, sort_keys=True)
        start = time.perf_counter()
        with self._event_lock(job_id):
            # Not fsynced: a progress feed; state.json is the durable record.
            stream_bytes = append_line(path, line, fsync=False)
        if self.telemetry is not None:
            self.telemetry.histogram("store.append_s").record(
                time.perf_counter() - start
            )
            self.telemetry.counter("store.events_appended").inc()
            self.telemetry.gauge("store.events_bytes").set(float(stream_bytes))

    def read_events(self, job_id: str, offset: int = 0) -> Tuple[List[str], int]:
        """Complete event lines from byte ``offset``; returns (lines, next).

        A line still being written (no trailing newline yet) is left for
        the next poll, so consumers never see a torn JSON document.
        """
        path = self.job_dir(job_id) / EVENTS_FILE
        lines, next_offset = read_complete_lines(path, offset)
        if self.telemetry is not None and path.exists():
            # How far the slowest-observed reader trails the stream.
            self.telemetry.gauge("store.read_lag_bytes").set(
                float(max(path.stat().st_size - next_offset, 0))
            )
        return [line.decode("utf-8") for line in lines], next_offset

    def write_error(self, job_id: str, text: str) -> None:
        (self.job_dir(job_id) / ERROR_FILE).write_text(text)

    def read_error(self, job_id: str) -> Optional[str]:
        path = self.job_dir(job_id) / ERROR_FILE
        return path.read_text() if path.exists() else None


def _now() -> float:
    import time

    return round(time.time(), 3)
