"""JSONL run journal: the checkpoint/resume substrate of the engine.

One line per event, appended and fsynced through
:func:`repro.durable.append_line` as soon as each task settles, so a
killed campaign loses at most the in-flight tasks:

* a ``header`` line identifying the campaign (unit-set fingerprint, an
  optional *spec fingerprint* — a hash of the normalized campaign options
  that produced the units — total unit count, engine version) written
  when the file is created, and
* one ``task`` line per settled task — ``{"kind": "task", "key": ...,
  "status": "ok"|"error", "attempts": N, "elapsed_s": ..., "worker": ...,
  "result": <encoded>}`` (``error``/``error_type`` replace ``result`` for
  failures).

:func:`load_journal` tolerates a torn final line (the normal shape of a
``kill -9`` mid-write; the next append starts on a fresh line after it)
and duplicate keys (last record wins), which is
exactly what resume needs: re-running a campaign with ``resume=True``
skips every key whose last journaled status is ``ok``.

Resuming against a journal written by a *different* campaign spec is an
error, not a silent no-op: :func:`check_spec_fingerprint` compares the
header's recorded spec fingerprint against the resuming campaign's and
raises :class:`JournalSpecMismatch` when they differ (journals predating
the field pass unchecked — there is nothing to compare).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from ..durable import append_line, read_complete_lines
from ..jsonutil import dumps as strict_dumps

JOURNAL_VERSION = 1

HEADER_KIND = "header"
TASK_KIND = "task"


class JournalSpecMismatch(Exception):
    """A resume journal was produced by a different campaign spec.

    Proceeding would mix results from two configurations in one journal
    (and, because unit keys embed the options digest, silently re-run
    everything while *appearing* to resume).  The service's safe-restart
    path depends on this being a hard error.
    """

    def __init__(self, path: "str | Path", recorded: str, current: str) -> None:
        self.path = Path(path)
        self.recorded = recorded
        self.current = current
        super().__init__(
            f"journal {self.path} was written by a different campaign spec: "
            f"header records spec fingerprint {recorded!r} but this campaign "
            f"has {current!r} — refusing to resume (delete the journal or "
            "point --journal elsewhere to start fresh)"
        )


def check_spec_fingerprint(
    state: "JournalState", path: "str | Path", spec_fingerprint: Optional[str]
) -> None:
    """Raise :class:`JournalSpecMismatch` when ``state`` belongs to another spec.

    Journals without a recorded spec fingerprint (pre-dating the field)
    and callers that do not declare one are accepted unchecked.
    """
    if spec_fingerprint is None or state.header is None:
        return
    recorded = state.header.get("spec_fingerprint")
    if recorded is not None and recorded != spec_fingerprint:
        raise JournalSpecMismatch(path, recorded, spec_fingerprint)


@dataclass
class JournalState:
    """Parsed journal contents: the header plus the last record per key."""

    header: Optional[Dict[str, Any]] = None
    tasks: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    corrupt_lines: int = 0

    def completed_keys(self) -> "set[str]":
        """Keys whose most recent journaled status is ``ok``."""
        return {k for k, rec in self.tasks.items() if rec.get("status") == "ok"}


def load_journal(path: "str | Path") -> JournalState:
    """Parse a journal, skipping unparseable (e.g. truncated) lines.

    Considers complete (newline-terminated) lines only: a ``kill -9``
    mid-append leaves a torn final line — possibly split *inside* a
    multi-byte UTF-8 sequence — and that tail counts as one corrupt line
    instead of poisoning the resume.
    """
    state = JournalState()
    path = Path(path)
    if not path.exists():
        return state
    lines, consumed = read_complete_lines(path)
    if path.stat().st_size > consumed:
        state.corrupt_lines += 1
    for raw in lines:
        try:
            record = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            state.corrupt_lines += 1
            continue
        if not isinstance(record, dict):
            state.corrupt_lines += 1
            continue
        kind = record.get("kind")
        if kind == HEADER_KIND:
            state.header = record
        elif kind == TASK_KIND and isinstance(record.get("key"), str):
            state.tasks[record["key"]] = record
        else:
            state.corrupt_lines += 1
    return state


class RunJournal:
    """Append-only JSONL writer; every record is fsynced before returning.

    Creates nothing until the first write, so constructing an engine with
    a journal path has no filesystem effect until the campaign starts.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)

    def _append(self, record: Dict[str, Any]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        append_line(self.path, strict_dumps(record, sort_keys=True), fsync=True)

    # ------------------------------------------------------------------
    def write_header(
        self,
        campaign_fingerprint: str,
        total: int,
        spec_fingerprint: Optional[str] = None,
    ) -> None:
        record: Dict[str, Any] = {
            "kind": HEADER_KIND,
            "version": JOURNAL_VERSION,
            "fingerprint": campaign_fingerprint,
            "total": total,
        }
        if spec_fingerprint is not None:
            record["spec_fingerprint"] = spec_fingerprint
        self._append(record)

    def append_task(
        self,
        key: str,
        status: str,
        attempts: int,
        elapsed_s: float,
        worker: Optional[str] = None,
        result: Any = None,
        error: Optional[str] = None,
        error_type: Optional[str] = None,
    ) -> None:
        record: Dict[str, Any] = {
            "kind": TASK_KIND,
            "key": key,
            "status": status,
            "attempts": attempts,
            "elapsed_s": round(elapsed_s, 6),
        }
        if worker is not None:
            record["worker"] = worker
        if status == "ok":
            record["result"] = result
        else:
            record["error"] = error
            record["error_type"] = error_type
        self._append(record)

    def close(self) -> None:
        """Nothing stays open between appends; kept for the with-statement."""

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
