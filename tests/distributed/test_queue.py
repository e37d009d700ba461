"""End-to-end tests for the multi-host work-queue backend.

These spawn real worker processes (``python -m repro.dist worker``)
against a spool in ``tmp_path`` and drive them through the engine, the
way a queue-backend campaign does.  The SIGKILL test is the subsystem's
acceptance criterion: kill a worker mid-unit, and the unit must settle
exactly once via lease reclaim, with no duplicate outcome in the merged
journal.
"""

import json
import os
import signal
import threading
import time

from repro.dist.queue import QueueBackend
from repro.dist.spool import QUARANTINE_NAME, audit_spool
from repro.exec import CampaignEngine, EnginePolicy, WorkUnit, load_journal
from repro.obs.telemetry import TelemetryRegistry

from .dist_tasks import fail_or_square, sleepy_once, square, suicide


def policy(**kw):
    kw.setdefault("retry_backoff_s", 0.01)
    return EnginePolicy(**kw)


def _kill_pid_from(marker, timeout_s=30.0):
    """Wait for a worker to write its pid into ``marker``, then SIGKILL it."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            pid = int(open(marker).read())
        except (OSError, ValueError):
            time.sleep(0.02)
            continue
        os.kill(pid, signal.SIGKILL)
        return
    raise AssertionError(f"no pid appeared in {marker}")


class TestQueueExecution:
    def test_matches_serial_and_settles_exactly_once(self, tmp_path):
        units = [WorkUnit(key=f"k{i}", payload=i) for i in range(8)]
        serial = CampaignEngine(square, policy(), progress=None).run(units)

        journal = tmp_path / "journal.jsonl"
        backend = QueueBackend(
            hosts=3, spool=tmp_path / "spool", heartbeat_s=0.1, poll_s=0.02
        )
        try:
            queued = CampaignEngine(
                square, policy(), journal=journal, progress=None, backend=backend
            ).run(units)
        finally:
            backend.close()

        assert queued.results() == serial.results()
        assert [r.key for r in queued.records] == [r.key for r in serial.records]
        assert queued.summary.mode == "queue"
        assert queued.summary.jobs == 3
        workers = {r.worker for r in queued.records}
        assert workers <= {"host0", "host1", "host2"}
        assert load_journal(journal).completed_keys() == {u.key for u in units}

    def test_task_errors_recorded_not_raised(self, tmp_path):
        units = [
            WorkUnit(key="good", payload=3),
            WorkUnit(key="bad", payload="poison"),
        ]
        backend = QueueBackend(
            hosts=2, spool=tmp_path / "spool", heartbeat_s=0.1, poll_s=0.02
        )
        try:
            report = CampaignEngine(
                fail_or_square, policy(max_retries=1), progress=None,
                backend=backend,
            ).run(units)
        finally:
            backend.close()
        by_key = report.record_map()
        assert by_key["good"].ok and by_key["good"].result == 9
        assert not by_key["bad"].ok
        assert by_key["bad"].error.error_type == "ValueError"
        assert by_key["bad"].attempts == 2  # initial + one retry

    def test_sigkill_mid_unit_reclaims_and_dedups(self, tmp_path):
        """The acceptance criterion: a worker SIGKILLed mid-unit.

        The victim unit blocks its worker until the test kills it; the
        coordinator must expire the lease, requeue the unit, and settle
        it exactly once — no duplicate outcome key in the merged journal,
        no task error surfaced to the campaign.
        """
        marker = tmp_path / "victim.pid"
        # The other units' marker exists up front, so only the victim
        # blocks; they all complete on their first execution.
        done = tmp_path / "done"
        done.write_text("")
        units = [WorkUnit(key="victim", payload=(str(marker), 7))] + [
            WorkUnit(key=f"k{i}", payload=(str(done), i)) for i in range(5)
        ]
        journal = tmp_path / "journal.jsonl"
        telemetry = TelemetryRegistry()
        backend = QueueBackend(
            hosts=3,
            spool=tmp_path / "spool",
            lease_timeout_s=1.0,
            heartbeat_s=0.1,
            poll_s=0.02,
            telemetry=telemetry,
        )
        killer = threading.Thread(target=_kill_pid_from, args=(marker,))
        killer.start()
        try:
            report = CampaignEngine(
                sleepy_once, policy(), journal=journal, progress=None,
                backend=backend,
            ).run(units)
        finally:
            killer.join()
            backend.close()

        assert report.summary.errors == 0
        by_key = report.record_map()
        assert by_key["victim"].result == 49
        assert telemetry.counters["dist.leases_expired"].value >= 1
        assert telemetry.counters["dist.units_reclaimed"].value >= 1

        # Exactly-once: one settled line per key in the merged journal.
        settled = [
            json.loads(line)["key"]
            for line in journal.read_text().splitlines()
            if json.loads(line).get("kind") == "task"
        ]
        assert sorted(settled) == sorted(u.key for u in units)
        audit = audit_spool(tmp_path / "spool")
        assert audit["journal_duplicate_keys"] == []
        assert audit["quarantined"] == 0
        assert audit["pending_tasks"] == 0
        assert audit["open_claims"] == 0

    def test_poison_unit_is_quarantined(self, tmp_path):
        """A unit that kills every host it lands on must not cycle forever."""
        units = [
            WorkUnit(key="poison", payload=None),
        ]
        backend = QueueBackend(
            hosts=2,
            spool=tmp_path / "spool",
            lease_timeout_s=0.5,
            heartbeat_s=0.1,
            poll_s=0.02,
            max_requeues=1,
            respawn_limit=4,
        )
        try:
            report = CampaignEngine(
                suicide, policy(), progress=None, backend=backend
            ).run(units)
        finally:
            backend.close()
        record = report.record_map()["poison"]
        assert not record.ok
        assert record.error.error_type == "PoisonUnitError"
        quarantine = tmp_path / "spool" / QUARANTINE_NAME
        assert quarantine.exists()
        entries = [json.loads(line) for line in quarantine.read_text().splitlines()]
        assert [e["key"] for e in entries] == ["poison"]
        assert audit_spool(tmp_path / "spool")["quarantined"] == 1
