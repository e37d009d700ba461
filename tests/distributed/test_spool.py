"""Tests for the on-disk work-queue spool: claims, journals, audit."""

import json
import pickle

import pytest

from repro.dist.spool import Spool, TaskUnreadable, audit_spool
from repro.dist.worker import run_worker
from repro.durable import read_complete_lines

from .dist_tasks import fail_or_square, nap, square


class TestClaims:
    def test_claim_is_exclusive(self, tmp_path):
        spool = Spool(tmp_path).ensure()
        spool.enqueue("t0", [("k0", 2)], square, None)
        first = spool.try_claim("t0", "host0")
        assert first is not None
        assert spool.try_claim("t0", "host1") is None
        claim = spool.read_claim("t0")
        assert claim["host"] == "host0"
        assert claim["claim"] == first

    def test_release_reopens_claim(self, tmp_path):
        spool = Spool(tmp_path).ensure()
        spool.enqueue("t0", [("k0", 2)], square, None)
        assert spool.try_claim("t0", "host0")
        assert spool.claimable() == []
        spool.release_claim("t0")
        assert spool.claimable() == ["t0"]
        assert spool.try_claim("t0", "host1") is not None

    def test_task_round_trip(self, tmp_path):
        spool = Spool(tmp_path).ensure()
        spool.enqueue("t0", [("k0", 2), ("k1", 3)], square, 1.5)
        task = spool.read_task("t0")
        assert task["members"] == [("k0", 2), ("k1", 3)]
        assert task["fn"] is square
        assert task["timeout_s"] == 1.5
        spool.remove_task("t0")
        assert spool.read_task("t0") is None

    def test_unreadable_task_raises_not_none(self, tmp_path):
        spool = Spool(tmp_path).ensure()
        bad = spool.tasks_dir / "t0.task"
        bad.write_bytes(b"not a pickle")
        with pytest.raises(TaskUnreadable):
            spool.read_task("t0")

    def test_unresolvable_pickle_raises_task_unreadable(self, tmp_path):
        # The bug class the `--main-alias` machinery exists for: a task
        # pickled against a class the worker interpreter cannot import
        # must fail loudly, not vanish into a claim/release cycle.
        spool = Spool(tmp_path).ensure()
        payload = pickle.dumps({"name": "t0", "fn": square})
        assert b"dist_tasks" in payload
        (spool.tasks_dir / "t0.task").write_bytes(
            payload.replace(b"dist_tasks", b"no_such_mo")
        )
        with pytest.raises(TaskUnreadable):
            spool.read_task("t0")


class TestOutcomeJournal:
    def test_append_and_read(self, tmp_path):
        spool = Spool(tmp_path).ensure()
        spool.append_outcome("host0", {"kind": "task", "key": "k0", "status": "ok"})
        spool.append_outcome("host0", {"kind": "task", "key": "k1", "status": "ok"})
        lines, offset = read_complete_lines(spool.outcome_path("host0"))
        assert len(lines) == 2
        assert json.loads(lines[0])["key"] == "k0"
        # Incremental read from the returned offset sees only new lines.
        spool.append_outcome("host0", {"kind": "task", "key": "k2", "status": "ok"})
        lines, _ = read_complete_lines(spool.outcome_path("host0"), offset)
        assert [json.loads(line)["key"] for line in lines] == ["k2"]

    def test_torn_tail_stays_unconsumed(self, tmp_path):
        spool = Spool(tmp_path).ensure()
        spool.append_outcome("host0", {"kind": "task", "key": "k0", "status": "ok"})
        path = spool.outcome_path("host0")
        with path.open("ab") as fh:
            fh.write(b'{"kind": "task", "key": "k1"')  # no newline: torn
        lines, offset = read_complete_lines(path)
        assert len(lines) == 1
        # Writer completes the line; the next read picks it up whole.
        with path.open("ab") as fh:
            fh.write(b', "status": "ok"}\n')
        lines, _ = read_complete_lines(path, offset)
        assert json.loads(lines[0])["key"] == "k1"

    def test_respawned_host_appends_past_a_torn_tail(self, tmp_path):
        # A host killed mid-append leaves a torn tail, and its replacement
        # runs under the same name, appending to the same journal: its
        # first outcome must start a fresh line, not be glued onto the tail.
        spool = Spool(tmp_path).ensure()
        path = spool.outcome_path("host0")
        path.write_bytes(b'{"kind": "task", "key": "a", "sta')
        assert read_complete_lines(path) == ([], 0)  # the coordinator's view
        spool.append_outcome("host0", {"kind": "task", "key": "b", "status": "ok"})
        lines, offset = read_complete_lines(path, 0)
        assert offset == path.stat().st_size
        assert lines[0] == b'{"kind": "task", "key": "a", "sta'
        assert json.loads(lines[1]) == {"kind": "task", "key": "b", "status": "ok"}
        assert audit_spool(tmp_path)["hosts"]["host0"]["ok"] == 1

    def test_heartbeat_age(self, tmp_path):
        spool = Spool(tmp_path).ensure()
        assert spool.heartbeat_age_s("host0") is None
        spool.heartbeat("host0")
        age = spool.heartbeat_age_s("host0")
        assert age is not None and age < 5.0


class TestAudit:
    def test_audit_counts_and_duplicates(self, tmp_path):
        spool = Spool(tmp_path).ensure()
        spool.write_manifest(2)
        spool.append_outcome("host0", {"kind": "task", "key": "k0", "status": "ok"})
        spool.append_outcome("host1", {"kind": "task", "key": "k1", "status": "error"})
        # A per-host duplicate is legal (reclaim-vs-slow-worker race) and
        # must be reported without tripping the exactly-once check.
        spool.append_outcome("host1", {"kind": "task", "key": "k0", "status": "ok"})
        summary = audit_spool(tmp_path)
        assert summary["hosts"]["host0"]["outcomes"] == 1
        assert summary["hosts"]["host1"]["outcomes"] == 2
        assert summary["total_outcomes"] == 3
        assert summary["unique_ok_keys"] == 1
        assert summary["duplicate_ok_keys"] == ["k0"]
        assert summary["journal_duplicate_keys"] == []

    def test_audit_flags_double_settle_in_merged_journal(self, tmp_path):
        from repro.exec import RunJournal

        spool = Spool(tmp_path).ensure()
        journal = tmp_path / "journal.jsonl"
        with RunJournal(journal) as j:
            j.write_header("fp", total=1)
            j.append_task("k0", "ok", attempts=1, elapsed_s=0.1, result=1)
            j.append_task("k0", "ok", attempts=2, elapsed_s=0.1, result=1)
        spool.write_manifest(1, journal=journal)
        summary = audit_spool(tmp_path)
        assert summary["journal_duplicate_keys"] == ["k0"]


class TestWorkerOutcomes:
    """A claimed task runs member by member, one outcome line each."""

    @staticmethod
    def _outcomes(spool):
        lines, _ = read_complete_lines(spool.outcome_path("h0"), 0)
        return [json.loads(line) for line in lines]

    def test_member_error_is_recorded_and_next_member_runs(self, tmp_path):
        spool = Spool(tmp_path).ensure()
        spool.enqueue("t0", [("bad", "poison"), ("good", 3)], fail_or_square, None)
        assert run_worker(tmp_path, "h0", once=True) == 1
        bad, good = self._outcomes(spool)
        assert set(bad) == {
            "kind", "worker", "claim", "task", "key", "status", "attempts",
            "elapsed_s", "error", "error_type",
        }
        assert (bad["key"], bad["status"], bad["error_type"]) == (
            "bad", "error", "ValueError",
        )
        assert bad["error"] == "bad unit poison"
        assert set(good) == {
            "kind", "worker", "claim", "task", "key", "status", "attempts",
            "elapsed_s", "result",
        }
        assert (good["key"], good["status"], good["result"]) == ("good", "ok", 9)
        assert good["task"] == "t0" and good["attempts"] == 1

    def test_deadline_applies_per_member(self, tmp_path):
        # 0.8 s overruns the 0.5 s per-member deadline even though it fits
        # inside 0.5 s x 2 members; the next member still runs.
        spool = Spool(tmp_path).ensure()
        spool.enqueue("t0", [("slow", 0.8), ("fast", 0.0)], nap, 0.5)
        run_worker(tmp_path, "h0", once=True)
        slow, fast = self._outcomes(spool)
        assert (slow["status"], slow["error_type"]) == ("error", "TaskTimeout")
        assert (fast["status"], fast["result"]) == ("ok", 0.0)

