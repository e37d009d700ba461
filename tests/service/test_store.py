"""Tests for the on-disk job store: durability, ids, the event stream."""

import json

import pytest

from repro.service import JobRecord, JobSpec, JobStore, UnknownJob
from repro.service.store import EVENTS_FILE, JOB_FILE, STATE_FILE


def _spec(**kwargs):
    return JobSpec(kind="campaign", **kwargs)


class TestCreateAndLoad:
    def test_sequential_ids(self, tmp_path):
        store = JobStore(tmp_path)
        a = store.create(_spec())
        b = store.create(_spec())
        assert (a.id, b.id) == ("j000001", "j000002")
        assert (a.seq, b.seq) == (1, 2)

    def test_ids_continue_after_reopen(self, tmp_path):
        JobStore(tmp_path).create(_spec())
        record = JobStore(tmp_path).create(_spec())
        assert record.id == "j000002"

    def test_create_writes_immutable_and_state_files(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(_spec(priority=3))
        job_dir = store.job_dir(record.id)
        submission = json.loads((job_dir / JOB_FILE).read_text())
        assert submission["spec"]["priority"] == 3
        state = json.loads((job_dir / STATE_FILE).read_text())
        assert state["state"] == "queued"

    def test_save_and_load_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(_spec())
        record.transition("running")
        record.progress_done = 2
        store.save(record)
        loaded = store.load(record.id)
        assert loaded.state == "running"
        assert loaded.progress_done == 2

    def test_save_is_atomic_replace(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(_spec())
        state_file = store.job_dir(record.id) / STATE_FILE
        before = state_file.read_text()
        assert json.loads(before)  # parseable at every point in time
        store.save(record)
        # No temp file left behind.
        assert sorted(p.name for p in state_file.parent.iterdir()) == [
            JOB_FILE, STATE_FILE,
        ]

    def test_unknown_job_raises(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(UnknownJob):
            store.job_dir("j999999")
        with pytest.raises(UnknownJob):
            store.load("j999999")

    def test_list_in_submission_order(self, tmp_path):
        store = JobStore(tmp_path)
        ids = [store.create(_spec()).id for _ in range(3)]
        assert [r.id for r in store.list()] == ids


class TestEventStream:
    def test_append_and_read_with_offsets(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(_spec())
        store.append_event(record.id, {"kind": "a"})
        store.append_event(record.id, {"kind": "b"})
        lines, offset = store.read_events(record.id, 0)
        assert [json.loads(l)["kind"] for l in lines] == ["a", "b"]
        # Nothing new at the cursor...
        again, offset2 = store.read_events(record.id, offset)
        assert again == [] and offset2 == offset
        # ...until another append lands.
        store.append_event(record.id, {"kind": "c"})
        lines, _ = store.read_events(record.id, offset)
        assert [json.loads(l)["kind"] for l in lines] == ["c"]

    def test_partial_trailing_line_not_delivered(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(_spec())
        store.append_event(record.id, {"kind": "a"})
        events_path = store.job_dir(record.id) / EVENTS_FILE
        with events_path.open("a") as fh:
            fh.write('{"kind": "tor')  # torn write, no newline
        lines, offset = store.read_events(record.id, 0)
        assert [json.loads(l)["kind"] for l in lines] == ["a"]
        # The torn tail stays invisible; offset points just past "a".
        again, _ = store.read_events(record.id, offset)
        assert again == []

    def test_append_after_torn_tail_starts_a_fresh_line(self, tmp_path):
        # A server killed mid-append leaves a torn tail; the restarted
        # server's next event must not be glued onto it.
        store = JobStore(tmp_path)
        record = store.create(_spec())
        events_path = store.job_dir(record.id) / EVENTS_FILE
        events_path.write_bytes(b'{"kind": "task", "key": "a", "sta')
        store.append_event(record.id, {"kind": "b"})
        lines, offset = store.read_events(record.id, 0)
        assert lines[0] == '{"kind": "task", "key": "a", "sta'
        assert json.loads(lines[1]) == {"kind": "b"}
        assert offset == events_path.stat().st_size

    def test_missing_events_file_is_empty(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(_spec())
        assert store.read_events(record.id, 0) == ([], 0)


class TestErrorFile:
    def test_write_and_read(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(_spec())
        assert store.read_error(record.id) is None
        store.write_error(record.id, "Traceback ...")
        assert store.read_error(record.id).startswith("Traceback")
