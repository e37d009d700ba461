"""Crash-injection matrix: real writers killed at each step of a durable write.

Each case forks a child that arms one crash point on the ``os`` calls
:mod:`repro.durable` makes, then runs a production writer.  The crash is
``os._exit``: a process death with no cleanup (no ``finally``, no
``atexit``, no buffered flush), harsher than a SIGKILL only in that it
lands at an exact step.  The parent then runs the real consumer, which
must see the old or the new complete document, never a partial one,
and must not trip over the orphaned temp file the dead writer left.

Crash points, named after the NIGHTWATCH fault taxonomy (SNIPPETS.md):

* ``before_write`` (*disconnect*): dies before the first byte lands;
* ``partial_write`` (*partial response*): half the bytes land; in an
  append-only log this is the torn tail readers must treat as *corrupt
  data*, and the next append must start on a fresh line after it;
* ``before_fsync``: every byte written, none synced;
* ``before_replace``: the temp file synced, not yet renamed;
* ``after_replace``: renamed, the directory not yet synced.

The service case at the end kills the job server while it saves a
settled job (a *partial response* of ``state.json``), then restarts it.

A process death leaves unsynced data in the page cache, so the last
three read the same as after a clean write or a clean failure; losing
the cache (an OS crash or power cut) is not simulated here.
"""

import json
import os
import shutil
import traceback

import pytest

from repro import durable
from repro.dist.spool import Spool, audit_spool, read_records
from repro.exec import RunJournal, load_journal
from repro.experiments.campaign import execute_suite
from repro.obs.index import default_index_path, load_index, refresh_index
from repro.obs.metrics import load_metrics_json, write_metrics_json
from repro.obs.telemetry import TelemetryRegistry
from repro.service import (
    JobSpec,
    JobStore,
    Scheduler,
    ServiceClient,
    register_job_kind,
    unregister_job_kind,
)
from repro.service.api import serve
from repro.service.jobs import DONE, RUNNING
from repro.sim.scenario import ScenarioType

from .distributed.dist_tasks import square

CRASHED = 86
PUBLISHED_BEFORE_SAVED = 87
ATOMIC_STEPS = (
    "before_write", "partial_write", "before_fsync", "before_replace", "after_replace",
)
APPEND_STEPS = ("before_write", "partial_write", "before_fsync")


def _arm(step):
    """Make the chosen ``os`` call in this (forked) process exit at once."""
    real_write, real_replace = os.write, os.replace

    def die(*_args):
        os._exit(CRASHED)

    def half_write(fd, data):
        real_write(fd, bytes(data[: max(len(data) // 2, 1)]))
        die()

    def replace_then_die(src, dst):
        real_replace(src, dst)
        die()

    patch = {
        "before_write": ("write", die),
        "partial_write": ("write", half_write),
        "before_fsync": ("fsync", die),
        "before_replace": ("replace", die),
        "after_replace": ("replace", replace_then_die),
    }[step]
    setattr(durable.os, *patch)


def _crash_at(step, write):
    """Run ``write`` in a forked child armed at ``step`` (``None``: the
    child arms itself) and check that it died at the crash point."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            if step is not None:
                _arm(step)
            write()
            code = 0  # the crash point was never reached
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == CRASHED


# ----------------------------------------------------------------------
# whole-file documents (atomic_write)
# ----------------------------------------------------------------------
# Each case takes (tmp_path, request) and returns (write, read, old, new,
# directory): ``write`` puts the new document in place, ``read`` runs the
# consumers and returns what they saw, and ``directory`` is where a dead
# writer's temp file lands.


def _job_store(tmp_path, _request):
    store = JobStore(tmp_path)
    record = store.create(JobSpec(kind="campaign"))
    old = record.to_dict()
    record.progress_done, record.progress_total = 1, 2
    new = record.to_dict()

    def read():
        loaded = store.load(record.id).to_dict()
        assert [r.to_dict() for r in store.list()] == [loaded]
        return loaded

    return lambda: store.save(record), read, old, new, store.job_dir(record.id)


def _spool_manifest(tmp_path, _request):
    spool = Spool(tmp_path).ensure()
    spool.write_manifest(2)
    old = spool.read_manifest()

    def read():
        manifest = spool.read_manifest()
        assert audit_spool(tmp_path)["manifest"] == manifest
        return manifest

    journal = tmp_path / "journal.jsonl"
    new = {**old, "hosts": 3, "journal": str(journal)}
    return lambda: spool.write_manifest(3, journal=journal), read, old, new, tmp_path


def _spool_task(tmp_path, _request):
    spool = Spool(tmp_path).ensure()
    spool.enqueue("t0", [("k", 1)], square, None)

    def read():
        assert spool.task_names() == ["t0"] == spool.claimable()
        assert audit_spool(tmp_path)["pending_tasks"] == 1
        return spool.read_task("t0")["members"]

    def write():
        spool.enqueue("t0", [("k", 2)], square, 5.0)

    return write, read, [("k", 1)], [("k", 2)], spool.tasks_dir


@pytest.fixture(scope="module")
def one_traced_run(tmp_path_factory):
    trace = tmp_path_factory.mktemp("campaign") / "trace"
    execute_suite((ScenarioType.NOMINAL,), (0,), jobs=1, progress=None, trace=trace)
    return trace


def _index(tmp_path, request):
    root = tmp_path / "trace"
    shutil.copytree(request.getfixturevalue("one_traced_run"), root)
    old = refresh_index(root)
    for path in root.rglob("*.trace.jsonl"):
        path.unlink()
    new = refresh_index(root, write=False)
    assert new["files"] != old["files"]

    def read():
        index = load_index(default_index_path(root))
        # Re-scanning must not mistake the orphaned temp for a source.
        assert refresh_index(root, write=False)["files"] == new["files"]
        return index

    return lambda: refresh_index(root), read, old, new, root


def _metrics(tmp_path, _request):
    path = tmp_path / "metrics.json"
    registry = TelemetryRegistry()
    registry.counter("jobs").inc()
    write_metrics_json(path, registry, meta={"job": "j1"})
    registry.counter("jobs").inc()

    def read():
        loaded, meta = load_metrics_json(path)
        return meta, loaded.counters["jobs"].value

    def write():
        write_metrics_json(path, registry, meta={"job": "j2"})

    return write, read, ({"job": "j1"}, 1), ({"job": "j2"}, 2), tmp_path


ATOMIC_CASES = {
    "job_store": _job_store,
    "spool_manifest": _spool_manifest,
    "spool_task": _spool_task,
    "obs_index": _index,
    "obs_metrics": _metrics,
}


@pytest.mark.parametrize("step", ATOMIC_STEPS)
@pytest.mark.parametrize("case", sorted(ATOMIC_CASES))
def test_whole_file_reads_old_or_new(case, step, tmp_path, request):
    write, read, old, new, directory = ATOMIC_CASES[case](tmp_path, request)
    assert read() == old
    _crash_at(step, write)
    assert read() == (new if step == "after_replace" else old)
    orphans = [p for p in directory.iterdir() if p.name.endswith(".tmp")]
    assert len(orphans) == (0 if step == "after_replace" else 1)
    assert orphans == [] or orphans[0].name.startswith(".")


# ----------------------------------------------------------------------
# append-only logs (append_line)
# ----------------------------------------------------------------------
# Each case returns (append, read): ``append(key)`` logs one record and
# ``read()`` returns the keys the consumer parsed, in order.


def _engine_journal(tmp_path):
    path = tmp_path / "journal.jsonl"

    def append(key):
        with RunJournal(path) as journal:
            journal.append_task(key, "ok", attempts=1, elapsed_s=0.0, result=key)

    def read():
        state = load_journal(path)
        return [k for k, rec in state.tasks.items() if rec["result"] == k]

    return append, read


def _spool_outcomes(tmp_path):
    spool = Spool(tmp_path).ensure()

    def append(key):
        spool.append_outcome("host0", {"kind": "task", "key": key, "status": "ok"})

    def read():
        # The coordinator's reader: complete lines, unparseable ones skipped.
        keys = [r["key"] for r in read_records(spool.outcome_path("host0"))[0]]
        assert audit_spool(tmp_path)["hosts"]["host0"]["ok"] == len(keys)
        return keys

    return append, read


def _spool_quarantine(tmp_path):
    spool = Spool(tmp_path).ensure()

    def append(key):
        spool.append_quarantine({"key": key, "error": "PoisonUnitError"})

    def read():
        keys = [r["key"] for r in read_records(spool.quarantine_path)[0]]
        assert audit_spool(tmp_path)["quarantined"] == len(keys)
        return keys

    return append, read


APPEND_CASES = {
    "engine_journal": _engine_journal,
    "spool_outcomes": _spool_outcomes,
    "spool_quarantine": _spool_quarantine,
}


@pytest.mark.parametrize("step", APPEND_STEPS)
@pytest.mark.parametrize("case", sorted(APPEND_CASES))
def test_log_reads_old_or_new_and_recovers(case, step, tmp_path):
    append, read = APPEND_CASES[case](tmp_path)
    append("first")
    _crash_at(step, lambda: append("second"))
    survived = ["first", "second"] if step == "before_fsync" else ["first"]
    assert read() == survived
    # A resumed engine or a respawned host appends to the same file; its
    # record must parse even after a torn tail.
    append("third")
    assert read() == survived + ["third"]


def test_journal_counts_a_torn_tail_as_one_corrupt_line(tmp_path):
    append, _ = _engine_journal(tmp_path)
    append("first")
    _crash_at("partial_write", lambda: append("second"))
    assert load_journal(tmp_path / "journal.jsonl").corrupt_lines == 1
    append("third")
    state = load_journal(tmp_path / "journal.jsonl")
    assert (state.corrupt_lines, list(state.tasks)) == (1, ["first", "third"])


# ----------------------------------------------------------------------
# the service: persisted before observable
# ----------------------------------------------------------------------


def _echo(spec, _ctx):
    return {"echo": spec["x"]}


def test_partial_response_at_job_settle_restarts_to_the_saved_state(tmp_path):
    """The server dies half-way through saving a job's ``done``.

    Up to that save the API must keep serving the old state (the child
    exits with ``PUBLISHED_BEFORE_SAVED`` otherwise).  The torn save
    leaves ``state.json`` at ``running``; a restarted server resumes the
    job, and ``watch`` must end on exactly what ``state.json`` holds.
    """
    root = tmp_path / "root"
    register_job_kind("crash-echo", _echo)
    try:
        store = JobStore(root)
        job_id = store.create(JobSpec(kind="crash-echo", spec={"x": 3})).id

        def serve_until_the_done_save():
            scheduler = Scheduler(JobStore(root), workers=1)
            real_save = JobStore.save

            def save(self, record):
                if record.state == DONE:
                    if scheduler.job(record.id).state == DONE:
                        os._exit(PUBLISHED_BEFORE_SAVED)
                    _arm("partial_write")
                real_save(self, record)

            JobStore.save = save  # this forked child only
            scheduler.start()
            scheduler.wait_idle(timeout=10.0)

        _crash_at(None, serve_until_the_done_save)
        assert store.load(job_id).state == RUNNING

        scheduler = Scheduler(store, workers=1).start()
        server, _thread = serve(scheduler)
        try:
            client = ServiceClient(server.url, timeout=10.0)
            events = [event["kind"] for event in client.watch(job_id, wait=1.0)]
            saved = json.loads((store.job_dir(job_id) / "state.json").read_text())
            assert client.job(job_id) == saved
            assert (saved["state"], saved["result"], saved["recovered"]) == (DONE, {"echo": 3}, 1)
            assert events[-1] == "job_done"
        finally:
            server.shutdown()
            scheduler.stop()
    finally:
        unregister_job_kind("crash-echo")
