"""The durability layer: atomic replace, line append, torn-tail read."""

import os
import stat
import sys
import threading

import pytest

from repro import durable
from repro.durable import append_line, atomic_write, read_complete_lines


def _temps(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


class TestAtomicWrite:
    def test_bytes_and_str_replace_the_file(self, tmp_path):
        path = tmp_path / "state.json"
        atomic_write(path, b"old\n")
        atomic_write(path, "new é\n")
        assert path.read_bytes() == "new é\n".encode("utf-8")
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
        assert _temps(tmp_path) == []

    def test_failure_before_replace_keeps_old_file_and_no_temp(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "state.json"
        atomic_write(path, "old\n")

        def failing_fsync(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(durable.os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk gone"):
            atomic_write(path, "new\n")
        assert path.read_text() == "old\n"
        assert _temps(tmp_path) == []


class TestConcurrentWriters:
    """Writers of one path never share a temp file (a fixed ``<name>.tmp``
    made one writer's replace steal or lose another's temp)."""

    @staticmethod
    def _document(writer, i):
        return f'{{"writer": {writer}, "i": {i}, "pad": "{"x" * 512}"}}\n'

    def test_threads(self, tmp_path):
        path = tmp_path / "state.json"
        errors = []

        def write(writer):
            try:
                for i in range(100):
                    atomic_write(path, self._document(writer, i))
            except Exception as exc:  # noqa: BLE001 - collected and asserted
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(w,)) for w in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert path.read_text() in {self._document(w, 99) for w in range(8)}
        assert _temps(tmp_path) == []

    def test_forked_processes(self, tmp_path):
        path = tmp_path / "state.json"
        pids = []
        for writer in range(2):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for i in range(100):
                        atomic_write(path, self._document(writer, i))
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        assert codes == [0, 0]
        assert path.read_text() in {self._document(w, 99) for w in range(2)}
        assert _temps(tmp_path) == []


class TestAppendLine:
    def test_appends_return_the_new_size(self, tmp_path):
        path = tmp_path / "log.jsonl"
        assert append_line(path, '{"a": 1}', fsync=True) == 9
        assert append_line(path, '{"b": 2}', fsync=False) == 18
        assert path.read_bytes() == b'{"a": 1}\n{"b": 2}\n'

    def test_torn_tail_gets_a_fresh_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a": 1}\n{"b": ')
        append_line(path, '{"c": 3}', fsync=True)
        assert path.read_bytes() == b'{"a": 1}\n{"b": \n{"c": 3}\n'

    def test_fsync_policy_is_required(self, tmp_path):
        with pytest.raises(TypeError):
            append_line(tmp_path / "log.jsonl", "{}")


class TestReadCompleteLines:
    def test_tail_torn_inside_a_utf8_sequence_waits_for_its_newline(
        self, tmp_path
    ):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a": 1}\n\n{"b": "caf\xc3')
        lines, offset = read_complete_lines(path)
        assert (lines, offset) == ([b'{"a": 1}'], 10)
        with path.open("ab") as fh:
            fh.write(b'\xa9"}\n')
        lines, offset = read_complete_lines(path, offset)
        assert [line.decode("utf-8") for line in lines] == ['{"b": "café"}']
        assert offset == path.stat().st_size

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_complete_lines(tmp_path / "absent.jsonl", 7) == ([], 7)
