"""The one way to make a file durable: atomic replace, line append, torn-tail read.

The engine journal, the ``repro.dist`` spool, the service job store and
the ``repro.obs`` snapshots write and read their crash-surviving files
only through these three functions.  Each appended file has one
appender at a time, which the fresh-line check in :func:`append_line`
relies on.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import List, Tuple, Union


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def atomic_write(path: "str | Path", data: Union[bytes, str]) -> None:
    """Replace ``path`` with ``data`` (``str`` is encoded as UTF-8).

    Readers see the old or the new complete file, never a partial one:
    the data goes to a unique temp file in the same (existing) directory,
    is fsynced and ``os.replace``d over ``path``, and the directory is
    fsynced so the rename survives a power loss.  The temp name is
    ``.<name>.<random>.tmp``, so concurrent writers never share one and
    an orphan left by a killed writer matches no ``*.task``, ``*.json``
    or ``*.jsonl`` listing.  If a step before the replace raises, the
    temp file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(
        prefix="." + path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        try:
            # mkstemp creates 0600; keep the 0644 a plain write gives, so
            # other accounts on a shared spool or job root can still read.
            os.fchmod(fd, 0o644)
            _write_all(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def append_line(path: "str | Path", line: str, *, fsync: bool) -> int:
    """Append ``line`` and a newline with one ``O_APPEND`` write; returns
    the file's new size.

    A writer killed mid-append leaves a torn tail; the record then starts
    on a fresh line, so the tail stays one unparseable line instead of
    swallowing this record.  With ``fsync=True`` the record is on disk
    when this returns, so a process killed right after cannot lose it.
    """
    data = line.encode("utf-8") + b"\n"
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = b"\n" + data
        _write_all(fd, data)
        if fsync:
            os.fsync(fd)
        return os.lseek(fd, 0, os.SEEK_CUR)
    finally:
        os.close(fd)


def read_complete_lines(
    path: "str | Path", offset: int = 0
) -> Tuple[List[bytes], int]:
    """Non-blank newline-terminated lines past byte ``offset``, and the
    offset just past the last of them.

    A torn tail, even one split inside a UTF-8 sequence, stays
    unconsumed: the next call re-reads it from the returned offset once
    (if ever) its newline lands.  A missing file reads as empty.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            blob = fh.read()
    except FileNotFoundError:
        return [], offset
    end = blob.rfind(b"\n") + 1
    lines = [line for line in blob[:end].split(b"\n") if line.strip()]
    return lines, offset + end
