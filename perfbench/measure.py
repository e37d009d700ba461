"""Host-side measurement helpers: clocks, CPU, memory, bytes, statistics.

Nothing here imports ``repro``; the helpers only observe the processes
and files a benchmark pass leaves behind.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from pathlib import Path
from typing import Iterable, Sequence

#: Iterations of the calibration loop; about 0.1 s on a 2.1 GHz Xeon core.
CALIBRATION_LOOP = 60_000

#: The calibration speed, in Mops/s, that speed-normalised times refer to
#: (about what a 2.1 GHz Xeon vCPU core gives).
REFERENCE_MOPS = 0.65


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def gap(self, other: "_Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def calibration_score(loop: int = CALIBRATION_LOOP) -> float:
    """Millions of iterations per second of a fixed pure-Python loop.

    The loop does the kind of work the interpreter spends its time on in
    the assurance loop: small objects, attribute reads, method calls,
    float math, tuples, a dict and a list.  The garbage collector is off
    while it runs, so its speed does not depend on how much the program
    has allocated.  The benchmark puts its times on a reference speed with
    these scores (:func:`speed_factor`), so a slower machine does not read
    as slower code; the scores themselves are never gated.
    """
    cos, sin = math.cos(0.3), math.sin(0.3)
    acc = 0.0
    points: list = []
    buckets: dict = {}
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for i in range(loop):
            a = _Point(i * 0.5, i * 0.25)
            b = _Point(i * 0.3 + 1.0, 2.0 - i * 0.1)
            acc += a.gap(b)
            turned = (a.x * cos - a.y * sin, a.x * sin + a.y * cos)
            points.append(turned)
            buckets[i & 63] = buckets.get(i & 63, 0.0) + turned[0]
            if len(points) > 32:
                points = [p for p in points if p[0] >= 0.0][-16:]
        elapsed = time.perf_counter() - started
    finally:
        if gc_was_on:
            gc.enable()
    if acc < 0:  # pragma: no cover - keeps the loop from being dead code
        raise AssertionError(acc)
    return loop / elapsed / 1e6


def speed_factor(mops: float) -> float:
    """Host speed ``mops`` (a :func:`calibration_score`) over the reference.

    A time measured while the calibration loop ran at ``mops`` Mops/s,
    multiplied by this, is the time it would take on a host running the
    loop at :data:`REFERENCE_MOPS`.  The program's share of a time is
    untouched: code that does twice the work still takes twice as long.
    """
    return mops / REFERENCE_MOPS


def cpu_seconds() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child, in MB.

    ``ru_maxrss`` is in KiB on Linux.  For children the kernel keeps the
    peak of the largest one, so the sum is this process's peak plus one
    worker's.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def tree_bytes(root: Path) -> int:
    """Total size of the regular files under ``root`` (0 if absent)."""
    if not root.exists():
        return 0
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))
