"""Module-level task functions for the distributed-backend tests.

Host workers are separate interpreters: anything they run must be
picklable *by reference*, so these live in their own importable module
(the engine tests keep theirs at module level for the same reason).
"""

import os
import signal
import time


def square(payload):
    return payload * payload


def nap(seconds):
    time.sleep(seconds)
    return seconds


def fail_or_square(payload):
    if payload == "poison":
        raise ValueError("bad unit poison")
    return payload * payload


def sleepy_once(payload):
    """Record our pid and block on first execution; rerun instantly.

    The SIGKILL test polls the marker for the executing worker's pid,
    kills it mid-unit, and relies on lease reclaim to requeue the unit —
    whose second execution sees the marker and completes immediately.
    """
    marker, value = payload
    if os.path.exists(marker):
        return value * value
    with open(marker, "w") as fh:
        fh.write(str(os.getpid()))
        fh.flush()
        os.fsync(fh.fileno())
    time.sleep(120)
    return value * value  # unreachable on the first execution


def suicide(payload):
    """Kill the executing worker outright — a poison unit every time."""
    os.kill(os.getpid(), signal.SIGKILL)
