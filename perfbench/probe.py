"""One set-up sample, run in a fresh interpreter by ``run.py``.

``python3 perfbench/probe.py WORKLOAD SEED WORKDIR`` does what a user's
process does before it can dispatch the first run — import the package,
build every scenario of the workload, and start its workers (a forked
pool of 2 for ``paper-jobs2``, two queue-host interpreters for
``short-durable``) — then prints one JSON line ``{"ready": true, ...}``.
The parent times from process start to that line.  The probe then
prints its calibration score, ``{"calibration_mops": ...}``, so the
parent can put the time on the reference speed, and tears the workers
down.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HOSTS = 2

#: Calibration-loop iterations after the probe is ready (about 30 ms).
PROBE_CALIBRATION_LOOP = 20_000


def _pid(_: int) -> int:
    time.sleep(0.02)  # keeps the first worker busy so the second one starts
    return os.getpid()


def _start_pool() -> object:
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=HOSTS, mp_context=multiprocessing.get_context("fork"))
    list(pool.map(_pid, range(HOSTS)))
    return pool


def _start_hosts(spool_dir: Path) -> "tuple[list, float]":
    """Spawn the queue-host workers and wait for their first heartbeat."""
    from repro.dist.spool import Spool

    spool = Spool(spool_dir).ensure()
    started = time.perf_counter()
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.dist", "worker", "--spool", str(spool_dir),
             "--host", f"host{i}", "--poll-s", "0.05"],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p)),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for i in range(HOSTS)
    ]
    deadline = started + 60.0
    while any(spool.heartbeat_age_s(f"host{i}") is None for i in range(HOSTS)):
        if time.perf_counter() > deadline or any(p.poll() is not None for p in procs):
            for proc in procs:
                proc.kill()
                proc.wait()
            raise RuntimeError("queue hosts did not come up")
        time.sleep(0.005)
    return procs, time.perf_counter() - started


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(Path.cwd() / "src"))
    from workloads import scenario_units  # noqa: E402 - needs the path above

    from repro.experiments import runner  # noqa: F401 - part of what set-up costs
    from repro.sim.scenario import build_scenario

    for scenario_type, run_seed in scenario_units(workload, seed):
        build_scenario(scenario_type, run_seed)
    pool = procs = None
    host_spawn_s = 0.0
    if workload == "paper-jobs2":
        pool = _start_pool()
    elif workload == "short-durable":
        procs, host_spawn_s = _start_hosts(workdir / "spool")
    print(json.dumps({"ready": True, "host_spawn_s": host_spawn_s}), flush=True)
    from measure import calibration_score

    print(json.dumps({"calibration_mops": calibration_score(PROBE_CALIBRATION_LOOP)}), flush=True)

    if pool is not None:
        pool.shutdown(wait=True)
    if procs is not None:
        from repro.dist.spool import Spool

        Spool(workdir / "spool").request_stop()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    return 0


if __name__ == "__main__":
    sys.exit(main())
