"""The repo benchmark: paper-campaign throughput, tick latency, layer times.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-serial --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` over
untraced passes; ``--trace 1`` runs one untraced pass and then traced
passes that report the per-layer metrics (see ``README.md`` here).  The
human-readable report goes to stdout; its last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exits 2, printing no
result, when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean
from typing import Any, Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7


def setup_sample(root: Path, workload: str, seed: int, work: Path) -> Tuple[float, float]:
    """Seconds from interpreter start to ready-to-dispatch, and host spawn.

    The first is put on the reference speed by the calibration score the
    probe takes right after it is ready.
    """
    from measure import speed_factor

    work.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(work)],
        cwd=root,
        stdout=subprocess.PIPE,
    )
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - started
        rest, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not line or not rest:
        raise RuntimeError(f"set-up probe for {workload} exited {proc.returncode}")
    mops = json.loads(rest.splitlines()[0])["calibration_mops"]
    return ready_s * speed_factor(mops), float(json.loads(line)["host_spawn_s"])


def _pass_line(p: Any) -> str:
    rate = p.ticks / p.wall_s if p.wall_s and p.ticks else 0.0
    state = "ok" if p.ok else "FAILED: " + "; ".join(p.problems)
    extra = ""
    if p.speed_mops:
        extra = (f", in-run speed {p.speed_mops:.2f} Mops/s "
                 f"({p.ticks / p.ref_wall_s:.1f} ticks/s at the reference)")
    if p.tick_samples:
        from measure import percentile

        p50, p99 = (percentile(p.tick_samples, q) * 1e3 for q in (50, 99))
        extra += (
            f", tick p50/p99 {p50:.3f}/{p99:.3f} ms as measured, "
            f"{percentile(p.ref_ticks(), 50) * 1e3:.3f}/{p99 * p.factor:.3f} ms at the reference"
        )
    return (
        f"  {p.label}: {p.runs} runs, {p.ticks} ticks, {p.wall_s:.3f} s wall, "
        f"{rate:.1f} ticks/s, cpu {p.cpu_s:.2f} s, calibration "
        f"{p.calibration:.2f} Mops/s{extra}, {state}"
    )


Outcome = Tuple[Dict[str, float], List[Any], List[str]]


def untraced(wl: Any, work: Path, seconds: float) -> Outcome:
    """End-to-end metrics over untraced passes (all but ``setup_s``).

    Times are put on the reference host speed by the calibration run
    before each scenario in the process that runs it (this one, a forked
    pool worker or a queue host); see ``README.md``.
    """
    from layers import TickClock
    from measure import calibration_score, median, percentile
    from workloads import check_counts

    passes: List[Any] = []
    timed = 0.0
    with TickClock(calibrate=True) as clock:
        while timed < seconds or not passes:
            calibration = calibration_score()
            pass_dir = work / f"pass{len(passes)}"
            result = wl.run_pass(pass_dir, clock, label=f"pass{len(passes)}")
            result.calibration = calibration
            shutil.rmtree(pass_dir, ignore_errors=True)
            passes.append(result)
            timed += result.wall_s
    problems = check_counts(passes)
    good = [p for p in passes if p.ok] if not problems else []
    values: Dict[str, float] = {}
    if good:
        # The median tick follows the host speed around it; the slowest
        # ticks do not, so they take their pass's factor (README.md).
        ticks = [t for p in good for t in p.ref_ticks()]
        slow_ticks = [t * p.factor for p in good for t in p.tick_samples]
        values = {
            "iterations_per_s": median(p.ticks / p.ref_wall_s for p in good),
            "runs_per_s": median(p.runs / p.ref_wall_s for p in good),
            "tick_p50_ms": percentile(ticks, 50) * 1e3,
            "tick_p99_ms": percentile(slow_ticks, 99) * 1e3,
            "cpu_ms_per_iteration": median(p.ref_cpu_s / p.ticks * 1e3 for p in good),
            "peak_rss_mb": passes[0].peak_rss_mb,
            "artifact_bytes_per_run": median(p.artifact_bytes / p.runs for p in good),
        }
        print(f"  tick samples: {len(ticks)} ({len(ticks) // 100} beyond p99)")
    return values, passes, problems


def traced(wl: Any, work: Path) -> Outcome:
    """Per-layer metrics (all but the host spawn time) from traced passes."""
    from layers import (
        PARENT_TARGETS,
        TICK_PARTITION,
        TICK_TARGETS,
        TRACE_WRITE,
        TickClock,
        Tracer,
        leftover_wrappers,
    )
    from measure import calibration_score, median, tree_bytes
    from repro.dist.spool import audit_spool
    from workloads import (
        FinishTimes,
        check_counts,
        spool_claims,
        tail_idle_worker_s,
        unit_trace_records,
    )

    problems: List[str] = []
    passes: List[Any] = []
    tick_runs: List[Tuple[Any, Any]] = []

    def run(label: str, targets: Any, inprocess: bool, progress: Any = None) -> Tuple[Any, Any]:
        calibration = calibration_score()
        tracer = Tracer(targets)
        with tracer:
            if inprocess:
                result = wl.run_inprocess(work / label, clock, label=label)
            else:
                result = wl.run_pass(work / label, clock, label=label, progress=progress)
        result.calibration = calibration
        passes.append(result)
        return result, tracer

    with TickClock() as clock:
        baseline, _ = run("untraced", (), False)
        finish = FinishTimes()
        if wl.name == "paper-serial":
            for i in range(2):
                tick_runs.append(run(f"traced{i}", TICK_TARGETS + PARENT_TARGETS, False,
                                     finish if i == 0 else None))
            dispatch, dispatch_tracer = tick_runs[0]
            overhead = median(p.wall_s for p, _ in tick_runs) / baseline.wall_s - 1.0
        else:
            dispatch, dispatch_tracer = run("dispatch", PARENT_TARGETS, False, finish)
            overhead = dispatch.wall_s / baseline.wall_s - 1.0
            for i in range(2):
                tick_runs.append(run(f"inprocess{i}", TICK_TARGETS + (TRACE_WRITE,), True))
    left = leftover_wrappers()
    if left:
        problems.append(f"wrappers left installed: {left}")

    problems += check_counts(passes)
    counts = [{m: tr.calls(m) for m in tr.stats} for _, tr in tick_runs]
    if any(c != counts[0] for c in counts):
        problems.append("traced call counts differ between identical passes")
    if any(not p.ok for p in passes) or problems:
        return {}, passes, problems

    ticks, runs = dispatch.ticks, dispatch.runs

    # Means over the traced passes, so the tick partition stays exact.
    def per_tick_ms(metric: str) -> float:
        return fmean(tr.seconds(metric) for _, tr in tick_runs) * 1e3 / ticks

    def per_call(metric: str, scale: float) -> float:
        calls = tick_runs[0][1].calls(metric)
        return fmean(tr.seconds(metric) for _, tr in tick_runs) * scale / calls if calls else 0.0

    calls0 = tick_runs[0][1]
    tick_ms = fmean(sum(p.tick_samples) for p, _ in tick_runs) * 1e3 / ticks
    values: Dict[str, float] = {
        "bench.tick_ms": tick_ms,
        "bench.trace_overhead_frac": overhead,
        "bench.calibration_mops": median(p.calibration for p in passes),
        "geom.footprint_gap.calls_per_tick": calls0.calls("geom.footprint_gap") / ticks,
        "geom.footprint_gap.us_per_call": per_call("geom.footprint_gap", 1e6),
        "sim.route.point_at.calls_per_tick": calls0.calls("sim.route.point_at") / ticks,
        "sim.route.point_at.ns_per_call": per_call("sim.route.point_at", 1e9),
        "llm.planner.plan_ms_per_tick": per_tick_ms("llm.planner.plan"),
        "llm.features.observe_ms_per_tick": per_tick_ms("llm.features.observe"),
        "env.observe_ms_per_tick": per_tick_ms("env.observe"),
        "env.apply_action_ms_per_tick": per_tick_ms("env.apply_action"),
        "env.advance_ms_per_tick": per_tick_ms("env.advance"),
        "sim.world.step_ms_per_tick": per_tick_ms("sim.world.step"),
        "roles.predict_min_separation.calls_per_tick":
            calls0.calls("roles.predict_min_separation") / ticks,
        "roles.predict_min_separation.ms_per_tick": per_tick_ms("roles.predict_min_separation"),
        "stl.safety_robustness.ms_per_run":
            fmean(tr.seconds("stl.safety_robustness") for _, tr in tick_runs) * 1e3 / runs,
        "obs.trace.records_per_tick": 0.0,
        "obs.trace.bytes_per_tick": 0.0,
        "obs.trace.write_us_per_record": 0.0,
        "exec.journal.append_ms_per_run":
            dispatch_tracer.seconds("exec.journal.append_task") * 1e3 / runs,
        "exec.engine.worker_busy_frac": dispatch.report.summary.utilization,
        "exec.engine.tail_idle_worker_s": tail_idle_worker_s(dispatch.finished_at, dispatch.report),
        "dist.spool.claims_per_run": 0.0,
        "dist.spool.requeues": 0.0,
        "dist.spool.bytes_per_run": 0.0,
        "dist.queue.coordinator_ms_per_run": (
            dispatch_tracer.seconds("dist.spool.enqueue")
            + dispatch_tracer.seconds("dist.queue.drain")
        ) * 1e3 / runs,
    }
    for role in ("generator", "safety_monitor", "security_assessor", "fault_injector",
                 "performance_oracle", "recovery_planner"):
        values[f"roles.{role}.execute_ms_per_tick"] = per_tick_ms(f"roles.{role}.execute")
    values["core.orchestrator.self_ms_per_tick"] = tick_ms - sum(
        per_tick_ms(m) for m in TICK_PARTITION
    )
    if values["core.orchestrator.self_ms_per_tick"] < 0:
        problems.append("tick layers exceed the measured tick time")
    if dispatch.spool is not None:
        records, size = unit_trace_records(dispatch.trace)
        inproc = {unit_trace_records(p.trace)[0] for p, _ in tick_runs}
        if inproc != {records}:
            problems.append(f"trace records differ: queue {records}, in-process {inproc}")
        audit = audit_spool(dispatch.spool)
        values.update({
            "obs.trace.records_per_tick": records / ticks,
            "obs.trace.bytes_per_tick": size / ticks,
            "obs.trace.write_us_per_record": per_call("obs.trace.write", 1e6),
            "dist.spool.claims_per_run": spool_claims(dispatch.spool) / runs,
            "dist.spool.requeues": float(
                audit["total_outcomes"] - audit["unique_ok_keys"] + audit["quarantined"]
            ),
            "dist.spool.bytes_per_run": tree_bytes(dispatch.spool) / runs,
        })
    return values, passes, problems


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    expected = root / "results" / "evaluation.txt"
    for needed in (root / "src" / "repro" / "__init__.py", expected, root / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(root)} is missing; run from a checkout "
                  "root", file=sys.stderr)
            return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[section]}

    sys.path.insert(0, str(root / "src"))
    from measure import median
    from workloads import make_workload

    try:
        wl = make_workload(args.workload, args.seed, root, expected)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)

    def set_up(count: int) -> List[Tuple[float, float]]:
        return [
            setup_sample(root, args.workload, args.seed, work / f"setup{i}")
            for i in range(count)
        ]

    # Half the set-up samples come before the passes and half after, so
    # the median spans the run rather than one moment of a shared host.
    samples = 3 if args.trace else SETUP_SAMPLES
    try:
        setup = set_up(samples // 2)
        wl.prepare(work)
        if args.trace:
            values, passes, problems = traced(wl, work)
        else:
            values, passes, problems = untraced(wl, work, args.seconds)
        setup += set_up(samples - samples // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    print(f"{args.workload} seed {args.seed}: set-up "
          + ", ".join(f"{s:.3f} s" for s, _ in setup))
    if values:
        values["setup_s"] = median(s for s, _ in setup)
        values["dist.queue.host_spawn_s"] = median(h for _, h in setup)

    for p in passes:
        print(_pass_line(p))
    for problem in problems:
        print(f"  problem: {problem}")
    missing = [name for name in wanted if name not in values]
    if values and missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    metrics = {
        name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in wanted.items()
    }
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    attempted = sum(p.runs for p in passes)
    failed = sum(p.failed_runs for p in passes)
    if problems:
        failed = attempted
    result = {
        "correct": failed == 0 and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
