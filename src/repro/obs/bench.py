"""Benchmark harness and regression gate: the repo's perf trajectory.

``python -m repro.obs bench`` runs *pinned* campaign workloads — fixed
scenario sets, seed tuples, and job counts, so two invocations measure
the same work — under an armed :class:`~repro.obs.profile.PhaseProfiler`
and emits one schema-versioned ``BENCH_<workload>.json`` per workload:
throughput (runs/s, iterations/s), wall time, the per-phase breakdown,
per-role latency percentiles, and worker utilization.  Committing these
files at the repo root seeds a durable performance trajectory next to the
dependability evidence traces already provide.

``python -m repro.obs regress BASELINE CURRENT`` compares two BENCH
files (or two directories of them, matched by workload name), verifies
the runs are *comparable* (identical run and iteration counts — a
throughput delta between different workloads is noise, not signal), and
exits 2 when any gated throughput metric regressed beyond the tolerance.
Identical inputs always exit 0, so the gate is CI-stable by construction.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..jsonutil import dumps as strict_dumps
from .profile import PhaseProfiler, load_profile

#: Version stamp of the BENCH JSON layout.
BENCH_SCHEMA_VERSION = 1

#: File name prefix every benchmark result carries.
BENCH_PREFIX = "BENCH_"

#: Throughput metrics the regression gate checks (name, higher_is_better).
GATE_METRICS: Tuple[Tuple[str, bool], ...] = (
    ("runs_per_s", True),
    ("iterations_per_s", True),
    ("wall_time_s", False),
)


@dataclass(frozen=True)
class Workload:
    """One pinned benchmark workload: the same work, every time.

    Scenario values and seeds are stored as plain strings/ints so the
    definition (and therefore the emitted ``config`` block) is stable
    across refactors of the scenario enum.
    """

    name: str
    description: str
    scenarios: Tuple[str, ...]
    seeds: Tuple[int, ...]
    jobs: int = 1
    deadline_ms: Optional[float] = None
    breaker: bool = False
    quick: bool = False
    kind: str = "campaign"
    family: str = ""
    budget: int = 0
    search_seed: int = 0
    backend: str = "local"
    hosts: int = 0

    def config(self) -> Dict[str, Any]:
        if self.kind == "search":
            return {
                "kind": self.kind,
                "family": self.family,
                "budget": self.budget,
                "search_seed": self.search_seed,
                "jobs": self.jobs,
            }
        config = {
            "scenarios": list(self.scenarios),
            "seeds": list(self.seeds),
            "jobs": self.jobs,
            "deadline_ms": self.deadline_ms,
            "breaker": self.breaker,
        }
        if self.backend != "local":
            config["backend"] = self.backend
            config["hosts"] = self.hosts
        return config


#: The pinned workload registry.  ``quick`` workloads are the CI set.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="smoke",
            description="2 nominal runs, serial — the CI tripwire",
            scenarios=("nominal",),
            seeds=(0, 1),
            jobs=1,
            quick=True,
        ),
        Workload(
            name="smoke-jobs4",
            description="2 nominal runs over 4 workers — dispatch overhead tripwire",
            scenarios=("nominal",),
            seeds=(0, 1),
            jobs=4,
            quick=True,
        ),
        Workload(
            name="smoke-dist",
            description="2 nominal runs over a 3-host work queue — dist-backend tripwire",
            scenarios=("nominal",),
            seeds=(0, 1),
            jobs=1,
            backend="queue",
            hosts=3,
            quick=True,
        ),
        Workload(
            name="search",
            description="pedestrian falsification, budget 12, serial — the search tripwire",
            scenarios=(),
            seeds=(),
            jobs=1,
            quick=True,
            kind="search",
            family="pedestrian",
            budget=12,
            search_seed=0,
        ),
        Workload(
            name="resilient",
            description="nominal+congested with 100 ms deadlines and breaker armed",
            scenarios=("nominal", "congested"),
            seeds=(0, 1, 2),
            jobs=1,
        ),
        Workload(
            name="campaign",
            description="all 6 scenarios x 5 seeds, serial — the hot-path workload",
            scenarios=(
                "nominal",
                "congested",
                "conflicting_traffic",
                "ghost_obstacle_attack",
                "trajectory_spoof_attack",
                "pedestrian_crossing",
            ),
            seeds=(0, 1, 2, 3, 4),
            jobs=1,
        ),
        Workload(
            name="campaign-jobs4",
            description="all 6 scenarios x 5 seeds over 4 workers — scaling workload",
            scenarios=(
                "nominal",
                "congested",
                "conflicting_traffic",
                "ghost_obstacle_attack",
                "trajectory_spoof_attack",
                "pedestrian_crossing",
            ),
            seeds=(0, 1, 2, 3, 4),
            jobs=4,
        ),
    )
}


def bench_file_name(workload: str) -> str:
    return f"{BENCH_PREFIX}{workload}.json"


def _role_latencies(profiler: PhaseProfiler) -> Dict[str, Dict[str, float]]:
    """Per-role latency summary (ms) from the merged ``role.*`` phases."""
    roles: Dict[str, Dict[str, float]] = {}
    for name in sorted(profiler.phases):
        if not name.startswith("role."):
            continue
        stat = profiler.phases[name]
        hist = stat.hist
        roles[name[len("role."):]] = {
            "count": float(stat.count),
            "mean_ms": (stat.wall_s / stat.count * 1e3) if stat.count else 0.0,
            "p50_ms": hist.percentile(50.0) * 1e3,
            "p90_ms": hist.percentile(90.0) * 1e3,
            "p99_ms": hist.percentile(99.0) * 1e3,
            "max_ms": (hist.max or 0.0) * 1e3,
        }
    return roles


def _run_campaign_pass(
    workload: Workload, effective_jobs: int
) -> Dict[str, Any]:
    """One campaign pass: counts + totals + merged phase profile."""
    # Imported here so `repro.obs` stays importable without the sim stack.
    from ..experiments.campaign import CampaignOptions, execute_suite
    from ..sim.scenario import ScenarioType

    scenario_types = tuple(ScenarioType(v) for v in workload.scenarios)
    options = CampaignOptions(
        deadline_ms=workload.deadline_ms, breaker=workload.breaker
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        profile_dir = Path(tmp) / "profile"
        results, report = execute_suite(
            scenario_types,
            workload.seeds,
            options,
            jobs=effective_jobs,
            progress=None,
            profile=profile_dir,
            backend=workload.backend,
            hosts=workload.hosts,
            spool=Path(tmp) / "spool",
        )
        merged = load_profile(profile_dir / "profile.json")
    outcomes = [o for outcome_list in results.values() for o in outcome_list]
    summary = report.summary
    iterations = sum(o.iterations for o in outcomes)
    wall = summary.wall_time_s
    return {
        "counts": {"runs": len(outcomes), "iterations": iterations},
        "totals": {
            "wall_time_s": wall,
            "runs_per_s": summary.runs_per_s,
            "iterations_per_s": iterations / wall if wall > 0 else 0.0,
            "busy_time_s": summary.busy_time_s,
            "utilization": summary.utilization,
            "mode": summary.mode,
            "jobs": summary.jobs,
        },
        "merged": merged,
    }


def _run_search_workload_pass(
    workload: Workload, effective_jobs: int
) -> Dict[str, Any]:
    """One falsification-search pass via :class:`repro.search.SearchDriver`."""
    # Imported here so `repro.obs` stays importable without the sim stack.
    from ..search import SearchConfig, SearchDriver

    config = SearchConfig(
        family=workload.family,
        mode="falsify",
        seed=workload.search_seed,
        budget=workload.budget,
        jobs=effective_jobs,
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        out_dir = Path(tmp) / "search-out"
        profile_dir = Path(tmp) / "profile"
        driver = SearchDriver(
            config, out_dir=out_dir, profile=profile_dir, progress=None
        )
        result = driver.run()
        merged = load_profile(profile_dir / "profile.json")
    iterations = sum(e.iterations for e in result.evaluations)
    wall = result.wall_time_s
    busy = result.busy_time_s
    return {
        "counts": {
            "runs": len(result.evaluations),
            "iterations": iterations,
        },
        "totals": {
            "wall_time_s": wall,
            "runs_per_s": len(result.evaluations) / wall if wall > 0 else 0.0,
            "iterations_per_s": iterations / wall if wall > 0 else 0.0,
            "busy_time_s": busy,
            "utilization": (
                min(busy / (wall * result.jobs), 1.0)
                if wall > 0 and result.jobs > 0
                else 0.0
            ),
            "mode": result.mode,
            "jobs": result.jobs,
        },
        "merged": merged,
    }


def run_workload(
    workload: Workload,
    *,
    repeat: int = 1,
    jobs: Optional[int] = None,
) -> Dict[str, Any]:
    """Execute one pinned workload and build its BENCH payload.

    ``repeat`` > 1 runs the workload several times and keeps the
    best-throughput pass (noise damping on shared runners); counts are
    asserted identical across passes — a workload that is not
    deterministic cannot seed a trajectory.  ``jobs`` overrides the
    pinned job count (recorded in the config block when it does).
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    effective_jobs = workload.jobs if jobs is None else jobs
    run_pass = (
        _run_search_workload_pass
        if workload.kind == "search"
        else _run_campaign_pass
    )

    best: Optional[Dict[str, Any]] = None
    counts_seen: Optional[Dict[str, int]] = None
    for _ in range(repeat):
        outcome = run_pass(workload, effective_jobs)
        merged = outcome["merged"]
        counts = outcome["counts"]
        if counts_seen is None:
            counts_seen = counts
        elif counts != counts_seen:
            raise RuntimeError(
                f"workload {workload.name!r} is not deterministic across "
                f"repeats: {counts_seen} != {counts}"
            )
        pass_payload = {
            "counts": counts,
            "totals": outcome["totals"],
            "phases": merged.get("phases") or {},
            "engine_phases": merged.get("engine_phases") or {},
            "roles": _role_latencies(
                PhaseProfiler.from_snapshot(merged.get("phases") or {})
            ),
        }
        if best is None or pass_payload["totals"]["runs_per_s"] > best["totals"]["runs_per_s"]:
            best = pass_payload

    config = workload.config()
    config["jobs"] = effective_jobs
    config["repeat"] = repeat
    assert best is not None
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "workload": workload.name,
        "description": workload.description,
        "config": config,
        "provenance": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": sys.platform,
        },
        **best,
    }


def write_bench(payload: Dict[str, Any], out_dir: "str | Path") -> Path:
    """Write one BENCH payload to ``<out_dir>/BENCH_<workload>.json``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / bench_file_name(payload["workload"])
    path.write_text(strict_dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_bench(path: "str | Path") -> Dict[str, Any]:
    return json.loads(Path(path).read_text())


def discover_bench_files(path: "str | Path") -> Dict[str, Path]:
    """Workload name -> BENCH file, for a file or a directory of them."""
    path = Path(path)
    if path.is_file():
        data = load_bench(path)
        return {str(data.get("workload", path.stem)): path}
    if not path.is_dir():
        raise FileNotFoundError(f"no BENCH file or directory at {path}")
    found: Dict[str, Path] = {}
    for candidate in sorted(path.glob(BENCH_PREFIX + "*.json")):
        data = load_bench(candidate)
        found[str(data.get("workload", candidate.stem))] = candidate
    return found


def render_bench(payload: Dict[str, Any]) -> str:
    """Human-readable digest of one BENCH payload."""
    totals = payload["totals"]
    counts = payload["counts"]
    title = f"bench {payload['workload']} (schema v{payload['schema']})"
    lines = [title, "=" * len(title)]
    lines.append(
        f"runs        : {counts['runs']} ({counts['iterations']} iterations)"
    )
    lines.append(
        f"throughput  : {totals['runs_per_s']:.2f} runs/s, "
        f"{totals['iterations_per_s']:.1f} iterations/s"
    )
    lines.append(
        f"wall        : {totals['wall_time_s']:.2f} s "
        f"(busy {totals['busy_time_s']:.2f} s, "
        f"utilization {totals['utilization']:.0%}, "
        f"mode {totals['mode']}, jobs={totals['jobs']})"
    )
    roles = payload.get("roles") or {}
    if roles:
        lines.append("role latency (ms):")
        lines.append(
            f"  {'role':<24} {'count':>7} {'mean':>8} {'p50':>8} {'p90':>8} "
            f"{'p99':>8} {'max':>8}"
        )
        for name, s in roles.items():
            lines.append(
                f"  {name:<24} {int(s['count']):>7} {s['mean_ms']:>8.3f} "
                f"{s['p50_ms']:>8.3f} {s['p90_ms']:>8.3f} {s['p99_ms']:>8.3f} "
                f"{s['max_ms']:>8.3f}"
            )
    phases = PhaseProfiler.from_snapshot(payload.get("phases") or {})
    if phases.phases:
        lines.append("phases:")
        lines.extend(phases.render_lines())
    engine = PhaseProfiler.from_snapshot(payload.get("engine_phases") or {})
    if engine.phases:
        lines.append("engine phases:")
        lines.extend(engine.render_lines())
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the regression gate
# ----------------------------------------------------------------------
@dataclass
class BenchComparison:
    """Outcome of comparing one workload's baseline vs current BENCH."""

    workload: str
    deltas: List[str] = field(default_factory=list)
    regressions: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def compare_bench(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    tolerance_pct: float,
) -> BenchComparison:
    """Gate ``current`` against ``baseline`` for one workload.

    Comparability first: run and iteration counts must match — the gate
    measures the same work or it measures nothing.  Then every metric in
    :data:`GATE_METRICS` may move against its good direction by at most
    ``tolerance_pct`` percent of the baseline value.
    """
    comparison = BenchComparison(workload=str(baseline.get("workload", "?")))
    if baseline.get("workload") != current.get("workload"):
        comparison.errors.append(
            f"workload mismatch: {baseline.get('workload')!r} vs "
            f"{current.get('workload')!r}"
        )
        return comparison
    if baseline.get("counts") != current.get("counts"):
        comparison.errors.append(
            f"counts differ (baseline {baseline.get('counts')} vs current "
            f"{current.get('counts')}): not the same work, not comparable"
        )
        return comparison

    for metric, higher_is_better in GATE_METRICS:
        base = float((baseline.get("totals") or {}).get(metric, 0.0))
        curr = float((current.get("totals") or {}).get(metric, 0.0))
        delta_pct = ((curr - base) / base * 100.0) if base else 0.0
        arrow = f"{metric:<18} {base:>10.3f} -> {curr:>10.3f}  ({delta_pct:+7.1f}%)"
        comparison.deltas.append(arrow)
        regressed = (
            curr < base * (1.0 - tolerance_pct / 100.0)
            if higher_is_better
            else curr > base * (1.0 + tolerance_pct / 100.0)
        )
        if regressed:
            comparison.regressions.append(
                f"{metric}: {base:.3f} -> {curr:.3f} "
                f"({delta_pct:+.1f}% exceeds ±{tolerance_pct:g}% tolerance)"
            )
    return comparison


def regress(
    baseline_path: "str | Path",
    current_path: "str | Path",
    tolerance_pct: float,
    *,
    workloads: Optional[Sequence[str]] = None,
) -> "Tuple[List[BenchComparison], int]":
    """Compare baseline vs current BENCH files; return (comparisons, exit).

    Exit codes: 0 clean, 1 nothing comparable (or counts mismatch),
    2 at least one metric regressed beyond tolerance.
    """
    base_files = discover_bench_files(baseline_path)
    curr_files = discover_bench_files(current_path)
    names = sorted(set(base_files) & set(curr_files))
    if workloads:
        names = [n for n in names if n in set(workloads)]
    comparisons: List[BenchComparison] = []
    for name in names:
        comparisons.append(
            compare_bench(
                load_bench(base_files[name]), load_bench(curr_files[name]), tolerance_pct
            )
        )
    if not comparisons:
        return comparisons, 1
    if any(c.regressions for c in comparisons):
        return comparisons, 2
    if all(c.errors for c in comparisons):
        return comparisons, 1
    return comparisons, 0
