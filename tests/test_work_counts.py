"""The work-count oracle (``benchmarks/work_counts.py``) on a slice of runs.

The full 90-run compare runs in CI; here two committed rows are
reproduced in this already-warm process, and two injected regressions
that leave every report byte unchanged must fail the compare: a route
sampled twice per call, and a phase profiler left armed.  A wall-time
gate with a 900% tolerance passes both.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments import campaign
from repro.obs import PhaseProfiler
from repro.sim.intersection import Route
from repro.sim.scenario import ScenarioType

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("work_counts", ROOT / "benchmarks" / "work_counts.py")
work_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(work_counts)

SLICE = ((ScenarioType.GHOST_ATTACK, 2), (ScenarioType.NOMINAL, 0))


@pytest.fixture(scope="module")
def committed():
    rows = json.loads((ROOT / "results" / "work_counts.json").read_text())
    return {f"{scenario.value}/{seed}": rows[f"{scenario.value}/{seed}"] for scenario, seed in SLICE}


def _count_slice(**kwargs):
    def work():
        for scenario, seed in SLICE:
            campaign.run_once(scenario, seed, **kwargs)

    return work


def test_slice_reproduces_the_committed_rows(committed):
    assert work_counts.compare(committed, work_counts.per_run_counts(_count_slice())) == []


def test_counting_restores_every_binding():
    originals = (Route.xy_at, PhaseProfiler.phase, campaign.run_once)
    work_counts.per_run_counts(lambda: None)
    assert (Route.xy_at, PhaseProfiler.phase, campaign.run_once) == originals


def test_doubled_route_sampling_fails_the_compare(committed):
    def work():
        counted = Route.xy_at

        def twice(self, s):
            counted(self, s)
            return counted(self, s)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Route, "xy_at", twice)
            _count_slice()()

    problems = work_counts.compare(committed, work_counts.per_run_counts(work))
    assert problems, "a 2x route-sampling regression passed the oracle"
    assert all("Route.xy_at" in line for line in problems), problems


def test_armed_profiler_fails_the_compare(committed):
    rows = work_counts.per_run_counts(_count_slice(profiler=PhaseProfiler()))
    problems = work_counts.compare(committed, rows)
    assert problems, "an armed profiler passed the oracle"
    assert {line.split()[1] for line in problems} == {
        "PhaseProfiler.phase", "PhaseProfiler.record",
    }, problems
