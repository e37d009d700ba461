"""The planner renders its prompt only when something reads it.

Seed 0 of each paper scenario runs twice: once reading every
``PlanOutput.prompt`` at plan time, once reading them all only after the
last ``run_once`` has returned.  The texts must agree byte for byte (the
captured history and snapshot must not move under a late read), their
digest must equal the eager renderer's, and the untraced runs themselves
must not render anything.
"""

import hashlib
import itertools
from collections import Counter

import pytest

import repro.llm.planner as planner_module
import repro.roles.fault_injector as fault_injector_module
from repro.experiments.campaign import run_once
from repro.experiments.table2 import SCENARIO_ORDER

#: Prompts rendered over seed 0 of the six paper scenarios, and the sha256
#: of their UTF-8 texts in run order, each followed by ``b"\0"``, as
#: rendered by the eager planner that built every prompt at plan time, in
#: a fresh process.
SEED0_PROMPTS = 1217
SEED0_DIGEST = "2edfc2db71d73107c1ad243e4c0826ef5ca868502ead183ded4321f022fd20c4"

_RENDERERS = ("build_sensor_suite", "build_prompt")


def _digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _campaign(read_at_plan_time):
    """Run the six seed-0 scenarios; return (texts, renders during runs, renders in all)."""
    outputs = []
    calls = Counter()
    real_plan = planner_module.LLMPlanner.plan

    def plan(self, *args, **kwargs):
        output = real_plan(self, *args, **kwargs)
        if read_at_plan_time:
            output.prompt
        outputs.append(output)
        return output

    def counting(name):
        real = getattr(planner_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner_module.LLMPlanner, "plan", plan)
        # Ghost ids come from a process-wide counter and reach the LiDAR
        # text; restart it so the digest does not depend on earlier runs.
        mp.setattr(fault_injector_module, "_ghost_ids", itertools.count(-1, -1))
        for name in _RENDERERS:
            mp.setattr(planner_module, name, counting(name))
        for scenario in SCENARIO_ORDER:
            run_once(scenario, 0)
        during_runs = Counter(calls)
        texts = [output.prompt.text for output in outputs]
    return texts, during_runs, calls


@pytest.fixture(scope="module")
def eager():
    return _campaign(read_at_plan_time=True)


@pytest.fixture(scope="module")
def lazy():
    return _campaign(read_at_plan_time=False)


def test_late_reads_match_plan_time_reads(eager, lazy):
    assert len(lazy[0]) == len(eager[0]) == SEED0_PROMPTS
    mismatches = [i for i, (a, b) in enumerate(zip(eager[0], lazy[0])) if a != b]
    assert not mismatches, f"first differing prompt: #{mismatches[0]}"


def test_prompt_digest_matches_eager_renderer(eager, lazy):
    assert _digest(eager[0]) == SEED0_DIGEST
    assert _digest(lazy[0]) == SEED0_DIGEST


def test_untraced_runs_render_nothing(eager, lazy):
    _, during_runs, total = lazy
    assert all(during_runs[name] == 0 for name in _RENDERERS), during_runs
    # The counters do see renders: each late read renders exactly once.
    assert all(total[name] == SEED0_PROMPTS for name in _RENDERERS), total
    assert all(eager[1][name] == SEED0_PROMPTS for name in _RENDERERS), eager[1]
