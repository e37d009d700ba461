"""LLMPlanner: the planner-facing facade over the surrogate model.

Ties the pipeline of Fig. 3 together for one tick: perceived snapshot ->
feature extraction -> model decision (with running-state history) -> CoT
explanation.  The prompt is templated from the same inputs only when
:attr:`PlanOutput.prompt` is read.  The Generator role
(:class:`~repro.roles.generator.LLMGeneratorRole`) owns an instance and
calls :meth:`plan` each iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, List, Optional, Sequence

from ..sim.actions import Maneuver
from ..sim.intersection import Route
from ..sim.perception import PerceptionSnapshot
from ..sim.sensors import build_sensor_suite
from .features import PlannerObservation, observe
from .prompt import HistoryEntry, PlannerPrompt, build_prompt
from .surrogate import PlannerDecision, SurrogateConfig, SurrogateLLM


def _render_prompt(
    snapshot: PerceptionSnapshot,
    route: Route,
    ego_s: float,
    ego_acceleration: float,
    goal: str,
    history: Sequence[HistoryEntry],
) -> PlannerPrompt:
    suite = build_sensor_suite(snapshot, route, ego_s, ego_acceleration)
    return build_prompt(suite, goal, history=history)


@dataclass
class PlanOutput:
    """The full planner output for one tick; ``prompt`` renders on first read."""

    maneuver: Maneuver
    explanation: str
    observation: PlannerObservation
    render: Callable[[], PlannerPrompt] = field(repr=False, compare=False)
    failure_mode: Optional[str] = None
    fresh: bool = True

    @cached_property
    def prompt(self) -> PlannerPrompt:
        return self.render()


class LLMPlanner:
    """Tactical planner: prompt-templated surrogate LLM with history.

    Args:
        goal: the mission string embedded in every prompt.
        config: surrogate behaviour parameters.
        seed: RNG seed for the surrogate's stochastic failure modes.
        history_limit: past decisions kept in the running state; 0 keeps
            no history at all (the prompt carries only the current tick).
    """

    def __init__(
        self,
        goal: str = "Proceed straight through the intersection.",
        config: Optional[SurrogateConfig] = None,
        seed: int = 0,
        history_limit: int = 8,
    ) -> None:
        self.goal = goal
        self.model = SurrogateLLM(config=config, seed=seed)
        self.history: List[HistoryEntry] = []
        self.history_limit = history_limit

    def reset(self) -> None:
        """Fresh run: clear the model state and the decision history."""
        self.model.reset()
        self.history.clear()

    def plan(
        self,
        snapshot: PerceptionSnapshot,
        route: Route,
        ego_s: float,
        ego_acceleration: float = 0.0,
    ) -> PlanOutput:
        """Run the full per-tick planning pipeline."""
        # The prompt sees the history before this tick's decision joins it.
        render = partial(
            _render_prompt, snapshot, route, ego_s, ego_acceleration, self.goal, tuple(self.history)
        )
        observation = observe(snapshot, route, ego_s)
        decision: PlannerDecision = self.model.decide(observation)

        if decision.fresh:
            self.history.append(
                HistoryEntry(
                    time=snapshot.time,
                    maneuver=decision.maneuver,
                    explanation=decision.explanation,
                )
            )
            # Trim to the newest `history_limit` entries.  A negative-index
            # slice (`[: -limit]`) would be a no-op at limit 0 and grow the
            # history without bound, so compute the overflow explicitly.
            overflow = len(self.history) - self.history_limit
            if overflow > 0:
                del self.history[:overflow]

        return PlanOutput(
            maneuver=decision.maneuver,
            explanation=decision.explanation,
            observation=observation,
            render=render,
            failure_mode=decision.failure_mode,
            fresh=decision.fresh,
        )
