"""The Orchestration Controller: the iterative assurance loop (§III.C).

``OrchestrationController`` wires together the role graph, the shared
:class:`~repro.core.state.StateManager`, the
:class:`~repro.core.metrics.DependabilityMetrics` collector, the event bus
and an :class:`~repro.env.interface.EnvironmentInterface`, then executes
the paper's ten-step cycle: state update -> generation -> dependability
assessment -> feedback processing -> decision/adaptation -> action
execution -> metrics logging -> loop/terminate.
"""

from __future__ import annotations

import enum
import time as wall_clock
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..env.interface import EnvironmentInterface
from ..obs.profile import phase
from .config import OrchestratorConfig
from .errors import ConfigurationError, ResilienceError, RoleExecutionError
from .events import Event, EventBus, EventKind
from .metrics import DependabilityMetrics
from .resilience import HOLD, ResilienceCoordinator
from .role import Role, RoleContext, RoleKind, RoleResult, Verdict
from .scheduling import RoleGraph, ScheduledRole
from .state import StateManager

#: World-state / result-data key carrying the tactical action.
ACTION_KEY = "action"

#: Violation category assigned per role kind when a FAIL verdict appears.
_VIOLATION_CATEGORY = {
    RoleKind.SAFETY_MONITOR: "safety",
    RoleKind.SECURITY_ASSESSOR: "security",
    RoleKind.PERFORMANCE_ORACLE: "performance",
}


class TerminationReason(enum.Enum):
    """Why an orchestration run ended."""

    ENVIRONMENT_DONE = "environment_done"
    MAX_ITERATIONS = "max_iterations"
    VIOLATION_HALT = "violation_halt"


@dataclass
class OrchestrationResult:
    """Outcome of one :meth:`OrchestrationController.run` call."""

    reason: TerminationReason
    iterations: int
    metrics: DependabilityMetrics
    environment_info: Dict[str, Any] = field(default_factory=dict)
    wall_time_s: float = 0.0

    @property
    def violation_counts(self) -> Dict[str, int]:
        return self.metrics.violation_counts


class OrchestrationController:
    """Central coordinator of the multi-role V&V loop (§III.B.1).

    Args:
        roles: a :class:`~repro.core.scheduling.RoleGraph`, or a plain list
            of roles which is wrapped into the paper's sequential chain.
        environment: simulator binding.
        config: loop configuration.

    The controller owns the StateManager, metrics and event bus for the
    run; they are exposed as attributes for inspection and for subscribers
    (e.g. trace recorders) to hook into before :meth:`run`.
    """

    def __init__(
        self,
        roles: "RoleGraph | List[Role]",
        environment: EnvironmentInterface,
        config: Optional[OrchestratorConfig] = None,
    ) -> None:
        self.config = config or OrchestratorConfig()
        self.graph = roles if isinstance(roles, RoleGraph) else RoleGraph.sequential(roles)
        if len(self.graph) == 0:
            raise ConfigurationError("at least one role is required")
        self.environment = environment
        self.state = StateManager(history_limit=self.config.history_limit)
        self.metrics = DependabilityMetrics()
        self.events = EventBus(
            keep_log=self.config.keep_event_log,
            max_log=self.config.event_log_limit,
        )
        #: Optional tracing hook, installed by
        #: :meth:`repro.obs.trace.TraceRecorder.attach`.  ``None`` (the
        #: default) keeps tracing zero-cost: the hot path pays one
        #: ``is not None`` check per role execution and nothing else.
        self.tracer: Optional[Any] = None
        #: Optional phase profiler (:class:`repro.obs.profile.PhaseProfiler`).
        #: ``None`` (the default) keeps profiling zero-cost: every phase
        #: site enters one shared null context and nothing else.
        self.profiler: Optional[Any] = None
        self._order = self.graph.execution_order()
        if not any(s.role.kind is RoleKind.GENERATOR for s in self._order):
            raise ConfigurationError(
                "the role set must include a Generator (the AI under test)"
            )
        #: Resilience layer (deadlines, breaker + fallback, action-hold);
        #: ``None`` when ``config.resilience`` is unset keeps the legacy
        #: loop behaviour bit-for-bit.
        self.resilience: Optional[ResilienceCoordinator] = (
            ResilienceCoordinator(self.config.resilience)
            if self.config.resilience is not None
            else None
        )
        if self.resilience is not None:
            fallback = self.resilience.config.fallback
            if fallback is not None and fallback.name in self.graph:
                raise ResilienceError(
                    f"fallback role {fallback.name!r} collides with a scheduled "
                    "role; the fallback must stay outside the role graph"
                )

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> OrchestrationResult:
        """Execute the iterative assurance process until termination."""
        started = wall_clock.perf_counter()
        self.state.reset()
        self.metrics = DependabilityMetrics()
        for scheduled in self._order:
            scheduled.role.reset()
        if self.resilience is not None:
            self.resilience.reset()
        self.environment.reset()

        iteration = 0
        reason = TerminationReason.ENVIRONMENT_DONE
        while True:
            if self.config.max_iterations is not None and iteration >= self.config.max_iterations:
                reason = TerminationReason.MAX_ITERATIONS
                break
            if self.environment.done:
                reason = TerminationReason.ENVIRONMENT_DONE
                break

            violation_this_iteration = self._run_iteration(iteration)
            iteration += 1
            self.metrics.iterations_completed = iteration

            if violation_this_iteration and self.config.halt_on_violation:
                reason = TerminationReason.VIOLATION_HALT
                break

        info = self.environment.result_info()
        self._publish(EventKind.RUN_TERMINATED, iteration, payload={"reason": reason.value, **info})
        return OrchestrationResult(
            reason=reason,
            iterations=iteration,
            metrics=self.metrics,
            environment_info=info,
            wall_time_s=wall_clock.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    # one iteration = the paper's steps 2-9
    # ------------------------------------------------------------------
    def _run_iteration(self, iteration: int) -> bool:
        env = self.environment
        profiler = self.profiler
        self.state.begin_iteration(iteration, env.time)
        self._publish(EventKind.ITERATION_STARTED, iteration)

        # Step 3: state update.
        with phase(profiler, "sim.observe"):
            self.state.update_world_state(env.observe())
        self._publish(EventKind.STATE_UPDATED, iteration)

        # Steps 4-5: generation and dependability assessment, in order.
        violation = False
        for scheduled in self._order:
            violation |= self._execute_role(scheduled, iteration)

        # Steps 6-7: feedback processing, decision and adaptation.
        with phase(profiler, "orchestrator.decide"):
            action, source = self._decide_action()

        # Containment: never hand the environment a missing decision when
        # an action-hold policy is configured — re-issue the last executed
        # action (bounded), then the configured safe action.
        if self.resilience is not None:
            with phase(profiler, "orchestrator.resilience"):
                if action is None:
                    hold = self.resilience.hold
                    action, policy = hold.fill()
                    held = policy == HOLD
                    source = "action-hold" if held else "safe-action"
                    self.metrics.record_hold(held)
                    self._publish(
                        EventKind.ACTION_HELD,
                        iteration,
                        payload={
                            "policy": policy,
                            "action": self._describe_action(action),
                            "consecutive_holds": hold.consecutive_holds,
                        },
                    )
                else:
                    self.resilience.hold.note_executed(action)

        # Step 8: action execution.
        with phase(profiler, "sim.apply_action"):
            env.apply_action(action)
        self._publish(
            EventKind.ACTION_EXECUTED,
            iteration,
            payload={"action": self._describe_action(action), "source": source},
        )
        with phase(profiler, "sim.step"):
            env.advance()

        # Step 9: metrics logging.
        self.state.finish_iteration(executed_action=action, action_source=source)
        self._publish(EventKind.ITERATION_FINISHED, iteration)
        return violation

    def _execute_role(self, scheduled: ScheduledRole, iteration: int) -> bool:
        resilience = self.resilience
        deadline_ms = (
            resilience.deadline_for(scheduled.name) if resilience is not None else None
        )
        context = RoleContext(
            state=self.state,
            metrics=self.metrics,
            iteration=iteration,
            time=self.environment.time,
            config=self.config.role_config,
            deadline_ms=deadline_ms,
        )
        if not scheduled.trigger.should_run(context):
            self._publish(EventKind.ROLE_SKIPPED, iteration, role=scheduled.name)
            return False

        role = scheduled.role
        is_generator = role.kind is RoleKind.GENERATOR
        breaker = (
            resilience.breaker_for(role.name)
            if resilience is not None and is_generator
            else None
        )

        # Degraded mode: while the breaker is open, the guarded Generator
        # is not consulted at all — the registered fallback runs instead.
        if breaker is not None and breaker.use_fallback(iteration):
            fallback = resilience.config.fallback
            self.metrics.increment("resilience.degraded.iterations")
            self.metrics.set_breaker_state(role.name, breaker.state.value)
            self._publish(
                EventKind.ROLE_SKIPPED,
                iteration,
                role=role.name,
                payload={"reason": "breaker_open", "fallback": fallback.name},
            )
            context.deadline_ms = resilience.deadline_for(fallback.name)
            violation, _ = self._run_role_body(
                fallback,
                context,
                iteration,
                deadline_ms=context.deadline_ms,
            )
            return violation

        retries = (
            resilience.config.max_retries
            if resilience is not None and is_generator
            else 0
        )
        violation, ok = self._run_role_body(
            role,
            context,
            iteration,
            deadline_ms=deadline_ms,
            retries=retries,
            absorb_errors=breaker is not None,
        )

        if resilience is not None and is_generator:
            if ok:
                self.metrics.record_role_success(role.name)
            else:
                self.metrics.record_role_failure(role.name)
            if breaker is not None:
                if ok:
                    if breaker.record_success():
                        self.metrics.increment("resilience.degraded.exited")
                        self._publish(
                            EventKind.DEGRADED_MODE_EXITED,
                            iteration,
                            role=role.name,
                            payload={
                                "degraded_iterations": breaker.degraded_iterations,
                            },
                        )
                elif breaker.record_failure(iteration):
                    self.metrics.increment("resilience.degraded.entered")
                    self._publish(
                        EventKind.DEGRADED_MODE_ENTERED,
                        iteration,
                        role=role.name,
                        payload={
                            "consecutive_failures": breaker.consecutive_failures,
                            "cooldown_iterations": breaker.cooldown,
                            "fallback": resilience.config.fallback.name,
                        },
                    )
                self.metrics.set_breaker_state(role.name, breaker.state.value)
        return violation

    def _run_role_body(
        self,
        role: Role,
        context: RoleContext,
        iteration: int,
        *,
        deadline_ms: Optional[float] = None,
        retries: int = 0,
        absorb_errors: bool = False,
    ) -> "tuple[bool, bool]":
        """Execute ``role`` once (with optional retries) and post-process.

        Returns ``(violation, ok)`` where ``violation`` feeds the loop's
        halt-on-violation decision and ``ok`` is the resilience health
        signal: True iff the role neither raised (after retries) nor
        overran its deadline budget.

        ``absorb_errors=True`` (breaker-guarded roles) turns a terminal
        exception into a recorded ``role_error`` violation regardless of
        ``continue_on_role_error`` — the breaker exists precisely to
        contain that role's failures, so they must not tear down the loop.
        """
        faults_before = len(self.metrics.faults)
        error: Optional[BaseException] = None
        result: Optional[RoleResult] = None
        profiler = self.profiler
        cpu_started = wall_clock.process_time() if profiler is not None else 0.0
        started = wall_clock.perf_counter()
        for attempt in range(retries + 1):
            try:
                result = role.execute(context)
                error = None
                break
            except Exception as exc:  # noqa: BLE001 - boundary: roles are user code
                error = exc
                if attempt >= retries:
                    break
                self.metrics.record_retry(role.name)
                self._publish(
                    EventKind.ROLE_RETRIED,
                    iteration,
                    role=role.name,
                    payload={"attempt": attempt + 1, "error": repr(exc)},
                )
                backoff = self.resilience.config.backoff_s(attempt)
                if backoff > 0:
                    wall_clock.sleep(backoff)
        elapsed = wall_clock.perf_counter() - started
        if profiler is not None:
            profiler.record(
                f"role.{role.name}", elapsed, wall_clock.process_time() - cpu_started
            )

        if error is not None:
            if not absorb_errors and not self.config.continue_on_role_error:
                raise RoleExecutionError(role.name, error) from error
            self.metrics.record_violation(
                "role_error", role.name, iteration, self.environment.time, detail=repr(error)
            )
            self._publish(
                EventKind.VIOLATION_DETECTED,
                iteration,
                role=role.name,
                payload={"category": "role_error", "detail": repr(error)},
            )
            result = RoleResult(verdict=Verdict.WARNING, narrative=f"role error: {error!r}")
        self.metrics.record_role_timing(role.name, elapsed)

        if not isinstance(result, RoleResult):
            raise RoleExecutionError(
                role.name, TypeError(f"execute() must return RoleResult, got {type(result).__name__}")
            )
        result.role_name = result.role_name or role.name
        self.state.record_output(result)
        for score_name, value in result.scores.items():
            self.metrics.record_score(f"{role.name}.{score_name}", self.environment.time, value)
        if len(self.metrics.faults) != faults_before:
            # Roles record injections straight into the metrics; mirror
            # them onto the bus so the evidence trail (and any trace) is
            # complete without a metrics cross-reference.
            for record in self.metrics.faults[faults_before:]:
                self._publish(
                    EventKind.FAULT_INJECTED,
                    iteration,
                    role=role.name,
                    payload={"fault": record.kind, "detail": record.detail},
                )
        if self.tracer is not None:
            self.tracer.record_role_span(
                role.name, iteration, elapsed, result.verdict.value
            )
        self._publish(
            EventKind.ROLE_EXECUTED,
            iteration,
            role=role.name,
            payload={"verdict": result.verdict.value, "elapsed_s": elapsed},
        )

        violation = error is not None  # a role error counts as a violation
        overrun = (
            deadline_ms is not None
            and error is None
            and elapsed * 1000.0 > deadline_ms
        )
        if overrun:
            elapsed_ms = elapsed * 1000.0
            self.metrics.record_deadline_overrun(role.name)
            self._publish(
                EventKind.DEADLINE_EXCEEDED,
                iteration,
                role=role.name,
                payload={"budget_ms": deadline_ms, "elapsed_ms": elapsed_ms},
            )
            detail = (
                f"deadline exceeded: {elapsed_ms:.2f} ms > "
                f"{deadline_ms:.2f} ms budget"
            )
            self.metrics.record_violation(
                "performance", role.name, iteration, self.environment.time, detail=detail
            )
            self._publish(
                EventKind.VIOLATION_DETECTED,
                iteration,
                role=role.name,
                payload={"category": "performance", "detail": detail},
            )
            violation = True

        if result.verdict.is_violation:
            category = _VIOLATION_CATEGORY.get(role.kind, "generic")
            self.metrics.record_violation(
                category, role.name, iteration, self.environment.time, detail=result.narrative
            )
            self._publish(
                EventKind.VIOLATION_DETECTED,
                iteration,
                role=role.name,
                payload={"category": category, "detail": result.narrative},
            )
            violation = True
        return violation, error is None and not overrun

    # ------------------------------------------------------------------
    # decision and adaptation (step 7)
    # ------------------------------------------------------------------
    def _decide_action(self) -> "tuple[Any, str]":
        """Pick the action to execute: recovery override beats generator.

        The paper's use case states the recovery action "overrides all
        other actions" (Fig. 3); a RecoveryPlanner that ran and proposed an
        action therefore wins.  Otherwise the first Generator that proposed
        a *non-None* action is approved — a Generator whose result carries
        no ``action`` does not mask a later Generator's proposal (it merely
        abstained this iteration).  The resilience fallback role, which
        executes outside the role graph, is considered after all scheduled
        Generators.
        """
        candidates: "List[tuple[str, RoleKind]]" = [
            (scheduled.name, scheduled.role.kind) for scheduled in self._order
        ]
        if self.resilience is not None and self.resilience.config.fallback is not None:
            candidates.append((self.resilience.config.fallback.name, RoleKind.GENERATOR))

        recovery_action = None
        recovery_role = ""
        generator_action = None
        generator_role = ""
        for name, kind in candidates:
            result = self.state.output_of(name)
            if result is None:
                continue
            if kind is RoleKind.RECOVERY_PLANNER:
                proposed = result.data.get(ACTION_KEY)
                if proposed is not None and recovery_action is None:
                    recovery_action = proposed
                    recovery_role = name
            elif kind is RoleKind.GENERATOR and generator_action is None:
                proposed = result.data.get(ACTION_KEY)
                if proposed is not None:
                    generator_action = proposed
                    generator_role = name

        if recovery_action is not None:
            self.metrics.record_recovery(
                self.state.iteration, self.environment.time, self._describe_action(recovery_action)
            )
            self._publish(
                EventKind.RECOVERY_ACTIVATED,
                self.state.iteration,
                role=recovery_role,
                payload={"action": self._describe_action(recovery_action)},
            )
            return recovery_action, recovery_role
        return generator_action, generator_role

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _describe_action(action: Any) -> str:
        if action is None:
            return "none"
        value = getattr(action, "value", None)
        return str(value if value is not None else action)

    def _publish(
        self,
        kind: EventKind,
        iteration: int,
        role: Optional[str] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.events.publish(
            Event(
                kind=kind,
                iteration=iteration,
                time=self.environment.time,
                role=role,
                payload=payload or {},
            )
        )
