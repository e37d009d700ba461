"""FaultInjector role and the fault-model library.

"Introduces faults or disturbances into the simulation based on directives
(e.g., from the SecurityAssessor or predefined test plans). Can simulate
sensor noise/failure, communication delays/loss, GPS spoofing, or
adversarial perturbations to AI inputs." (§III.B.2)

Faults act on the *perception pipeline*: the environment interface passes
every snapshot through a :class:`FaultPipeline` before it reaches the
StateManager, so every downstream role (Generator, monitors, recovery)
sees the corrupted world — exactly the paper's attack surface.  The
:class:`FaultInjectorRole` arms and disarms pipeline faults according to
the SecurityAssessor's directives and reports each injection to the
metrics.
"""

from __future__ import annotations

import abc
import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from ..core.role import Role, RoleContext, RoleKind, RoleResult, Verdict
from ..geom import Vec2
from ..sim.intersection import Route
from ..sim.perception import ObjectKind, PerceivedObject, PerceptionSnapshot
from ..sim.scenario import AttackKind

@dataclass(frozen=True)
class InjectionRecord:
    """Evidence of one fault application."""

    kind: str
    time: float
    detail: str


class FaultModel(abc.ABC):
    """A reusable perception corruption."""

    kind: str = "fault"

    @abc.abstractmethod
    def apply(
        self,
        snapshot: PerceptionSnapshot,
        route: Route,
        ego_s: float,
        rng: random.Random,
    ) -> "tuple[PerceptionSnapshot, Optional[str]]":
        """Corrupt ``snapshot`` (in place or by copy); return it plus an
        optional detail string when something was actually injected."""

    def reset(self) -> None:
        """Clear per-run internal state (target locks, buffers)."""


class GhostObstacleFault(FaultModel):
    """Insert a non-existent stationary vehicle ahead on the ego lane.

    The paper's Ghost Obstacle Injection "adds a non-existent dynamic
    obstacle into the perceived state provided to the Generator" near the
    intersection entry (§IV.C).

    Each fault numbers its ghosts -1, -2, ... and restarts the count in
    :meth:`reset`, so a ghost's id, which the LiDAR text and the
    injection evidence show, does not depend on what ran before it in
    the process.
    """

    kind = "ghost_obstacle"

    def __init__(self, distance_ahead: float = 12.0) -> None:
        if distance_ahead <= 0.0:
            raise ValueError(f"distance_ahead must be positive, got {distance_ahead}")
        self.distance_ahead = distance_ahead
        self._ghost: Optional[PerceivedObject] = None
        self._ids = itertools.count(-1, -1)

    def reset(self) -> None:
        self._ghost = None
        self._ids = itertools.count(-1, -1)

    def apply(self, snapshot, route, ego_s, rng):
        if self._ghost is None:
            # Materialize once, fixed in space, ahead of the ego on its lane
            # ("near the intersection entry", §IV.C).
            ghost_s = ego_s + self.distance_ahead
            self._ghost = PerceivedObject(
                object_id=next(self._ids),
                kind=ObjectKind.VEHICLE,
                position=route.point_at(ghost_s),
                velocity=Vec2.zero(),
                heading=route.heading_at(ghost_s),
                length=4.5,
                width=2.0,
                source_id=None,
            )
        out = snapshot.copy()
        out.objects.append(self._ghost)
        return out, (
            f"ghost vehicle #{self._ghost.object_id} at "
            f"({self._ghost.position.x:.1f}, {self._ghost.position.y:.1f})"
        )


class TrajectorySpoofFault(FaultModel):
    """Make a real detected vehicle's trajectory appear aggressive.

    "Modifies the predicted velocity or path of a real detected vehicle to
    appear more hazardous than it is" (§IV.C).  Locks onto one target for
    consistency across ticks (a flickering spoof would be trivially
    detectable).
    """

    kind = "trajectory_spoof"

    def __init__(
        self,
        speed_factor: float = 2.2,
        min_speed: float = 10.5,
        path_bend: float = 0.3,
        position_lead_s: float = 0.4,
    ) -> None:
        if speed_factor <= 1.0:
            raise ValueError(f"speed_factor must exceed 1, got {speed_factor}")
        if not 0.0 <= path_bend <= 1.0:
            raise ValueError(f"path_bend must be in [0,1], got {path_bend}")
        self.speed_factor = speed_factor
        self.min_speed = min_speed
        self.path_bend = path_bend
        #: The victim's tracker integrates the false velocity, so the
        #: spoofed track *leads* the true position — which later makes the
        #: target appear to have cleared the conflict before the real
        #: vehicle has (the under-forecast that causes late conflicts).
        self.position_lead_s = position_lead_s
        self._target_id: Optional[int] = None

    def reset(self) -> None:
        self._target_id = None

    def _pick_target(self, snapshot: PerceptionSnapshot) -> Optional[PerceivedObject]:
        candidates = [
            obj
            for obj in snapshot.objects
            if obj.kind is ObjectKind.VEHICLE and not obj.is_ghost
        ]
        if not candidates:
            return None

        # The most alarming spoof target is the vehicle already closing on
        # the ego the fastest (typically the oncoming car, as in §IV.C).
        def closing_speed(obj: PerceivedObject) -> float:
            to_ego = snapshot.ego_position - obj.position
            rng_m = to_ego.norm()
            if rng_m < 1e-6:
                return 0.0
            return obj.velocity.dot(to_ego / rng_m)

        return max(candidates, key=closing_speed)

    def apply(self, snapshot, route, ego_s, rng):
        target = None
        if self._target_id is not None:
            target = next(
                (o for o in snapshot.objects if o.object_id == self._target_id), None
            )
        if target is None:
            target = self._pick_target(snapshot)
            if target is None:
                return snapshot, None
            self._target_id = target.object_id

        # Inflate the speed and bend the heading toward the ego — "modifies
        # the predicted velocity or path ... to appear more hazardous"
        # (§IV.C).  Both levers matter: speed alone can make a crossing
        # vehicle *less* conflicting (it clears earlier).
        speed = target.speed
        to_ego = snapshot.ego_position - target.position
        toward_ego = (
            to_ego.normalized() if to_ego.norm() > 1e-6 else Vec2(1.0, 0.0)
        )
        if speed < 0.5:
            direction = toward_ego
        else:
            blended = (
                target.velocity.normalized() * (1.0 - self.path_bend)
                + toward_ego * self.path_bend
            )
            direction = blended.normalized() if blended.norm() > 1e-6 else toward_ego
        spoofed_speed = max(speed * self.speed_factor, self.min_speed)
        spoofed_velocity = direction * spoofed_speed

        spoofed_position = target.position + spoofed_velocity * self.position_lead_s
        out = snapshot.copy()
        out.objects = [
            obj.with_velocity(spoofed_velocity).with_position(spoofed_position)
            if obj.object_id == target.object_id
            else obj
            for obj in out.objects
        ]
        return out, (
            f"vehicle #{target.object_id} velocity spoofed "
            f"{speed:.1f} -> {spoofed_velocity.norm():.1f} m/s"
        )


class SensorNoiseFault(FaultModel):
    """Gaussian jitter on perceived positions and velocities."""

    kind = "sensor_noise"

    def __init__(self, position_sigma: float = 0.5, velocity_sigma: float = 0.3) -> None:
        self.position_sigma = position_sigma
        self.velocity_sigma = velocity_sigma

    def apply(self, snapshot, route, ego_s, rng):
        out = snapshot.copy()
        noisy: List[PerceivedObject] = []
        for obj in out.objects:
            jittered = obj.with_position(
                obj.position + Vec2(rng.gauss(0.0, self.position_sigma), rng.gauss(0.0, self.position_sigma))
            ).with_velocity(
                obj.velocity + Vec2(rng.gauss(0.0, self.velocity_sigma), rng.gauss(0.0, self.velocity_sigma))
            )
            noisy.append(jittered)
        out.objects = noisy
        detail = f"noise applied to {len(noisy)} object(s)" if noisy else None
        return out, detail


class DropoutFault(FaultModel):
    """Randomly drop detections (sensor failure / packet loss)."""

    kind = "dropout"

    def __init__(self, drop_probability: float = 0.3) -> None:
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError(f"drop probability must be in [0,1], got {drop_probability}")
        self.drop_probability = drop_probability

    def apply(self, snapshot, route, ego_s, rng):
        out = snapshot.copy()
        kept = [obj for obj in out.objects if rng.random() >= self.drop_probability]
        dropped = len(out.objects) - len(kept)
        out.objects = kept
        return out, (f"dropped {dropped} detection(s)" if dropped else None)


class LatencyFault(FaultModel):
    """Serve stale snapshots (communication delay)."""

    kind = "latency"

    def __init__(self, delay_ticks: int = 3) -> None:
        if delay_ticks <= 0:
            raise ValueError(f"delay must be positive, got {delay_ticks}")
        self.delay_ticks = delay_ticks
        self._buffer: Deque[PerceptionSnapshot] = deque(maxlen=delay_ticks + 1)

    def reset(self) -> None:
        self._buffer.clear()

    def apply(self, snapshot, route, ego_s, rng):
        self._buffer.append(snapshot.copy())
        stale = self._buffer[0]
        if stale is snapshot or len(self._buffer) <= 1:
            return snapshot, None
        # Ego odometry stays current (it is measured on-board); only the
        # object list is delayed.
        out = snapshot.copy()
        out.objects = list(stale.objects)
        return out, f"object list delayed by {len(self._buffer) - 1} tick(s)"


class GPSBiasFault(FaultModel):
    """Constant offset on the ego's perceived position (GPS spoofing)."""

    kind = "gps_bias"

    def __init__(self, offset: Vec2 = Vec2(2.0, 0.0)) -> None:
        self.offset = offset

    def apply(self, snapshot, route, ego_s, rng):
        out = snapshot.copy()
        out.ego_position = out.ego_position + self.offset
        return out, f"ego position biased by ({self.offset.x:+.1f}, {self.offset.y:+.1f}) m"


class FaultPipeline:
    """Ordered set of active faults applied to every perception snapshot.

    Owned by the environment interface; armed/disarmed by the
    :class:`FaultInjectorRole`.  Keeps a record of each application so the
    injector can report evidence.
    """

    def __init__(self, seed: int = 0) -> None:
        self._faults: Dict[str, FaultModel] = {}
        self._rng = random.Random(seed)
        self._records: List[InjectionRecord] = []

    def arm(self, fault: FaultModel) -> None:
        """Activate a fault (replaces any active fault of the same kind)."""
        self._faults[fault.kind] = fault

    def disarm(self, kind: str) -> None:
        """Deactivate the fault of the given kind (no-op when absent)."""
        self._faults.pop(kind, None)

    def disarm_all(self) -> None:
        self._faults.clear()

    @property
    def active_kinds(self) -> List[str]:
        return sorted(self._faults)

    def reset(self, seed: Optional[int] = None) -> None:
        """Fresh run: clear faults, records and re-seed."""
        for fault in self._faults.values():
            fault.reset()
        self._faults.clear()
        self._records.clear()
        if seed is not None:
            self._rng = random.Random(seed)

    def apply(
        self, snapshot: PerceptionSnapshot, route: Route, ego_s: float
    ) -> PerceptionSnapshot:
        """Pass a snapshot through all active faults, logging injections."""
        for fault in self._faults.values():
            snapshot, detail = fault.apply(snapshot, route, ego_s, self._rng)
            if detail:
                self._records.append(InjectionRecord(fault.kind, snapshot.time, detail))
        return snapshot

    def drain_records(self) -> List[InjectionRecord]:
        """Return and clear the accumulated injection evidence."""
        records, self._records = self._records, []
        return records


#: Directive keys produced by the SecurityAssessor and consumed here.
DIRECTIVE_KEY = "directive"
INTENSITY_KEY = "intensity"


class FaultInjectorRole(Role):
    """Arms/disarms pipeline faults according to assessor directives."""

    kind = RoleKind.FAULT_INJECTOR

    def __init__(
        self,
        pipeline: FaultPipeline,
        assessor_name: str = "SecurityAssessor",
        name: str = "FaultInjector",
    ) -> None:
        super().__init__(name)
        self.pipeline = pipeline
        self.assessor_name = assessor_name

    def execute(self, context: RoleContext) -> RoleResult:
        directive_kind = AttackKind.NONE
        intensity = 1.0
        assessor = context.state.output_of(self.assessor_name)
        if assessor is not None:
            directive_kind = assessor.data.get(DIRECTIVE_KEY, AttackKind.NONE)
            intensity = float(assessor.data.get(INTENSITY_KEY, 1.0))

        self._apply_directive(directive_kind, intensity)

        # Report this tick's injections (performed by the pipeline at
        # observation time) as evidence.
        records = self.pipeline.drain_records()
        for record in records:
            context.metrics.record_fault(
                record.kind, context.iteration, record.time, record.detail
            )
        return RoleResult(
            verdict=Verdict.INFO,
            data={
                "active_faults": self.pipeline.active_kinds,
                "injections": len(records),
                "directive": directive_kind,
            },
            narrative="; ".join(r.detail for r in records),
        )

    def _apply_directive(self, directive: AttackKind, intensity: float) -> None:
        if directive is AttackKind.GHOST_OBSTACLE:
            if GhostObstacleFault.kind not in self.pipeline.active_kinds:
                # Higher intensity = ghost closer to the ego.
                distance = 18.0 - 8.0 * max(0.0, min(1.0, intensity))
                self.pipeline.arm(GhostObstacleFault(distance_ahead=distance))
            self.pipeline.disarm(TrajectorySpoofFault.kind)
        elif directive is AttackKind.TRAJECTORY_SPOOF:
            if TrajectorySpoofFault.kind not in self.pipeline.active_kinds:
                level = max(0.0, min(1.0, intensity))
                self.pipeline.arm(
                    TrajectorySpoofFault(
                        speed_factor=1.6 + 1.2 * level,
                        path_bend=0.45 * level,
                    )
                )
            self.pipeline.disarm(GhostObstacleFault.kind)
        else:
            self.pipeline.disarm(GhostObstacleFault.kind)
            self.pipeline.disarm(TrajectorySpoofFault.kind)
