"""Background traffic: IDM car-following plus right-of-way yielding.

Background vehicles stand in for CARLA's traffic manager.  Longitudinal
behaviour is the Intelligent Driver Model (IDM); intersection behaviour is
a priority scheme — yield to vehicles already inside the conflict zone and
to conflicting vehicles that arrive earlier, with a right-hand-rule
tiebreak — so scenes like "Conflicting Traffic" (§IV.C) produce realistic
gap-acceptance situations for the ego planner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .intersection import Approach, IntersectionMap, Movement
from .pedestrian import Pedestrian
from .vehicle import Vehicle


@dataclass(frozen=True)
class IDMParameters:
    """Intelligent Driver Model parameters (standard urban values)."""

    desired_speed: float = 8.0
    time_headway: float = 1.2
    minimum_gap: float = 2.0
    max_acceleration: float = 2.0
    comfortable_deceleration: float = 2.5
    exponent: float = 4.0


def idm_acceleration(
    speed: float,
    gap: Optional[float],
    closing_speed: float,
    params: IDMParameters,
) -> float:
    """IDM acceleration for a follower.

    Args:
        speed: follower speed (m/s).
        gap: bumper gap to the leader (m); ``None`` for free road.
        closing_speed: follower speed minus leader speed (m/s).
        params: model parameters.
    """
    free_term = 1.0 - (speed / params.desired_speed) ** params.exponent
    if gap is None:
        interaction = 0.0
    else:
        gap = max(gap, 0.01)
        desired_gap = params.minimum_gap + speed * params.time_headway
        desired_gap += (
            speed * closing_speed / (2.0 * math.sqrt(params.max_acceleration * params.comfortable_deceleration))
        )
        desired_gap = max(desired_gap, params.minimum_gap)
        interaction = (desired_gap / gap) ** 2
    accel = params.max_acceleration * (free_term - interaction)
    # Physical braking limit well above the comfortable value.
    return max(accel, -3.0 * params.comfortable_deceleration)


@dataclass(frozen=True)
class SpawnEvent:
    """A scheduled background-vehicle spawn."""

    time: float
    approach: Approach
    movement: Movement
    speed: float = 7.0
    #: Extra distance behind the default spawn point (for platoons).
    setback: float = 0.0
    #: Head start along the route (metres); lets scenario builders time a
    #: vehicle's intersection arrival against the ego's.
    advance: float = 0.0
    #: Tailgaters follow with a short headway and limited braking — the
    #: rear-end-risk profile used by the ghost-attack scenario.
    tailgater: bool = False


#: Right-hand rule: key yields to value (traffic from your right has priority).
_YIELDS_TO = {
    Approach.SOUTH: Approach.EAST,
    Approach.EAST: Approach.NORTH,
    Approach.NORTH: Approach.WEST,
    Approach.WEST: Approach.SOUTH,
}


@dataclass
class _ApproachState:
    """Per-vehicle bookkeeping for deadlock breaking."""

    stopped_since: Optional[float] = None


class TrafficController:
    """Drives all background vehicles each tick.

    The ego vehicle is treated as an ordinary conflicting vehicle for
    right-of-way purposes, but its acceleration is never touched — that is
    the planner's (and the assurance loop's) job.
    """

    #: Consider conflicts only within this time-to-entry window (s).
    CONFLICT_WINDOW_S = 6.0

    #: After this long stopped at the line with no one in the box, go (s).
    DEADLOCK_PATIENCE_S = 4.0

    #: Driver reaction latency in ticks (100 ms each): ordinary drivers and
    #: tailgaters.  The commanded acceleration takes effect this many ticks
    #: after the situation that produced it — without it, IDM reacts
    #: superhumanly and rear-end/short-TTC contacts become impossible.
    REACTION_TICKS = 2
    TAILGATER_REACTION_TICKS = 6

    def __init__(
        self,
        intersection: IntersectionMap,
        params: Optional[IDMParameters] = None,
    ) -> None:
        self._map = intersection
        self._params = params or IDMParameters()
        self._wait_state: Dict[int, _ApproachState] = {}
        self._reaction_buffers: Dict[int, List[float]] = {}

    def control(
        self,
        vehicles: Sequence[Vehicle],
        pedestrians: Sequence[Pedestrian],
        now: float,
    ) -> None:
        """Set accelerations for every non-ego vehicle."""
        for vehicle in vehicles:
            if vehicle.is_ego or vehicle.finished:
                continue
            accel = self._acceleration_for(vehicle, vehicles, pedestrians, now)
            vehicle.apply_acceleration(self._delayed(vehicle, accel))

    def _delayed(self, vehicle: Vehicle, accel: float) -> float:
        """Route the command through the vehicle's reaction-latency buffer."""
        delay = self.TAILGATER_REACTION_TICKS if vehicle.tailgater else self.REACTION_TICKS
        if delay <= 0:
            return accel
        buffer = self._reaction_buffers.setdefault(vehicle.vehicle_id, [])
        buffer.append(accel)
        if len(buffer) <= delay:
            return buffer[0]
        return buffer.pop(0)

    # ------------------------------------------------------------------
    # per-vehicle decision
    # ------------------------------------------------------------------
    def _acceleration_for(
        self,
        vehicle: Vehicle,
        vehicles: Sequence[Vehicle],
        pedestrians: Sequence[Pedestrian],
        now: float,
    ) -> float:
        params = self._params
        accel = self._car_following(vehicle, vehicles)

        if self._must_yield(vehicle, vehicles, pedestrians, now):
            stop_accel = self._stop_at_entry(vehicle)
            accel = min(accel, stop_accel)
            if vehicle.speed < 0.1:
                state = self._wait_state.setdefault(vehicle.vehicle_id, _ApproachState())
                if state.stopped_since is None:
                    state.stopped_since = now
        else:
            self._wait_state.pop(vehicle.vehicle_id, None)
        return accel

    #: Short-headway, brake-limited profile for tailgating vehicles.
    TAILGATER_PARAMS = IDMParameters(
        desired_speed=8.5,
        time_headway=0.55,
        minimum_gap=1.2,
        max_acceleration=2.2,
        comfortable_deceleration=1.8,
    )

    def _car_following(self, vehicle: Vehicle, vehicles: Sequence[Vehicle]) -> float:
        params = self.TAILGATER_PARAMS if vehicle.tailgater else self._params
        leader = self._leader_of(vehicle, vehicles)
        if leader is None:
            return idm_acceleration(vehicle.speed, None, 0.0, params)
        gap = leader.s - vehicle.s - (leader.length + vehicle.length) / 2.0
        return idm_acceleration(vehicle.speed, gap, vehicle.speed - leader.speed, params)

    def _leader_of(self, vehicle: Vehicle, vehicles: Sequence[Vehicle]) -> Optional[Vehicle]:
        leader: Optional[Vehicle] = None
        route, s = vehicle.route, vehicle.s
        for other in vehicles:
            # Route and arc length first: they reject almost every pair.
            if other.route is not route or other.s <= s:
                continue
            if other is vehicle or other.finished:
                continue
            if leader is None or other.s < leader.s:
                leader = other
        return leader

    # ------------------------------------------------------------------
    # right-of-way
    # ------------------------------------------------------------------
    def _must_yield(
        self,
        vehicle: Vehicle,
        vehicles: Sequence[Vehicle],
        pedestrians: Sequence[Pedestrian],
        now: float,
    ) -> bool:
        if vehicle.in_intersection or vehicle.s >= vehicle.route.entry_s:
            return False  # committed; stopping inside the box is worse
        time_to_entry = self._time_to_entry(vehicle)
        if time_to_entry > self.CONFLICT_WINDOW_S:
            return False

        for other in vehicles:
            if other is vehicle or other.finished:
                continue
            if not self._map.conflict(vehicle.route, other.route):
                continue
            if other.in_intersection:
                return True
            other_tte = self._time_to_entry(other)
            if other_tte > self.CONFLICT_WINDOW_S:
                continue
            if self._has_priority(other, vehicle, other_tte, time_to_entry):
                # Deadlock breaker: if we have waited long enough and the
                # box is clear, claim the intersection.
                state = self._wait_state.get(vehicle.vehicle_id)
                waited = (
                    state is not None
                    and state.stopped_since is not None
                    and now - state.stopped_since >= self.DEADLOCK_PATIENCE_S
                )
                if not waited:
                    return True

        for pedestrian in pedestrians:
            if pedestrian.finished or now < pedestrian.start_time:
                continue
            if self._pedestrian_conflicts(vehicle, pedestrian):
                return True
        return False

    def _time_to_entry(self, vehicle: Vehicle) -> float:
        distance = vehicle.distance_to_entry()
        if distance <= 0.0:
            return 0.0
        speed = max(vehicle.speed, 0.5)
        return distance / speed

    @staticmethod
    def _has_priority(other: Vehicle, vehicle: Vehicle, other_tte: float, own_tte: float) -> bool:
        """True when ``other`` outranks ``vehicle`` at the intersection."""
        # Clear arrival-order difference wins.
        if other_tte + 0.8 < own_tte:
            return True
        if own_tte + 0.8 < other_tte:
            return False
        # Straight beats left turn.
        if other.route.movement is Movement.STRAIGHT and vehicle.route.movement is Movement.LEFT:
            return True
        if vehicle.route.movement is Movement.STRAIGHT and other.route.movement is Movement.LEFT:
            return False
        # Right-hand rule.
        return _YIELDS_TO[vehicle.route.approach] == other.route.approach

    def _pedestrian_conflicts(self, vehicle: Vehicle, pedestrian: Pedestrian) -> bool:
        """Crude check: the pedestrian is near the vehicle's upcoming path."""
        lookahead = [vehicle.route.point_at(vehicle.s + d) for d in (2.0, 6.0, 10.0, 14.0)]
        return any(p.distance_to(pedestrian.position) < 3.0 for p in lookahead)

    def _stop_at_entry(self, vehicle: Vehicle) -> float:
        stop_line = vehicle.route.entry_s - 1.5
        distance = max(stop_line - vehicle.s, 0.01)
        if vehicle.speed <= 0.0:
            return 0.0
        required = vehicle.speed * vehicle.speed / (2.0 * distance)
        return -min(required, 3.0 * self._params.comfortable_deceleration)


@dataclass
class TrafficSpawner:
    """Spawns background vehicles from a scenario's schedule.

    ``id_allocator`` lets the owning world hand out world-local vehicle
    ids (run-to-run deterministic); without it, vehicles keep their
    globally-unique default ids.
    """

    intersection: IntersectionMap
    schedule: List[SpawnEvent] = field(default_factory=list)
    id_allocator: Optional[Callable[[], int]] = None
    _pending: List[SpawnEvent] = field(init=False)

    def __post_init__(self) -> None:
        self._pending = sorted(self.schedule, key=lambda event: event.time)

    def spawn_due(self, now: float, vehicles: List[Vehicle]) -> List[Vehicle]:
        """Create vehicles whose spawn time has arrived and whose slot is clear."""
        spawned: List[Vehicle] = []
        remaining: List[SpawnEvent] = []
        for event in self._pending:
            if event.time > now:
                remaining.append(event)
                continue
            route = self.intersection.route(event.approach, event.movement)
            start_s = max(0.0, event.advance - event.setback)
            kwargs = {}
            if self.id_allocator is not None:
                kwargs["vehicle_id"] = self.id_allocator()
            candidate = Vehicle(
                route=route, s=start_s, speed=event.speed,
                tailgater=event.tailgater, **kwargs
            )
            if self._slot_clear(candidate, vehicles):
                vehicles.append(candidate)
                spawned.append(candidate)
            else:
                remaining.append(event)  # retry next tick
        self._pending = remaining
        return spawned

    @property
    def exhausted(self) -> bool:
        """True once every scheduled spawn has been realized."""
        return not self._pending

    @staticmethod
    def _slot_clear(candidate: Vehicle, vehicles: Sequence[Vehicle]) -> bool:
        return all(
            other.route is not candidate.route
            or abs(other.s - candidate.s) > candidate.length * 2.0
            for other in vehicles
            if not other.finished
        )
