"""The simulator step's cheap rejects change no result.

``detect_ego_collisions`` runs the bounding-circle test before it builds a
vehicle's box, and ``TrafficController._leader_of`` tests route identity
and arc length before the ``finished`` property.  The loops below are the
bodies they replaced, kept as the reference; placements include touching
and tied pairs.
"""

import math
import random

import pytest

from repro.geom import shapes_overlap
from repro.sim import Approach, IntersectionMap, Movement, Vehicle
from repro.sim.actions import Maneuver, ManeuverExecutor
from repro.sim.collision import CollisionEvent, detect_ego_collisions
from repro.sim.pedestrian import Pedestrian
from repro.sim.traffic import TrafficController
from repro.sim.vehicle import VEHICLE_LENGTH, VEHICLE_WIDTH

_MAP = IntersectionMap()
_ROUTES = _MAP.routes
#: Centre distance at which two default vehicles' bounding circles touch.
_CIRCLES_TOUCH = 2.0 * math.hypot(VEHICLE_LENGTH / 2.0, VEHICLE_WIDTH / 2.0)


def reference_detect_ego_collisions(ego, vehicles, pedestrians, now):
    events = []
    ego_box = ego.footprint()
    for vehicle in vehicles:
        if vehicle.is_ego or vehicle.finished:
            continue
        if shapes_overlap(ego_box, vehicle.footprint()):
            events.append(CollisionEvent(now, ego.vehicle_id, vehicle.vehicle_id, "vehicle", ego.speed))
    for pedestrian in pedestrians:
        if pedestrian.finished:
            continue
        if shapes_overlap(ego_box, pedestrian.footprint()):
            events.append(
                CollisionEvent(now, ego.vehicle_id, pedestrian.pedestrian_id, "pedestrian", ego.speed)
            )
    return events


def reference_leader_of(vehicle, vehicles):
    leader = None
    for other in vehicles:
        if other is vehicle or other.finished:
            continue
        if other.route is not vehicle.route or other.s <= vehicle.s:
            continue
        if leader is None or other.s < leader.s:
            leader = other
    return leader


def _random_scene(rng):
    ego_route = rng.choice(_ROUTES)
    ego = Vehicle(route=ego_route, s=rng.uniform(0.0, ego_route.length), speed=5.0, is_ego=True)
    vehicles = [ego]
    for _ in range(rng.randint(0, 12)):
        route = rng.choice(_ROUTES + [ego_route] * 4)
        choice = rng.random()
        if choice < 0.3:
            # Bumper to bumper with the ego, or exactly on its arc length.
            s = ego.s + rng.choice([VEHICLE_LENGTH, -VEHICLE_LENGTH, 0.0, _CIRCLES_TOUCH])
            route = ego_route
        elif choice < 0.4:
            s = route.length + rng.choice([0.0, 0.5])  # finished
        elif choice < 0.5 and len(vehicles) > 1:
            s = rng.choice(vehicles).s  # tied arc lengths
        else:
            s = rng.uniform(0.0, route.length)
        vehicles.append(
            Vehicle(
                route=route,
                s=s,
                speed=rng.uniform(0.0, 9.0),
                length=rng.choice([VEHICLE_LENGTH, VEHICLE_LENGTH, 6.0]),
                width=VEHICLE_WIDTH,
            )
        )
    rng.shuffle(vehicles)
    crosswalk = _MAP.south_crosswalk
    pedestrians = [
        Pedestrian(crosswalk=crosswalk, s=rng.uniform(0.0, crosswalk.length + 1.0))
        for _ in range(rng.randint(0, 2))
    ]
    return ego, vehicles, pedestrians


@pytest.mark.parametrize("seed", range(6))
def test_collisions_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(250):
        ego, vehicles, pedestrians = _random_scene(rng)
        assert detect_ego_collisions(ego, vehicles, pedestrians, 1.5) == (
            reference_detect_ego_collisions(ego, vehicles, pedestrians, 1.5)
        )


def test_touching_vehicle_collides_like_the_reference():
    route = _MAP.route(Approach.SOUTH, Movement.STRAIGHT)
    ego = Vehicle(route=route, s=20.0, is_ego=True)
    for gap in (-0.5, 0.0, 1e-9, 0.5):
        other = Vehicle(route=route, s=20.0 + VEHICLE_LENGTH + gap)
        events = detect_ego_collisions(ego, [ego, other], [], 0.0)
        assert events == reference_detect_ego_collisions(ego, [ego, other], [], 0.0)
        assert bool(events) == (gap <= 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_leader_matches_reference(seed):
    rng = random.Random(seed)
    controller = TrafficController(_MAP)
    for _ in range(250):
        _, vehicles, _ = _random_scene(rng)
        for vehicle in vehicles:
            assert controller._leader_of(vehicle, vehicles) is reference_leader_of(vehicle, vehicles)


@pytest.mark.parametrize("bogus", [None, "proceed", 0, Maneuver])
def test_acceleration_for_rejects_non_maneuvers(bogus):
    route = _MAP.route(Approach.SOUTH, Movement.STRAIGHT)
    with pytest.raises(KeyError):
        ManeuverExecutor().acceleration_for(bogus, 5.0, 10.0, route)
