"""Ground-truth collision detection.

CARLA's collision sensor is the paper's ground truth for Table II's
"Collision Rate" column; this module plays that part.  Collisions are
detected on true footprints (never on perceived/faulted data), so injected
ghost obstacles can never "collide" — exactly as in the paper, where ghosts
cause unsafe *reactions*, not physical contact.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..geom import shapes_overlap
from .pedestrian import Pedestrian
from .vehicle import Vehicle

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CollisionEvent:
    """A ground-truth contact involving the ego vehicle."""

    time: float
    ego_id: int
    other_id: int
    other_kind: str  # "vehicle" or "pedestrian"
    ego_speed: float

    def __str__(self) -> str:
        return (
            f"collision at t={self.time:.1f}s with {self.other_kind} "
            f"#{self.other_id} (ego speed {self.ego_speed:.1f} m/s)"
        )


def detect_ego_collisions(
    ego: Vehicle,
    vehicles: Sequence[Vehicle],
    pedestrians: Sequence[Pedestrian],
    now: float,
) -> List[CollisionEvent]:
    """All contacts between the ego footprint and other entities this tick."""
    events: List[CollisionEvent] = []
    ego_box = ego.footprint()
    ego_x, ego_y = ego_box.center.x, ego_box.center.y
    ego_r = ego_box.bounding_radius()
    for vehicle in vehicles:
        if vehicle.is_ego or vehicle.finished:
            continue
        # The bounding-circle rejection obb_overlaps_obb opens with, run
        # before the vehicle's box is built: most vehicles are far away.
        position = vehicle.position
        if math.hypot(ego_x - position.x, ego_y - position.y) > ego_r + math.hypot(
            vehicle.length / 2.0, vehicle.width / 2.0
        ):
            continue
        if shapes_overlap(ego_box, vehicle.footprint()):
            events.append(
                CollisionEvent(
                    time=now,
                    ego_id=ego.vehicle_id,
                    other_id=vehicle.vehicle_id,
                    other_kind="vehicle",
                    ego_speed=ego.speed,
                )
            )
    for pedestrian in pedestrians:
        if pedestrian.finished:
            continue
        if shapes_overlap(ego_box, pedestrian.footprint()):
            events.append(
                CollisionEvent(
                    time=now,
                    ego_id=ego.vehicle_id,
                    other_id=pedestrian.pedestrian_id,
                    other_kind="pedestrian",
                    ego_speed=ego.speed,
                )
            )
    if events:
        for event in events:
            logger.debug("detected %s", event)
    return events


def first_collision(events: Sequence[CollisionEvent]) -> Optional[CollisionEvent]:
    """Earliest event, or ``None`` when the run was collision-free."""
    return min(events, key=lambda e: e.time) if events else None
