"""The tactical maneuver vocabulary and its longitudinal realization.

The LLM planner of the paper's use case emits discrete maneuver decisions
("wait", "accelerate", "yield", "proceed cautiously", ...; §IV.A) which an
Action Execution module turns into vehicle control.  :class:`Maneuver` is
that vocabulary and :class:`ManeuverExecutor` the execution module: it maps
each maneuver to a target-speed / stop-point policy and computes the
acceleration command for the current vehicle state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .intersection import Route


class Maneuver(enum.Enum):
    """Discrete tactical decisions available to planners."""

    PROCEED = "proceed"
    PROCEED_CAUTIOUSLY = "proceed_cautiously"
    ACCELERATE = "accelerate"
    YIELD = "yield"
    WAIT = "wait"
    EMERGENCY_BRAKE = "emergency_brake"

    @property
    def is_stopping(self) -> bool:
        """True for maneuvers whose goal state is standstill."""
        return self in (Maneuver.WAIT, Maneuver.EMERGENCY_BRAKE)


@dataclass(frozen=True)
class LongitudinalLimits:
    """Comfort and capability envelope of the ego vehicle."""

    cruise_speed: float = 8.0
    cautious_speed: float = 4.0
    boost_speed: float = 10.5
    yield_speed: float = 2.0
    max_acceleration: float = 2.5
    comfortable_deceleration: float = 3.0
    max_deceleration: float = 8.0


class ManeuverExecutor:
    """Convert a :class:`Maneuver` into an acceleration command.

    The executor is deliberately simple — proportional speed tracking plus
    stop-point braking — because the paper's assurance loop operates at the
    tactical layer; low-level control fidelity is not what the framework
    evaluates.
    """

    #: Proportional gain for speed tracking (1/s).
    SPEED_GAIN = 1.2

    def __init__(self, limits: Optional[LongitudinalLimits] = None) -> None:
        self.limits = limits or LongitudinalLimits()

    def acceleration_for(
        self,
        maneuver: Maneuver,
        speed: float,
        s: float,
        route: Route,
        stop_s: Optional[float] = None,
    ) -> float:
        """Acceleration (m/s^2) realizing ``maneuver`` at the given state.

        Args:
            maneuver: the tactical decision to execute.
            speed: current longitudinal speed (m/s).
            s: current arc length along ``route``.
            route: the path being followed.
            stop_s: optional arc length to stop at for stopping maneuvers
                (e.g. before a blocking obstacle or a pedestrian crossing);
                the effective stop point is the nearer of this and the
                intersection stop line.
        """
        limits = self.limits
        if maneuver is Maneuver.EMERGENCY_BRAKE:
            return -limits.max_deceleration if speed > 0.0 else 0.0

        if maneuver is Maneuver.WAIT:
            line_s = self._stop_point(s, route)
            target = self._nearest_stop(line_s, stop_s, s)
            return self._brake_to_stop(speed, s, target)

        if maneuver is Maneuver.YIELD:
            line_s = self._stop_point(s, route)
            target = self._nearest_stop(line_s, stop_s, s)
            creep = self._track_speed(speed, limits.yield_speed)
            if target is not None:
                # Creep toward the stop point; engage braking only once the
                # required deceleration is material, otherwise a distant
                # stop line would impose a phantom drag.
                brake = self._brake_to_stop(speed, s, target)
                if brake <= -0.5:
                    return brake
            return creep

        if maneuver is Maneuver.PROCEED:
            target = limits.cruise_speed
        elif maneuver is Maneuver.PROCEED_CAUTIOUSLY:
            target = limits.cautious_speed
        elif maneuver is Maneuver.ACCELERATE:
            target = limits.boost_speed
        else:
            raise KeyError(maneuver)
        return self._track_speed(speed, target)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _nearest_stop(
        line_s: Optional[float], obstacle_s: Optional[float], s: float
    ) -> Optional[float]:
        """Nearer of the stop line and an obstacle stop point still ahead."""
        candidates = [c for c in (line_s, obstacle_s) if c is not None and c > s]
        return min(candidates) if candidates else None

    def _stop_point(self, s: float, route: Route) -> Optional[float]:
        """Arc length to stop at: the intersection entry when still ahead.

        Once inside (or past) the conflict zone there is no meaningful stop
        line anymore; waiting then means stopping in place, which
        :meth:`_brake_to_stop` handles by braking immediately.
        """
        entry = route.entry_s
        stop_line = entry - 1.0  # stop one metre before the zone
        if s < stop_line:
            return stop_line
        return None

    def _brake_to_stop(self, speed: float, s: float, stop_s: Optional[float]) -> float:
        """Deceleration profile stopping at ``stop_s`` (or right here if None)."""
        limits = self.limits
        if speed <= 0.0:
            return 0.0
        if stop_s is None:
            return -limits.comfortable_deceleration
        distance = max(stop_s - s, 0.01)
        # v^2 = 2 a d  =>  required deceleration to stop exactly at the line.
        required = speed * speed / (2.0 * distance)
        return -min(max(required, 0.0), limits.max_deceleration)

    def _track_speed(self, speed: float, target: float) -> float:
        limits = self.limits
        accel = self.SPEED_GAIN * (target - speed)
        return max(-limits.comfortable_deceleration, min(limits.max_acceleration, accel))
