"""Pure longitudinal-kinematics functions for the vehicle stepper.

Every function here is a pure ``(state) -> (state)`` map over plain
floats, with a documented floating-point operation order: the report
oracle is byte-exact, so the arithmetic order is part of the contract.
"""

from __future__ import annotations

from typing import Tuple


def integrate_longitudinal(
    s: float, speed: float, acceleration: float, dt: float
) -> Tuple[float, float]:
    """Semi-implicit Euler step of ``(s, speed)`` with a rest clamp.

    Braking never makes a vehicle reverse: when the commanded deceleration
    would cross zero speed inside the step, the vehicle advances by the
    exact stopping distance and comes to rest.

    Floating-point contract:

    * ``new_speed = speed + acceleration * dt``
    * moving:   ``s + (speed + new_speed) / 2.0 * dt``
    * stopping: ``s + speed * (speed / -acceleration) / 2.0``
    """
    new_speed = speed + acceleration * dt
    if new_speed < 0.0:
        if acceleration < 0.0:
            time_to_stop = speed / -acceleration
            s = s + speed * time_to_stop / 2.0
        return s, 0.0
    return s + (speed + new_speed) / 2.0 * dt, new_speed


def stopping_accel(speed: float, distance: float, max_decel: float) -> float:
    """Deceleration (<= 0) that stops within ``distance``, capped at ``max_decel``.

    The shared form of the traffic controller's stop-at-entry profile:
    ``v^2 / (2 d)`` clamped to the physical braking limit.  ``distance``
    must be positive (callers clamp); a non-positive speed needs no braking.
    """
    if speed <= 0.0:
        return 0.0
    required = speed * speed / (2.0 * distance)
    return -min(required, max_decel)
