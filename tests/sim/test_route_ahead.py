"""Route sampling: ``xy_at`` and the memoized route-ahead samples.

The planner's obstacle and pedestrian scans and the interface's
blocking-stop scan read :meth:`Route.ahead_points` instead of sampling the
route themselves, so every sample must be the very float ``point_at`` gives.
``xy_at`` is the float core behind both; it must equal the ``Vec2.lerp``
form it replaced bit for bit.
"""

import bisect
import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Approach, Movement, Vehicle
from repro.sim.intersection import ROUTE_AHEAD_SAMPLES, IntersectionMap, Route

_MAP = IntersectionMap()
_ROUTES = _MAP.routes


def direct_samples(route, s):
    return tuple(
        (point.x, point.y)
        for point in (route.point_at(s + float(k)) for k in range(1, ROUTE_AHEAD_SAMPLES + 1))
    )


class TestAheadPoints:
    @given(st.sampled_from(_ROUTES), st.floats(min_value=-5.0, max_value=140.0))
    def test_equals_point_at_exactly(self, route, s):
        assert route.ahead_points(s) == direct_samples(route, s)

    def test_clamps_past_the_route_end(self):
        route = _MAP.route(Approach.NORTH, Movement.RIGHT)
        s = route.length - 7.5
        samples = route.ahead_points(s)
        assert samples == direct_samples(route, s)
        end = route.waypoints[-1]
        # Samples 8..30 m ahead all sit on the clamped route end.
        assert samples[7:] == ((end.x, end.y),) * (ROUTE_AHEAD_SAMPLES - 7)
        assert samples[6] != (end.x, end.y)

    def test_route_shared_by_two_vehicles(self):
        route = _MAP.route(Approach.SOUTH, Movement.STRAIGHT)
        lead = Vehicle(route=route, s=42.25)
        follower = Vehicle(route=route, s=17.0)
        for _ in range(3):
            for vehicle in (lead, follower):
                assert route.ahead_points(vehicle.s) == direct_samples(route, vehicle.s)
            lead.s += 0.35
            follower.s += 0.5

    def test_one_sampling_pass_per_arc_length(self, monkeypatch):
        route = copy.deepcopy(_MAP.route(Approach.EAST, Movement.LEFT))
        calls = []
        original = Route.xy_at
        monkeypatch.setattr(Route, "xy_at", lambda self, s: calls.append(s) or original(self, s))
        first = route.ahead_points(12.5)
        assert route.ahead_points(12.5) is first
        assert len(calls) == ROUTE_AHEAD_SAMPLES
        route.ahead_points(13.0)
        assert len(calls) == 2 * ROUTE_AHEAD_SAMPLES

    def test_memo_is_not_part_of_route_equality(self):
        route = _MAP.route(Approach.WEST, Movement.STRAIGHT)
        twin = copy.deepcopy(route)
        route.ahead_points(3.0)
        twin.ahead_points(9.0)
        assert route == twin


def reference_point_at(route, s):
    """``Route.point_at`` before the float ``xy_at`` core: ``Vec2.lerp``."""
    s = max(0.0, min(s, route.length))
    index = bisect.bisect_right(route._cumulative, s) - 1
    if index >= len(route.waypoints) - 1:
        return route.waypoints[-1]
    seg_start = route._cumulative[index]
    seg_len = route._cumulative[index + 1] - seg_start
    t = 0.0 if seg_len == 0.0 else (s - seg_start) / seg_len
    return route.waypoints[index].lerp(route.waypoints[index + 1], t)


def assert_same_point(route, s):
    expected = reference_point_at(route, s)
    x, y = route.xy_at(s)
    assert (x.hex(), y.hex()) == (expected.x.hex(), expected.y.hex())
    point = route.point_at(s)
    assert (point.x.hex(), point.y.hex()) == (expected.x.hex(), expected.y.hex())


class TestXyAt:
    """``xy_at`` (and ``point_at`` through it) is the old lerp bit for bit."""

    @given(st.sampled_from(_ROUTES), st.floats(min_value=-20.0, max_value=160.0))
    def test_random_arc_lengths(self, route, s):
        assert_same_point(route, s)

    @pytest.mark.parametrize("route", _ROUTES, ids=lambda r: f"{r.approach.value}-{r.movement.value}")
    def test_every_waypoint_and_both_clamps(self, route):
        for s in route._cumulative:
            assert_same_point(route, s)
        for s in (-1e9, -3.5, -0.0, 0.0, route.length, route.length + 0.25, 1e9):
            assert_same_point(route, s)
        assert route.xy_at(route.length + 5.0) == route.waypoints[-1].as_tuple()
        assert route.xy_at(-5.0) == route.waypoints[0].as_tuple()
