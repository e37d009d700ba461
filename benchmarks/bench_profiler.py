"""Profiler-overhead microbenchmarks.

The phase profiler's contract is *zero cost when disarmed*: every hook
site in the orchestrator and engine enters one shared null context
(``repro.obs.profile.phase``) and nothing else.  These benches pin that contract — a disarmed run must not
measurably differ from a never-instrumented one, and an armed run's
overhead must stay a small fraction of the loop it measures.
"""

from __future__ import annotations

from repro.experiments import build_controller
from repro.obs import PhaseProfiler
from repro.sim import ScenarioType, build_scenario


def _run_controller(profiler):
    controller = build_controller(build_scenario(ScenarioType.NOMINAL, 0))
    controller.config.max_iterations = 200
    controller.profiler = profiler
    return controller.run().iterations


def test_disarmed_profiler_overhead(benchmark):
    """The default (profiler=None) path: the hooks must be free."""
    iterations = benchmark(lambda: _run_controller(None))
    assert iterations > 50
    # Same generous real-time bound the plain iteration bench enforces:
    # if the disarmed hooks cost anything macroscopic, this trips.
    assert benchmark.stats.stats.mean / iterations < 0.1


def test_armed_profiler_overhead(benchmark):
    """Armed profiling: phase timers on every site, still loop-cheap."""

    def run():
        profiler = PhaseProfiler()
        iterations = _run_controller(profiler)
        return iterations, profiler

    iterations, profiler = benchmark(run)
    assert iterations > 50
    assert profiler.stat("orchestrator.decide").count == iterations
    assert benchmark.stats.stats.mean / iterations < 0.1


def test_phase_timer_cost(benchmark):
    """Raw cost of one armed phase measurement (enter + 2 clocks + exit)."""
    profiler = PhaseProfiler()

    def measure():
        for _ in range(1000):
            with profiler.phase("bench.noop"):
                pass
        return profiler.stat("bench.noop").count

    count = benchmark(measure)
    assert count >= 1000
    per_phase = benchmark.stats.stats.mean / 1000
    assert per_phase < 50e-6  # tens of microseconds at most per phase
