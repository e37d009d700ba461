"""Speed calibration inside queue hosts during untraced passes.

Queue hosts are fresh ``python -m repro.dist worker`` interpreters that
get the benchmark process's ``sys.path`` as ``PYTHONPATH``, so Python's
``site`` imports this module when they start.  If the benchmark has set
``PERFBENCH_SPEED_DIR`` for the pass, it installs a calibrating
:class:`layers.TickClock` that spills every run's speed (and ticks) to
that directory, where the benchmark process reads them back.  Otherwise
it does nothing.
"""

import os


def _install(spill_dir: str) -> None:
    from pathlib import Path

    from layers import TickClock

    clock = TickClock(calibrate=True, spill_every_run=True).install()
    clock.spill_dir = Path(spill_dir)


_spill_dir = os.environ.get("PERFBENCH_SPEED_DIR")  # layers.SPEED_DIR_ENV
if _spill_dir:
    _install(_spill_dir)
