"""The package is stdlib-only: ``pyproject.toml`` declares no dependencies.

Every ``repro.*`` module must import in an interpreter where numpy cannot
be imported at all.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_IMPORT_ALL = r"""
import importlib
import pkgutil
import sys

sys.modules["numpy"] = None  # any `import numpy` now raises ImportError

import repro

failures = []
for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
    try:
        importlib.import_module(info.name)
    except Exception as exc:
        failures.append(f"{info.name}: {type(exc).__name__}: {exc}")
print("\n".join(failures))
sys.exit(1 if failures else 0)
"""


def test_every_module_imports_without_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL],
        cwd=str(SRC),
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
