"""Shared fixtures for the benchmark's own tests (tiny input sizes).

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


def _load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def runner():
    return _load_runner()


@pytest.fixture(scope="session")
def ws():
    from pbench.inputs import Workspace

    return Workspace(ROOT).prepare()


@pytest.fixture
def run_tiny(runner, ws):
    """``run_tiny(workload, trace=False)`` -> the run record, tiny sizes
    (``TINY``; the command line always runs ``FULL``)."""
    from pbench.inputs import TINY

    def go(workload: str, trace: bool = False, seconds: float = 1.5,
           seed: int = 5) -> dict:
        return runner.run(ws, workload, seed, seconds, trace, TINY)

    return go
