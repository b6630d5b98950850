"""BENCHMARK.json, the metric catalogue and the runner agree."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from pbench import catalog

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_keys_and_limits(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= len(spec["command"]) <= 32
    for arg in spec["command"]:
        assert not arg.startswith("/") and ".." not in arg
    names = [w["name"] for w in spec["workloads"]] \
        + [m["name"] for m in spec["end_to_end"]] \
        + [m["name"] for m in spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(_NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert _UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
        assert m["better"] in ("lower", "higher")
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert _UNIT.match(m["unit"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec)) <= 64 * 1024


def test_catalogue_matches_spec(spec):
    assert tuple(w["name"] for w in spec["workloads"]) == catalog.WORKLOADS
    assert [m["name"] for m in spec["per_layer"]] == list(catalog.MOVES)


def test_refuses_without_program(tmp_path):
    """Only BENCHMARK.json and the benchmark present: non-zero exit, no
    result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
