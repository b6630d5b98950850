"""Run context, summary statistics and host facts shared by the workloads."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pbench.inputs import FULL, Scale, Workspace
from pbench.trace import Recorder


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class RunContext:
    """Everything one workload run needs, plus what it reports back."""

    ws: Workspace
    seed: int
    seconds: float
    trace: bool
    scale: Scale = FULL
    rec: Recorder = field(default_factory=lambda: Recorder(False))
    checks: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    e2e: dict = field(default_factory=dict)       # name -> value
    layers: dict = field(default_factory=dict)    # per-layer name -> value
    samples: dict = field(default_factory=dict)   # name -> sample count
    phases: list = field(default_factory=list)    # open-loop phase summaries
    notes: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rec = Recorder(self.trace)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append(Check(name, bool(ok), detail))
        return bool(ok)

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    @property
    def correct(self) -> bool:
        return all(c.ok for c in self.checks) and bool(self.checks)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


def pct(values, q: float) -> float:
    arr = np.asarray(values, dtype=float)
    return float(np.percentile(arr, q)) if arr.size else float("nan")


# Every gated timing is built from units of work each workload repeats
# many times in a run (a pipeline stage, a sweep of single requests, a
# stream chunk).  The host's speed drifts between states up to 2.7x apart
# that last seconds to minutes, so each unit is timed right between two
# runs of a fixed calibration kernel (``host_probe``) and rescaled to the
# reference host speed, the one at which the kernel takes ``REF_PROBE_S``;
# a unit's time is then the median of its rescaled repeats.
REF_PROBE_S = 0.002

_SMALL = np.arange(64.0)


def _kernel_s() -> float:
    t0 = time.perf_counter()
    for _ in range(400):
        b = _SMALL * 1.5
        np.searchsorted(_SMALL, 10.0)
        b.sum()
        np.maximum(b, 3.0)
    return time.perf_counter() - t0


def host_probe() -> float:
    """How long the calibration kernel takes on the host right now, in
    seconds: the median of three runs of 1,600 numpy calls on 64-element
    arrays.  Of the kernels tried, this one's time followed the program's
    single requests, saturated calls and GBT fits most closely through
    the host's speed states.  The kernel never touches the program."""
    return float(statistics.median(_kernel_s() for _ in range(3)))


class UnitClock:
    """Times units of work (``with clock: ...``).  ``wall`` holds each
    unit's wall seconds; ``times`` the same at the reference host speed:
    wall x ``REF_PROBE_S`` / the mean of the probes right before and right
    after it.  A disabled clock only runs the body."""

    _SHARE_S = 0.001   # a unit starting this soon after the last one
                       # reuses the probe that ended it

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.wall: list[float] = []
        self.times: list[float] = []
        self._p0 = self._t0 = 0.0
        self._last = (0.0, -1.0)     # (probe, when it ended)

    def __enter__(self):
        if self.enabled:
            probe, ended = self._last
            if time.perf_counter() - ended > self._SHARE_S:
                probe = host_probe()
            self._p0 = probe
            self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            dt = time.perf_counter() - self._t0
            p1 = host_probe()
            self._last = (p1, time.perf_counter())
            self.wall.append(dt)
            self.times.append(dt * REF_PROBE_S / ((self._p0 + p1) / 2))


def mdape(pred, actual) -> float:
    """Median absolute percentage error, percent."""
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    ok = actual > 0
    return float(np.median(np.abs(pred[ok] - actual[ok]) / actual[ok]) * 100.0)


def counter_total(registry, name: str) -> float:
    """Sum of every labelled series of counter ``name``."""
    return float(sum(s.value for s in registry.series()
                     if s.name == name and s.kind == "counter"))


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS")


def _blas_info() -> dict:
    """The BLAS numpy was built against, and its thread count as found.
    Read only: the benchmark never pins threads."""
    info: dict = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        info["blas"] = blas.get("name")
        info["blas_version"] = blas.get("version")
    except (TypeError, AttributeError):  # older numpy: no dict mode
        info["blas"] = None
    info["blas_threads"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    """The thread count of the OpenBLAS numpy loaded (None if not found)."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha(root: Path) -> str | None:
    """HEAD's commit read from ``.git`` directly (None outside a clone)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(ws: Workspace) -> dict:
    """Host facts recorded with every run."""
    src_lines = 0
    for path in sorted((ws.src / "repro").rglob("*.py")):
        with path.open("rb") as fh:
            src_lines += sum(1 for _ in fh)
    sha = _git_sha(ws.root)
    return {
        "cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {k: os.environ.get(k) for k in _THREAD_VARS},
        **_blas_info(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "src_lines": src_lines,
    }
