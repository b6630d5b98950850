"""Load generator, ladder search and span accounting, without the program."""

from __future__ import annotations

import time

import numpy as np

from pbench import inputs as inp
from pbench.loadgen import LATENCY_LIMIT_S, climb, ladder, run_phase
from pbench.trace import Recorder


def test_schedule_is_seeded():
    a = inp.poisson_schedule(inp.rng_for(3, "due", "x"), 500.0, 2.0)
    b = inp.poisson_schedule(inp.rng_for(3, "due", "x"), 500.0, 2.0)
    c = inp.poisson_schedule(inp.rng_for(4, "due", "x"), 500.0, 2.0)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert np.all(np.diff(a) > 0) and a[-1] < 2.0
    assert 800 < a.size < 1200


def test_open_loop_times_from_due():
    due = inp.poisson_schedule(inp.rng_for(1, "t"), 400.0, 0.5)
    seen = []

    def handler(lo, hi):
        seen.append((lo, hi))
        time.sleep(0.001)
        return np.ones(hi - lo, dtype=bool)

    res = run_phase("t", 400.0, due, handler)
    covered = [i for lo, hi in seen for i in range(lo, hi)]
    assert covered == list(range(len(due)))
    assert res.failed == 0 and res.answered == len(due)
    assert np.all(res.end >= res.due) and np.all(res.sent >= res.due)
    assert np.all(res.latency_s >= 0.001)


def test_failed_handler_fails_the_rung():
    due = inp.poisson_schedule(inp.rng_for(1, "f"), 200.0, 0.3)

    def handler(lo, hi):
        ok = np.ones(hi - lo, dtype=bool)
        ok[0] = lo != 0
        return ok

    res = run_phase("f", 200.0, due, handler)
    assert res.failed == 1 and not res.passes()


def test_sliced_tail_ignores_one_stalled_slice():
    from pbench.wl_serve import Phase

    def handler(lo, hi):
        return np.ones(hi - lo, dtype=bool)

    slices = []
    for k in range(5):
        due = inp.poisson_schedule(inp.rng_for(k, "s"), 500.0, 0.2)
        slices.append(run_phase("s", 500.0, due, handler))
    slices[2].end[: len(slices[2].end) // 10 + 1] += 0.5   # one stall
    phase = Phase(slices)
    assert phase.tail(99) < 0.1
    assert np.percentile(phase.cat("latency_s"), 99) >= 0.5


class _Fake:
    def __init__(self, ok: bool) -> None:
        self.ok = ok

    def passes(self) -> bool:
        return self.ok


def test_climb_finds_the_knee():
    rates = ladder(100.0)
    knee = 1234.0
    ran = []

    def run_rung(k):
        ran.append(k)
        return _Fake(rates[k] <= knee)

    best, phases = climb(rates, run_rung, budget_s=60.0)
    assert rates[best] <= knee < rates[best + 1]
    assert len(ran) < 12 and set(phases) == set(ran)


def test_climb_when_nothing_passes():
    best, phases = climb(ladder(1.0), lambda k: _Fake(False), budget_s=60.0)
    assert best == -1 and list(phases) == [0]


def test_span_self_time():
    rec = Recorder(True)
    with rec.span("outer"):
        time.sleep(0.02)
        with rec.span("inner"):
            time.sleep(0.03)
    t = rec.table()
    assert t["outer"]["count"] == 1 and t["inner"]["count"] == 1
    assert t["outer"]["busy_s"] >= 0.05
    assert abs(t["outer"]["self_s"] - (t["outer"]["busy_s"]
                                       - t["inner"]["busy_s"])) < 1e-9
    assert LATENCY_LIMIT_S == 0.050


def test_disabled_recorder_wraps_nothing():
    class Obj:
        def f(self):
            return 1

    o = Obj()
    rec = Recorder(False)
    rec.wrap(o, "f", "layer")
    assert "f" not in vars(o) and rec.table() == {}
    rec = Recorder(True)
    rec.wrap(o, "f", "layer")
    assert o.f() == 1 and rec.table()["layer"]["count"] == 1
    rec.unwrap_all()
    assert "f" not in vars(o)


def test_single_request_time_is_per_request():
    """Each pool request's median, then the median over the pool: a
    request repeated often does not outweigh the others."""
    from pbench.wl_serve import OpenLoop

    loop = OpenLoop.__new__(OpenLoop)
    loop.request_s = [[0.001] * 200, [0.010, 0.011], [0.020, 0.021], []]
    assert abs(loop.single_request_s() - 0.0105) < 1e-12


def test_unit_clock_rescales_to_reference_speed():
    """A unit's rescaled time is its wall time over the probes around it,
    times the reference probe time; back-to-back units share a probe."""
    from pbench import common

    calls = []
    probes = iter([0.004, 0.004, 0.002, 0.002])
    real = common.host_probe
    common.host_probe = lambda: calls.append(1) or next(probes)
    try:
        clock = common.UnitClock()
        with clock:
            time.sleep(0.01)
        with clock:
            time.sleep(0.01)
    finally:
        common.host_probe = real
    assert len(calls) == 3                       # the middle one is shared
    assert abs(clock.times[0] - clock.wall[0] * common.REF_PROBE_S / 0.004) \
        < 1e-12
    assert abs(clock.times[1] - clock.wall[1] * common.REF_PROBE_S / 0.003) \
        < 1e-12
    off = common.UnitClock(False)
    with off:
        pass
    assert off.times == [] and off.wall == []
