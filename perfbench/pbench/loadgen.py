"""Open-loop load: a seeded Poisson schedule, timed from due times.

Arrivals fall due on the schedule whatever the server is doing (an open
loop).  The server takes every arrival due into one handler call; each is
timed from its due time, so a stall charges its wait to every arrival
queued behind it.  Generator and server share one thread: the schedule is
precomputed, so sending is handing over the due arrivals, and a second
thread would only add interpreter-lock hand-offs to every latency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

LATENCY_LIMIT_S = 0.050   # p99 limit that defines max_rps
_DRAIN_GRACE_S = 2.0      # an overloaded phase is cut this long after its end
_SPIN_S = 0.0002          # an idle server spins the last 0.2 ms to a due time


@dataclass
class PhaseResult:
    """One stretch of an open loop at one rate."""

    name: str
    rate: float                   # offered arrivals/s
    due: np.ndarray               # offsets from phase start
    sent: np.ndarray              # when the generator handed it over
    start: np.ndarray             # server call start (nan if never served)
    end: np.ndarray               # server call end (nan if never served)
    ok: np.ndarray                # handler-reported success per arrival
    is_query: np.ndarray          # arrivals that count as requests
    calls: int = 0
    cut: bool = False             # phase cut short under overload

    @property
    def latency_s(self) -> np.ndarray:
        q = self.is_query & ~np.isnan(self.end)
        return (self.end - self.due)[q]

    @property
    def queue_wait_s(self) -> np.ndarray:
        q = self.is_query & ~np.isnan(self.start)
        return (self.start - self.due)[q]

    @property
    def lag_s(self) -> np.ndarray:
        return (self.sent - self.due)[~np.isnan(self.sent)]

    @property
    def sent_n(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.sent)))

    @property
    def attempted(self) -> int:
        """Arrivals of any kind (requests and mutations)."""
        return len(self.due)

    @property
    def failed(self) -> int:
        """Arrivals never served or reported failed by the handler."""
        return self.attempted - int(np.count_nonzero(
            self.ok & ~np.isnan(self.end)))

    @property
    def answered(self) -> int:
        """Requests answered successfully."""
        return int(np.count_nonzero(self.is_query & self.ok
                                    & ~np.isnan(self.end)))

    def p(self, q: float) -> float:
        lat = self.latency_s
        return float(np.percentile(lat, q)) if lat.size else float("inf")

    def passes(self) -> bool:
        """Meets the latency limit with every request served, and left no
        backlog: the last answer came within the limit of the last due."""
        if self.failed or self.cut or not self.attempted:
            return False
        if self.p(99) > LATENCY_LIMIT_S:
            return False
        last_due = float(self.due[-1])
        return float(np.nanmax(self.end)) - last_due <= LATENCY_LIMIT_S

    def achieved_rps(self) -> float:
        """Requests answered per second of the phase's span."""
        span = float(np.nanmax(self.end)) if self.answered else 0.0
        return self.answered / span if span > 0 else 0.0

    def summary(self) -> dict:
        lat = self.latency_s
        lag = self.lag_s
        return {
            "phase": self.name, "rate": self.rate,
            "sent": self.sent_n, "succeeded": self.attempted - self.failed,
            "failed": self.failed, "answered": self.answered,
            "calls": self.calls,
            "p50_ms": float(np.percentile(lat, 50)) * 1e3 if lat.size else None,
            "p99_ms": self.p(99) * 1e3 if lat.size else None,
            "lag_p99_ms": float(np.percentile(lag, 99)) * 1e3 if lag.size else None,
            "passed": self.passes(),
        }


def run_phase(name: str, rate: float, due: np.ndarray, handler,
              is_query: np.ndarray | None = None) -> PhaseResult:
    """Serve one phase: ``handler(lo, hi)`` processes arrivals
    ``lo..hi-1`` in one call and returns a boolean success mask for them.

    Whenever the server is idle it sleeps until the next due time
    (spinning the last ``_SPIN_S``) and takes every arrival due by then;
    arrivals falling due while a call runs queue and are all taken when it
    returns.  ``sent`` is when an arrival was handed over: its due time if
    the server was busy, the wake-up time if it was idle, so ``sent - due``
    is the generator's own lag.
    """
    n = len(due)
    duration = float(due[-1]) if n else 0.0
    res = PhaseResult(
        name=name, rate=rate, due=due,
        sent=np.full(n, np.nan), start=np.full(n, np.nan),
        end=np.full(n, np.nan), ok=np.zeros(n, dtype=bool),
        is_query=np.ones(n, dtype=bool) if is_query is None else is_query,
    )
    clock = time.perf_counter
    deadline = duration + _DRAIN_GRACE_S
    t0 = clock() + 0.002
    i = 0
    while i < n:
        now = clock() - t0
        if now < due[i]:
            wait = float(due[i]) - now
            if wait > _SPIN_S:
                time.sleep(wait - _SPIN_S)
            while clock() - t0 < due[i]:
                pass
            now = clock() - t0
            j = int(np.searchsorted(due, now, side="right"))
            res.sent[i:j] = now
        else:
            j = int(np.searchsorted(due, now, side="right"))
            res.sent[i:j] = due[i:j]
        ok = handler(i, j)
        te = clock() - t0
        res.start[i:j] = now
        res.end[i:j] = te
        res.ok[i:j] = ok
        res.calls += 1
        i = j
        if te > deadline:
            res.cut = True
            break
    return res


STEP = 2 ** 0.125   # ladder ratio: 8 rungs per doubling
STRIDE = 8          # coarse pass: one rung per doubling


def ladder(base: float, top: int = 64) -> list[float]:
    """The workload's fixed rate ladder: ``base * STEP**k``, k < top."""
    return [base * STEP ** k for k in range(top)]


def climb(rates: list[float], run_rung, budget_s: float) -> tuple[int, dict]:
    """Find the highest passing rung: a coarse pass doubling the rate
    until a rung fails, then bisection between the last passing and the
    first failing rung.

    ``run_rung(k)`` runs rung ``k`` and returns its result, which has a
    ``passes()`` verdict.
    Stops early when ``budget_s`` of wall time is spent.  Returns the index
    of the highest passing rung (-1 if none) and ``{rung: PhaseResult}``.
    """
    t_start = time.perf_counter()
    phases: dict[int, PhaseResult] = {}

    def over() -> bool:
        return time.perf_counter() - t_start > budget_s

    best, fail = -1, len(rates)
    k = 0
    while k < len(rates) and not over():
        phases[k] = run_rung(k)
        if not phases[k].passes():
            fail = k
            break
        best = k
        k += STRIDE
    while best >= 0 and fail - best > 1 and not over():
        mid = (best + fail) // 2
        phases[mid] = run_rung(mid)
        if phases[mid].passes():
            best = mid
        else:
            fail = mid
    return best, phases
