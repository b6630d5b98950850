"""Seeded inputs: the simulated log, the serving population and schedules.

Everything a workload feeds the program is derived from ``--seed`` here,
so one seed always yields the same log, the same in-flight population,
the same request pool and the same arrival schedules.  The program only
ever sees these generated inputs.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# Bumped whenever the generation recipe changes, so stale cached logs are
# never reused.
_RECIPE = "log-v1"


FIT_MIN_SAMPLES = 30    # select_heavy_edges(min_samples=...)
THRESHOLD = 0.5         # select_heavy_edges(threshold=...)
POOL_BUSY_SHARE = 0.9   # pool share drawn from the modelled edges
STREAM_CHUNK = 32       # rows appended per stream cycle


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark run: ``FULL`` for real runs, ``TINY``
    for the benchmark's own tests."""

    days: float = 1.0                 # simulated days of production log
    fit_max_edges: int = 8            # busiest edges fitted per pass
    n_views: int = 10_000             # in-flight ActiveSet population
    pool_size: int = 512              # distinct requests the schedule draws
    setup_rounds: int = 3             # set-ups per run (setup_s = median)


FULL = Scale()
TINY = replace(FULL, days=0.4, fit_max_edges=2, n_views=400, pool_size=48,
               setup_rounds=1)

NOW = 0.0  # serving clock: views straddle it, requests start at it


def rng_for(seed: int, *tags: str) -> np.random.Generator:
    """An independent generator per (seed, purpose)."""
    words = [int(seed)] + [
        int.from_bytes(hashlib.sha256(t.encode()).digest()[:4], "little")
        for t in tags
    ]
    return np.random.default_rng(words)


class Workspace:
    """Where a run may read and write: ``<checkout>/.perfbench``."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.src = self.root / "src"
        self.base = self.root / ".perfbench"
        self.cache = self.base / "cache"
        self.out = self.base / "out"
        self.tmp = self.base / "tmp" / str(os.getpid())

    def prepare(self) -> "Workspace":
        for d in (self.cache, self.out, self.tmp):
            d.mkdir(parents=True, exist_ok=True)
        return self

    def program_present(self) -> bool:
        return (self.src / "repro" / "__init__.py").is_file()

    def recipe_digest(self) -> str:
        """Hash of the code that shapes a simulated log."""
        h = hashlib.sha256(_RECIPE.encode())
        pkg = self.src / "repro"
        for sub in ("sim", "workload", "logs"):
            for path in sorted((pkg / sub).glob("*.py")):
                h.update(path.name.encode())
                h.update(path.read_bytes())
        return h.hexdigest()[:16]


def production_log(ws: Workspace, seed: int, days: float) -> Path:
    """The seed's simulated log as CSV, generated in a child process.

    Logs are cached under ``.perfbench/cache`` keyed by seed, length and
    the simulator's source, so repeated runs of one seed in one checkout
    pay the simulation once.  Generation is input preparation: it is not
    part of any reported metric.
    """
    key = f"s{seed}-d{days:g}-{ws.recipe_digest()}"
    path = ws.cache / f"log-{key}.csv"
    if not path.is_file():
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ws.src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        script = Path(__file__).with_name("gen_log.py")
        subprocess.run(
            [sys.executable, str(script), "--seed", str(seed),
             "--days", f"{days:g}", "--out", str(path)],
            check=True, env=env, timeout=170,
        )
    return path


# -- serving inputs ---------------------------------------------------------


@dataclass
class ServeInputs:
    """The in-flight population plus the pool requests are drawn from.

    ``pool_actual`` holds the logged rate (bytes/s) of the row each pool
    request was copied from, for the accuracy metric.
    """

    views: list
    pool: list
    pool_actual: np.ndarray
    row_source: "RowSampler"


class RowSampler:
    """Draws log rows uniformly, i.e. edges with the log's frequencies."""

    def __init__(self, store) -> None:
        self.src = [str(s) for s in store.column("src")]
        self.dst = [str(d) for d in store.column("dst")]
        self.rate = store.rates
        self.nb = store.column("nb")
        self.nf = store.column("nf")
        self.nd = store.column("nd")
        self.c = store.column("c")
        self.p = store.column("p")
        self.n = len(store)

    def view(self, i: int, rng: np.random.Generator):
        from repro.core.online import ActiveTransferView

        return ActiveTransferView(
            src=self.src[i], dst=self.dst[i], rate=float(self.rate[i]),
            started_at=NOW - float(rng.uniform(1.0, 7200.0)),
            expected_end=NOW + float(rng.uniform(5.0, 3600.0)),
            concurrency=int(self.c[i]), parallelism=int(self.p[i]),
            n_files=int(self.nf[i]),
        )

    def request(self, i: int):
        from repro.sim.gridftp import TransferRequest

        return TransferRequest(
            src=self.src[i], dst=self.dst[i], total_bytes=float(self.nb[i]),
            n_files=int(self.nf[i]), n_dirs=int(self.nd[i]),
            concurrency=int(self.c[i]), parallelism=int(self.p[i]),
        )


def serve_inputs(store, seed: int, scale: Scale) -> ServeInputs:
    """Views are drawn with the log's edge frequencies.  Pool requests are
    drawn the same way within two strata, so that a fixed share
    (``POOL_BUSY_SHARE``) comes from the edges the fit path models (chosen
    with the program's ``select_heavy_edges``, as the fit path chooses
    them): the mix of model-served and fallback-served requests, which
    differ in cost about 80-fold, then stays the same from seed to seed."""
    from repro.core.pipeline import select_heavy_edges

    rows = RowSampler(store)
    rng = rng_for(seed, "views")
    views = [rows.view(int(i), rng)
             for i in rng.integers(0, rows.n, scale.n_views)]
    modelled = set(select_heavy_edges(store, min_samples=FIT_MIN_SAMPLES,
                                      threshold=THRESHOLD,
                                      max_edges=scale.fit_max_edges))
    busy = np.flatnonzero([(s, d) in modelled
                           for s, d in zip(rows.src, rows.dst)])
    rest = np.setdiff1d(np.arange(rows.n), busy)
    prng = rng_for(seed, "pool")
    n_busy = int(round(scale.pool_size * POOL_BUSY_SHARE))
    pick = np.concatenate([
        prng.choice(busy, n_busy),
        prng.choice(rest if rest.size else busy, scale.pool_size - n_busy),
    ])
    pick = pick[prng.permutation(pick.size)]
    pool = [rows.request(int(i)) for i in pick]
    return ServeInputs(views, pool, rows.rate[pick].astype(float), rows)


def poisson_schedule(rng: np.random.Generator, rate: float,
                     duration: float) -> np.ndarray:
    """Arrival offsets (s) of a Poisson process over ``[0, duration)``."""
    n_max = int(rate * duration * 1.3 + 50)
    gaps = rng.exponential(1.0 / rate, n_max)
    due = np.cumsum(gaps)
    while due[-1] < duration:  # pragma: no cover - 1.3x headroom suffices
        more = np.cumsum(rng.exponential(1.0 / rate, n_max)) + due[-1]
        due = np.concatenate([due, more])
    return due[due < duration]


# -- churn operations ---------------------------------------------------------

OP_ADD, OP_PROGRESS, OP_COMPLETE, OP_PREDICT = 0, 1, 2, 3


@dataclass
class ChurnOps:
    """A pre-generated mutation/prediction stream that never fails: ids
    progressed or completed are live at that point of the stream."""

    kind: np.ndarray      # OP_* per arrival
    tid: np.ndarray       # transfer id (mutations) / pool index (predict)
    rate: np.ndarray      # progress rate
    end: np.ndarray       # progress expected_end
    views: dict           # tid -> view for OP_ADD


class ChurnState:
    """The live-id bookkeeping of the churn generator, carried across
    phases so later phases continue the same transfer population."""

    def __init__(self, n_initial: int) -> None:
        self.live: list[int] = list(range(n_initial))
        self.next_id = n_initial


def churn_ops(state: ChurnState, n: int, inputs: ServeInputs,
              rng: np.random.Generator) -> ChurnOps:
    """``n`` arrivals in blocks of four, each block one transfer lifecycle
    per query: one add, one progress, one complete and one prediction, in
    shuffled order."""
    kind = np.empty(n, dtype=np.int8)
    tid = np.empty(n, dtype=np.int64)
    rate = np.zeros(n)
    end = np.zeros(n)
    views = {}
    block = np.array([OP_ADD, OP_PROGRESS, OP_COMPLETE, OP_PREDICT])
    rows, pool_n = inputs.row_source, len(inputs.pool)
    live = state.live
    for k in range(n):
        if k % 4 == 0:
            order = rng.permutation(block)
        op = order[k % 4]
        kind[k] = op
        if op == OP_ADD:
            t = state.next_id
            state.next_id += 1
            views[t] = rows.view(int(rng.integers(0, rows.n)), rng)
            live.append(t)
            tid[k] = t
        elif op == OP_PROGRESS:
            tid[k] = live[int(rng.integers(0, len(live)))]
            rate[k] = float(rng.uniform(1e6, 5e8))
            end[k] = NOW + float(rng.uniform(5.0, 3600.0))
        elif op == OP_COMPLETE:
            pos = int(rng.integers(0, len(live)))
            tid[k] = live[pos]
            live[pos] = live[-1]
            live.pop()
        else:
            tid[k] = int(rng.integers(0, pool_n))
    return ChurnOps(kind, tid, rate, end, views)
