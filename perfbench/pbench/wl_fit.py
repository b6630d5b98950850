"""The log -> models workload (``fit``).

One pass reads the CSV log from disk, builds the contention feature
matrix, selects the busiest edges and fits one GBT model per edge, all
through the program's public functions.  After one untimed warm-up pass,
passes repeat until ``--seconds`` are spent.  Each stage of a pass (read,
features, selection, each edge's fit) is a timed unit: the pass time is
the sum of each stage's median over the run's passes, at the
reference host speed (see ``pbench.common``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

from pbench import inputs as inp
from pbench.common import (
    RunContext,
    UnitClock,
    median,
    pct,
    self_peak_rss_mb,
)

_SETUP_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "from repro.logs.io import read_csv\n"
    "from repro.core.features import build_feature_matrix\n"
    "from repro.core.pipeline import select_heavy_edges\n"
    "store = read_csv(sys.argv[1])\n"
    "build_feature_matrix(store)\n"
    "select_heavy_edges(store, min_samples=int(sys.argv[2]),\n"
    "                   threshold=float(sys.argv[3]), max_edges=int(sys.argv[4]))\n"
    "print(time.perf_counter() - t)\n"
)


def setup_round_s(ctx: RunContext, log_path) -> float:
    """Seconds a fresh interpreter spends before its first fit can start:
    importing the fit path, reading the log, building the features and
    selecting the edges."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ctx.ws.src)
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(log_path),
         str(inp.FIT_MIN_SAMPLES), str(inp.THRESHOLD),
         str(ctx.scale.fit_max_edges)],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def one_pass(ctx: RunContext, log_path, clock: UnitClock | None = None):
    """One log -> models pass.  Each edge is fitted by its own
    ``fit_all_edge_models`` call (the same fit as one call over all edges:
    edges are fitted independently with the same seed), so that each is
    a timed unit of ``clock``."""
    from repro.core.features import build_feature_matrix
    from repro.core.pipeline import (
        GBTSettings,
        fit_all_edge_models,
        select_heavy_edges,
    )
    from repro.logs.io import read_csv

    rec = ctx.rec
    unit = clock if clock is not None else UnitClock(False)
    with unit, rec.span("logs.io"):
        store = read_csv(log_path)
    with unit, rec.span("core.features"):
        features = build_feature_matrix(store)
    with unit, rec.span("core.pipeline"):
        edges = select_heavy_edges(
            store, min_samples=inp.FIT_MIN_SAMPLES,
            threshold=inp.THRESHOLD, max_edges=ctx.scale.fit_max_edges)
    results = []
    for edge in edges:
        with unit, rec.span("core.pipeline"):
            results += fit_all_edge_models(features, [edge], model="gbt",
                                           gbt=GBTSettings(), workers=1)
    return store, edges, results


def expected_edge_rows(store, threshold: float) -> dict:
    """Rows per edge at or above ``threshold`` x the edge's peak rate,
    counted here independently of the program's selection code."""
    src = store.column("src").astype(str)
    dst = store.column("dst").astype(str)
    rates = store.rates
    keys = np.char.add(np.char.add(src, "\x1f"), dst)
    uniq, inv = np.unique(keys, return_inverse=True)
    peak = np.full(len(uniq), -np.inf)
    np.maximum.at(peak, inv, rates)
    keep = rates >= threshold * peak[inv]
    counts = np.bincount(inv[keep], minlength=len(uniq))
    return {tuple(k.split("\x1f")): int(c) for k, c in zip(uniq, counts)}


def check_fit(ctx: RunContext, store, edges, results) -> None:
    expected = expected_edge_rows(store, inp.THRESHOLD)
    got_edges = [r.edge for r in results]
    ctx.check("fitted edge set matches the selection",
              got_edges == list(edges) and len(edges) > 0,
              f"{len(got_edges)} fitted, {len(edges)} selected")
    bad = [f"{s}->{d}" for (s, d), r in zip(edges, results)
           if r.n_train + r.n_test != expected.get((s, d), -1)
           or expected.get((s, d), 0) < inp.FIT_MIN_SAMPLES]
    ctx.check("per-edge row counts match the selection", not bad,
              f"mismatched: {bad[:4]}" if bad else f"{len(results)} edges")
    mdapes = np.array([r.mdape for r in results], dtype=float)
    ctx.check("held-out MdAPE finite", bool(np.isfinite(mdapes).all())
              and mdapes.size > 0, f"{mdapes.size} edges")


def run(ctx: RunContext) -> None:
    log_path = inp.production_log(ctx.ws, ctx.seed, ctx.scale.days)
    setups = UnitClock()
    for _ in range(ctx.scale.setup_rounds):
        with setups:
            child_s = setup_round_s(ctx, log_path)
        # The child's own time, rescaled like the round's wall time.
        setups.times[-1] *= child_s / setups.wall[-1]
    ctx.e2e["setup_s"] = median(setups.times)
    ctx.samples["setup_s"] = len(setups.times)

    ctx.rec.enabled = False   # warm-up: first-call costs are not a pass
    one_pass(ctx, log_path)
    ctx.rec.enabled = ctx.trace
    passes: list[UnitClock] = []
    rows_read = trees = edges_fitted = 0
    mdape = None
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < ctx.seconds:
        clock = UnitClock()
        try:
            store, edges, results = one_pass(ctx, log_path, clock)
        except Exception as exc:  # a failed pass is one failed operation
            ctx.count(1, 1)
            ctx.check("fit pass completed", False, repr(exc))
            break
        passes.append(clock)
        ctx.count(1 + len(edges), len(edges) - len(results))
        rows_read += len(store)
        edges_fitted += len(results)
        trees += sum(len(r.model.trees_) for r in results)
        if mdape is None:
            check_fit(ctx, store, edges, results)
            mdape = float(np.median([r.mdape for r in results])) \
                if results else float("nan")
    if passes:
        # Every pass has the same stages (the seed fixes log and edges):
        # a pass is the sum of each stage's median.
        table = np.array([c.times for c in passes])
        pass_s = float(sum(median(table[:, j]) for j in range(table.shape[1])))
        ctx.e2e["latency_ms"] = pass_s * 1e3
        ctx.e2e["throughput_per_s"] = len(edges) / pass_s
        wall = np.array([sum(c.wall) for c in passes])
        ctx.e2e["latency_p50_ms"] = pct(wall, 50) * 1e3
        ctx.e2e["latency_p90_ms"] = pct(wall, 90) * 1e3
        ctx.samples["latency"] = ctx.samples["throughput_per_s"] = len(wall)
    ctx.e2e["mdape_pct"] = ctx.layers["quality.mdape_pct"] = \
        mdape if mdape is not None else float("nan")
    ctx.e2e["peak_rss_mb"] = self_peak_rss_mb()

    layers = ctx.rec.layers
    L = ctx.layers
    L["logs.io.rows"] = float(rows_read)
    L["core.pipeline.edges"] = float(edges_fitted)
    L["ml.gbt.trees"] = float(trees)
    for name in ("logs.io", "core.features", "core.pipeline"):
        if name in layers:
            L[f"{name}.busy_s"] = layers[name].busy_s
