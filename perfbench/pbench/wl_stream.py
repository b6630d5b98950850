"""The appended line -> applied, checkpointed state workload (``stream``).

Set-up writes the first half of the log (completion order) to a file and
builds the loop the way ``repro-tools stream run`` does: fallback chain
from the log, ``RetrainController``, ``StreamSupervisor`` with the default
``StreamConfig`` except ``poll_interval_s=0``; then it catches up.  The
timed phase appends the second half in fixed chunks, one ``cycle()`` per
chunk, in a closed loop.  Set-up plus timed phase repeat on fresh state
until ``--seconds`` of timed phase are spent.  Each chunk is a timed unit:
it brings the same rows to the same state in every pass, and its time is
the median over the passes, at the reference host speed (see
``pbench.common``).
"""

from __future__ import annotations

import csv
import io
import shutil
import time

import numpy as np

from pbench import inputs as inp
from pbench.common import (
    RunContext,
    UnitClock,
    counter_total,
    median,
    pct,
    self_peak_rss_mb,
)


def csv_lines(rows) -> list[str]:
    """Rows rendered exactly as ``repro.logs.io.write_csv`` renders them."""
    names = rows.dtype.names
    out = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf).writerow([row[name].item() for name in names])
        out.append(buf.getvalue())
    return out


class StreamRig:
    """One freshly built streaming loop over its own log file."""

    def __init__(self, ctx: RunContext, root, header: str, lines: list[str],
                 half: int) -> None:
        from repro.logs.io import read_csv
        from repro.obs import Observability, stream_slos
        from repro.serve.fallback import FallbackChain
        from repro.serve.stream import (
            RetrainController,
            RetrainPolicy,
            StreamConfig,
            StreamSupervisor,
            TailIngester,
        )

        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        self.log = root / "log.csv"
        self.log.write_text(header + "".join(lines[:half]))
        state_dir = root / "state"
        state_dir.mkdir()
        store, _ = read_csv(self.log, strict=False)
        obs = Observability.create(events_path=state_dir / "events.jsonl",
                                   slos=stream_slos())
        tail = TailIngester(self.log, fmt="csv", registry=obs.registry,
                            seed=ctx.seed)
        controller = RetrainController(
            FallbackChain.from_log(store), obs.drift, state_dir / "artifacts",
            policy=RetrainPolicy(), registry=obs.registry, tracer=obs.tracer,
            seed=ctx.seed)
        self.obs = obs
        self.sup = StreamSupervisor(
            tail, controller, state_dir, obs=obs,
            config=StreamConfig(poll_interval_s=0.0))
        self.appended = half

    def catch_up(self) -> None:
        while self.sup.cycle():
            pass

    def append_and_cycle(self, text: str, n_rows: int) -> None:
        with self.log.open("a") as fh:
            fh.write(text)
        self.appended += n_rows
        self.sup.cycle()


def _install_wrappers(ctx: RunContext, rig: StreamRig, sizes: list) -> None:
    rec, sup = ctx.rec, rig.sup
    rec.wrap(sup.tail, "poll", "logs.io")
    rec.wrap(sup.drift, "record", "obs.drift")
    rec.wrap(sup.controller, "refit_due", "serve.stream.retrain")
    rec.wrap(sup.controller, "retrain", "serve.stream.retrain.round")
    rec.wrap(sup.predictor, "predict_batch_detailed", "serve.batch")
    rec.wrap(sup, "checkpoint", "serve.durability")
    if not ctx.trace:
        return
    traced = sup.checkpoint

    def sized():
        gen = traced()
        sizes.append(sup.checkpoints.path_for(gen).stat().st_size)
        return gen

    sup.checkpoint = sized


def check_pass(ctx: RunContext, rig: StreamRig, rows, label: str) -> None:
    from repro.serve.stream import fold_digest

    st = rig.sup.status()
    applied, shed = st["applied_records"], st["shed_records"]
    quarantined = st["quarantined_rows"]
    ctx.check(f"{label}: applied + shed + quarantined == appended",
              applied + shed + quarantined == rig.appended,
              f"{applied} + {shed} + {quarantined} vs {rig.appended}")
    ok = shed == 0 and st["applied_digest"] == fold_digest("", rows[:applied])
    ctx.check(f"{label}: applied_digest == fold_digest(applied rows)", ok,
              f"{applied} rows")
    # Shed or quarantined rows of valid input are failed operations.
    ctx.count(0, shed + quarantined)


def run(ctx: RunContext) -> None:
    from repro.logs.io import read_csv
    from repro.logs.schema import LOG_DTYPE

    log_path = inp.production_log(ctx.ws, ctx.seed, ctx.scale.days)
    raw = read_csv(log_path).raw()
    rows = raw[np.argsort(raw["te"], kind="stable")]
    lines = csv_lines(rows)
    header = ",".join(LOG_DTYPE.names) + "\r\n"
    half = len(rows) // 2
    step = inp.STREAM_CHUNK
    chunks = [(i, min(i + step, len(rows))) for i in range(half, len(rows), step)]
    texts = ["".join(lines[a:b]) for a, b in chunks]

    setups, sizes = UnitClock(), []
    lat: list[float] = []                         # wall seconds per cycle
    per_chunk: list[list[float]] = [[] for _ in chunks]
    mdape = None
    timed_s = 0.0
    before = None
    after_counts: dict[str, float] = {}
    k = 0
    while k < ctx.scale.setup_rounds or timed_s < ctx.seconds:
        ctx.rec.enabled = False
        root = ctx.ws.tmp / f"stream-{k}"
        with setups:
            rig = StreamRig(ctx, root, header, lines, half)
            rig.catch_up()
        ctx.count(half, 0)
        k += 1
        if timed_s >= ctx.seconds:     # extra set-up rounds only
            check_pass(ctx, rig, rows, f"set-up {k}")
            shutil.rmtree(root, ignore_errors=True)
            continue
        ctx.rec.enabled = ctx.trace
        _install_wrappers(ctx, rig, sizes)
        reg = rig.obs.registry
        before = {n: counter_total(reg, n) for n in _COUNTERS}
        polled0 = rig.sup.tail.report.total_rows
        cycles = UnitClock()
        for j, ((a, b), text) in enumerate(zip(chunks, texts)):
            t0 = time.perf_counter()
            with cycles, ctx.rec.span("serve.stream.cycle"):
                rig.append_and_cycle(text, b - a)
            timed_s += time.perf_counter() - t0     # probes included
            lat.append(cycles.wall[-1])
            per_chunk[j].append(cycles.times[-1])
            ctx.count(b - a, 0)
            if timed_s >= ctx.seconds:
                break
        ctx.rec.enabled = False
        ctx.rec.unwrap_all()
        for n in _COUNTERS:
            after_counts[n] = after_counts.get(n, 0.0) \
                + counter_total(reg, n) - before[n]
        after_counts["polled"] = after_counts.get("polled", 0.0) \
            + rig.sup.tail.report.total_rows - polled0
        check_pass(ctx, rig, rows, f"pass {k}")
        if mdape is None:
            mdape = rig.sup.drift.overall().mdape
        shutil.rmtree(root, ignore_errors=True)

    ctx.e2e["setup_s"] = median(setups.times)
    ctx.samples["setup_s"] = len(setups.times)
    # Gated: latency_ms (the median chunk's cycle) and throughput_per_s
    # (rows of the chunks over the sum of their cycles), from each chunk's
    # median cycle time at the reference host speed; recorded, not
    # gated: the plain wall-time percentiles.
    done = [(b - a, median(t)) for (a, b), t in zip(chunks, per_chunk) if t]
    ctx.e2e["latency_ms"] = median(t for _, t in done) * 1e3
    ctx.e2e["throughput_per_s"] = sum(n for n, _ in done) \
        / sum(t for _, t in done)
    ctx.e2e["latency_p50_ms"] = pct(lat, 50) * 1e3
    ctx.e2e["latency_p90_ms"] = pct(lat, 90) * 1e3
    ctx.samples["latency"] = len(lat)
    ctx.samples["throughput_per_s"] = len(done)
    ctx.e2e["mdape_pct"] = ctx.layers["quality.mdape_pct"] = \
        float(mdape) if mdape is not None else float("nan")
    ctx.e2e["peak_rss_mb"] = self_peak_rss_mb()

    layers, L = ctx.rec.layers, ctx.layers
    L["logs.io.rows"] = after_counts.get("polled", 0.0)
    L["serve.stream.retrain.fits"] = after_counts.get(
        "durability_artifacts_published_total", 0.0)
    L["obs.drift.records"] = after_counts.get("drift_observations_total", 0.0)
    L["serve.durability.checkpoints"] = after_counts.get(
        "stream_checkpoints_total", 0.0)
    L["serve.batch.calls"] = after_counts.get("serve_predict_calls_total", 0.0)
    L["serve.batch.fixpoint_rounds"] = after_counts.get(
        "serve_fixpoint_iterations_total", 0.0)
    L["serve.batch.feature_s"] = after_counts.get(
        "serve_feature_seconds_total", 0.0)
    L["ml.forest.predict_s"] = after_counts.get(
        "ml_forest_predict_seconds_total", 0.0)
    if ctx.trace:
        for layer, metric in (
                ("logs.io", "logs.io.busy_s"),
                ("obs.drift", "obs.drift.busy_s"),
                ("serve.stream.retrain", "serve.stream.retrain.busy_s"),
                ("serve.durability", "serve.durability.checkpoint_busy_s"),
                ("serve.batch", "serve.batch.busy_s")):
            L[metric] = layers[layer].busy_s if layer in layers else 0.0
        rounds = layers.get("serve.stream.retrain.round")
        L["serve.stream.retrain.rounds"] = float(rounds.count if rounds else 0)
        L["serve.durability.checkpoint_bytes"] = float(np.mean(sizes)) \
            if sizes else 0.0


_COUNTERS = (
    "durability_artifacts_published_total", "drift_observations_total",
    "stream_checkpoints_total", "serve_predict_calls_total",
    "serve_fixpoint_iterations_total", "serve_feature_seconds_total",
    "ml_forest_predict_seconds_total",
)
