"""The request -> answer workload (``serve``).

Set-up: the fit path's per-edge GBT models -> ``FallbackChain.from_log``
-> a 10k-view ``ActiveSet`` -> ``BatchOnlinePredictor``.  The timed phase
alternates three closed or open loops over the same pool of requests:
groups of requests answered one at a time (the latency figure), saturated
calls of 256 (the throughput figure) and one-second open-loop slices at a
fixed reference rate, in which every due request is drained into one
``predict_batch_detailed`` call (recorded percentiles); then it climbs
the fixed rate ladder (``max_rps``).

The traced run adds two sections, measured for their layers and output
checks only:

- ``churn``: on the same live set, every prediction brings an ``add``, a
  ``progress`` and a ``complete`` (one transfer lifecycle per query), so
  the lazy per-endpoint index rebuild shows (``serve.active_set.*``);
- ``shard``: the same requests answered through a two-shard
  ``ShardCluster`` whose population is loaded with ``apply_mutations``,
  so the router <-> worker hop shows (``serve.shard.*``).
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass

import numpy as np

from pbench import inputs as inp
from pbench import wl_fit
from pbench.common import (
    RunContext,
    UnitClock,
    counter_total,
    mdape,
    median,
    pct,
    self_peak_rss_mb,
)
from pbench.loadgen import climb, ladder, run_phase

GROUP = 32            # pool requests per single-request unit
BATCH = 256           # requests per call when saturated
REF_RATE = 250.0      # open-loop reference rate, requests/s
LADDER_BASE = 4000.0  # rung 0 of the fixed rate ladder, requests/s
RUNG_S = 0.5          # length of one ladder rung
SINGLE_SHARE = 0.4    # shares of --seconds: single-request sweeps,
SAT_SHARE = 0.3       # saturated calls,
REF_SHARE = 0.15      # the open loop at the reference rate; the ladder
                      # gets the rest

SECTION_S = 3.0       # busy seconds of each traced section (at most)
CHURN_BATCH = 32      # predictions per churn call, each with 3 mutations
SHARDS = 2
_PROBE = 128          # pool requests re-checked after each churn burst


# -- set-up ---------------------------------------------------------------


def fit_chain(ctx: RunContext, log_path):
    """The fit workload's pass, ending in a fallback chain over the fitted
    per-edge GBT models."""
    from repro.serve import FallbackChain

    store, _, results = wl_fit.one_pass(ctx, log_path)
    return FallbackChain.from_log(
        store, edge_models={r.edge: r for r in results})


@dataclass
class Server:
    """What a timed phase talks to."""

    predict: object          # predict_batch_detailed
    active: object = None    # in-process ActiveSet
    cluster: object = None
    obs: object = None
    mutate_s: float = 0.0    # population load through the cluster

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.stop()
            self.cluster = None


def build_server(ctx: RunContext, chain, si: inp.ServeInputs) -> Server:
    from repro.obs import Observability
    from repro.serve import ActiveSet, BatchOnlinePredictor

    obs = Observability.create(trace=False)
    active = ActiveSet.from_views(si.views, obs=obs)
    predictor = BatchOnlinePredictor(chain, active, obs=obs)
    predictor.predict_batch_detailed(si.pool, inp.NOW)  # warm lazy state
    return Server(predictor.predict_batch_detailed, active=active, obs=obs)


def start_cluster(ctx: RunContext, chain, si: inp.ServeInputs) -> Server:
    from repro.obs import Observability
    from repro.serve.active_set import view_to_dict
    from repro.serve.shard import ShardCluster

    obs = Observability.create(trace=False)
    root = ctx.ws.tmp / "shards"
    shutil.rmtree(root, ignore_errors=True)
    cluster = ShardCluster(chain, root, shards=SHARDS, obs=obs).start()
    try:
        t0 = time.perf_counter()
        cluster.apply_mutations(
            [["add", i, view_to_dict(v)] for i, v in enumerate(si.views)])
        mutate_s = time.perf_counter() - t0
        cluster.predict_batch_detailed(si.pool, inp.NOW)  # warm
    except BaseException:
        cluster.stop()
        raise
    return Server(cluster.predict_batch_detailed, cluster=cluster, obs=obs,
                  mutate_s=mutate_s)


def setup(ctx: RunContext, log_path, si: inp.ServeInputs):
    """Set up ``setup_rounds`` times from scratch; keep the last server.
    ``setup_s`` is the median round at the reference host speed."""
    clock = UnitClock()
    chain = server = None
    for _ in range(ctx.scale.setup_rounds):
        chain = server = None
        gc.collect()              # the last round's garbage is not a peak
        with clock:
            chain = fit_chain(ctx, log_path)
            server = build_server(ctx, chain, si)
    ctx.e2e["setup_s"] = median(clock.times)
    ctx.samples["setup_s"] = len(clock.times)
    ctx.notes.append(f"setup rounds, wall s: {np.round(clock.wall, 4)}")
    return chain, server


# -- reference answers ------------------------------------------------------


def tier_codes(tiers) -> np.ndarray:
    from repro.serve import ModelTier

    order = {t: i for i, t in enumerate(ModelTier)}
    return np.array([order[t] for t in tiers], dtype=np.int8)


def degraded_code() -> int:
    from repro.serve import ModelTier

    return list(ModelTier).index(ModelTier.DEGRADED)


def reference_answers(chain, si: inp.ServeInputs):
    """Every pool request answered alone (a batch of one) in process."""
    from repro.obs import Observability
    from repro.serve import ActiveSet, BatchOnlinePredictor

    obs = Observability.create(trace=False)
    active = ActiveSet.from_views(si.views, obs=obs)
    ref = BatchOnlinePredictor(chain, active, obs=obs)
    rates = np.empty(len(si.pool))
    tiers = []
    for i, req in enumerate(si.pool):
        out = ref.predict_batch_detailed([req], inp.NOW)
        rates[i] = out.rates[0]
        tiers.append(out.tiers[0])
    return rates, tier_codes(tiers)


class AnswerCheck:
    """Compares every answer with the reference as it arrives; only counts
    are kept, so memory does not grow with the run."""

    def __init__(self, ref_rates: np.ndarray, ref_tiers: np.ndarray) -> None:
        self.ref_rates, self.ref_tiers = ref_rates, ref_tiers
        self.degraded_code = degraded_code()
        self.n = self.differ = self.degraded = 0

    def add(self, idx, rates, codes) -> None:
        same = (rates == self.ref_rates[idx]) & (codes == self.ref_tiers[idx])
        self.n += len(idx)
        self.differ += int(np.count_nonzero(~same))
        self.degraded += int(np.count_nonzero(codes == self.degraded_code))


# -- handlers -----------------------------------------------------------------


def _serve_handler(ctx: RunContext, server: Server, si: inp.ServeInputs,
                   payload: np.ndarray, answers: AnswerCheck):
    degraded = degraded_code()
    pool = si.pool
    predict = server.predict
    layer = "serve.shard.router" if server.cluster is not None \
        else "serve.batch"

    def handler(lo: int, hi: int) -> np.ndarray:
        idx = payload[lo:hi]
        try:
            with ctx.rec.span(layer):
                out = predict([pool[k] for k in idx], inp.NOW)
        except Exception as exc:  # one failed call fails its requests
            ctx.notes.append(f"predict failed: {exc!r}")
            return np.zeros(hi - lo, dtype=bool)
        codes = tier_codes(out.tiers)
        answers.add(idx, out.rates, codes)
        return np.isfinite(out.rates) & (out.rates > 0) & (codes != degraded)

    return handler


def _churn_handler(ctx: RunContext, server: Server, si: inp.ServeInputs,
                   ops: inp.ChurnOps):
    degraded = degraded_code()
    active, pool, predict = server.active, si.pool, server.predict
    kind, tid = ops.kind, ops.tid
    rec = ctx.rec

    def handler(lo: int, hi: int) -> np.ndarray:
        ok = np.ones(hi - lo, dtype=bool)
        queries = []
        with rec.span("serve.active_set.mutate"):
            for k in range(lo, hi):
                op = kind[k]
                try:
                    if op == inp.OP_PREDICT:
                        queries.append(k)
                    elif op == inp.OP_ADD:
                        active.add(int(tid[k]), ops.views[int(tid[k])])
                    elif op == inp.OP_PROGRESS:
                        active.progress(int(tid[k]), rate=float(ops.rate[k]),
                                        expected_end=float(ops.end[k]))
                    else:
                        active.complete(int(tid[k]))
                except (KeyError, ValueError) as exc:
                    ok[k - lo] = False
                    ctx.notes.append(f"mutation {k} failed: {exc!r}")
        if queries:
            idx = tid[queries]
            try:
                with rec.span("serve.churn.predict"):
                    out = predict([pool[j] for j in idx], inp.NOW)
            except Exception as exc:
                ctx.notes.append(f"predict failed: {exc!r}")
                ok[np.asarray(queries) - lo] = False
                return ok
            codes = tier_codes(out.tiers)
            good = np.isfinite(out.rates) & (out.rates > 0) & (codes != degraded)
            ok[np.asarray(queries) - lo] &= good
        return ok

    return handler


# -- load ------------------------------------------------------------------------


def _partition(n: int, size: int) -> list[np.ndarray]:
    """``0..n-1`` cut into consecutive parts of about ``size``."""
    return np.array_split(np.arange(n), max(1, n // size))


class Phase:
    """One open-loop phase run as ~1 s slices: tail percentiles are the
    median over slices of each slice's percentile (a stall of a few ms -
    a preempted process - moves one slice, not the figure), and a ladder
    rung passes only if every slice does."""

    def __init__(self, slices: list) -> None:
        self.slices = slices

    def tail(self, q: float) -> float:
        return float(np.median([r.p(q) for r in self.slices]))

    def passes(self) -> bool:
        return all(r.passes() for r in self.slices)

    def cat(self, attr: str) -> np.ndarray:
        return np.concatenate([getattr(r, attr) for r in self.slices])


class Rung:
    """A finished ladder rung: its verdict and answered rate only (the
    per-arrival arrays are dropped, so memory does not grow with the
    rates climbed)."""

    def __init__(self, phase: Phase) -> None:
        self.passed = phase.passes()
        self.rps = float(np.mean([r.achieved_rps() for r in phase.slices]))

    def passes(self) -> bool:
        return self.passed


class OpenLoop:
    """Runs the phases of one server over the request pool.  With
    ``probe`` off (traced sections) nothing is timed as a unit."""

    SLICE_S = 1.0

    def __init__(self, ctx: RunContext, server: Server, si: inp.ServeInputs,
                 answers: AnswerCheck | None, tag: str,
                 churn: inp.ChurnState | None = None,
                 probe: bool = True) -> None:
        self.ctx, self.server, self.si = ctx, server, si
        self.answers, self.tag, self.churn = answers, tag, churn
        self.slice_no = 0
        # Fixed groups of pool requests, each a timed unit when answered
        # one request at a time; per pool request, its rescaled times.
        self.groups = _partition(len(si.pool), GROUP)
        self.request_s: list[list[float]] = [[] for _ in si.pool]
        self.next_group = 0
        # Fixed batches of the pool, each a timed unit when saturated;
        # per batch, seconds per call.
        self.batches = _partition(len(si.pool), BATCH)
        self.batch_s: list[list[float]] = [[] for _ in self.batches]
        self.probe = probe

    def singles(self, duration: float) -> None:
        """Closed loop: whole groups answered one request at a time (a
        batch of one each), back to back, for ``duration`` wall seconds.
        Each request's wall time is rescaled by its group's factor."""
        clock = UnitClock()
        handler = _serve_handler(self.ctx, self.server, self.si,
                                 np.arange(len(self.si.pool)), self.answers)
        t_end = time.perf_counter() + duration
        while time.perf_counter() < t_end:
            group = self.groups[self.next_group]
            self.next_group = (self.next_group + 1) % len(self.groups)
            walls, ok = [], 0
            with clock:
                for k in group:
                    t0 = time.perf_counter()
                    ok += bool(handler(k, k + 1)[0])
                    walls.append(time.perf_counter() - t0)
            scale = clock.times[-1] / clock.wall[-1]
            for k, w in zip(group, walls):
                self.request_s[k].append(w * scale)

            self.ctx.count(len(group), len(group) - ok)

    def saturate(self, duration: float) -> None:
        """Closed loop: the fixed batches answered in turn, one call each,
        back to back, for ``duration`` wall seconds."""
        clock = UnitClock(self.probe)
        t_end = time.perf_counter() + duration
        k = 0
        while time.perf_counter() < t_end:
            batch = self.batches[k % len(self.batches)]
            handler = _serve_handler(self.ctx, self.server, self.si, batch,
                                     self.answers)
            with clock:
                ok = handler(0, len(batch))
            if self.probe:
                self.batch_s[k % len(self.batches)].append(clock.times[-1])
            self.ctx.count(len(batch), int(np.count_nonzero(~ok)))
            k += 1

    def churn_bursts(self, duration: float, batch: int) -> None:
        """Closed loop: calls of ``batch`` predictions, each bringing its
        lifecycle's three mutations, back to back for ``duration`` wall
        seconds."""
        ctx, si = self.ctx, self.si
        t_end = time.perf_counter() + duration
        while time.perf_counter() < t_end:
            self.slice_no += 1
            rng = inp.rng_for(ctx.seed, self.tag, "churn", str(self.slice_no))
            self.churn.live = self.server.active.ids()
            handler = _churn_handler(
                ctx, self.server, si,
                inp.churn_ops(self.churn, 4 * batch, si, rng))
            ok = handler(0, 4 * batch)
            ctx.count(4 * batch, int(np.count_nonzero(~ok)))

    def single_request_s(self) -> float:
        """Seconds to answer one request alone: the median over the pool
        of each request's median."""
        return median(median(t) for t in self.request_s if t)

    def saturated_per_s(self) -> float:
        """Requests per second of saturated calls: the batches' requests
        over the sum of each batch's median call."""
        done = [(len(b), median(t)) for b, t in zip(self.batches,
                                                     self.batch_s) if t]
        return sum(n for n, _ in done) / sum(t for _, t in done)

    def phase(self, name: str, rate: float, duration: float) -> Phase:
        n = max(1, int(round(duration / self.SLICE_S)))
        return Phase([self._slice(name, rate, duration / n) for _ in range(n)])

    def _slice(self, name: str, rate: float, duration: float):
        ctx, si = self.ctx, self.si
        self.slice_no += 1
        tag = f"{name}-{self.slice_no}"
        due = inp.poisson_schedule(inp.rng_for(ctx.seed, "due", tag),
                                   rate, duration)
        payload = inp.rng_for(ctx.seed, "pick", tag).integers(
            0, len(si.pool), len(due))
        handler = _serve_handler(ctx, self.server, si, payload, self.answers)
        res = run_phase(name, rate, due, handler)
        ctx.count(res.attempted, res.failed)
        ctx.phases.append(res.summary())
        if ctx.trace:
            layer = "serve.shard.router" if self.server.cluster is not None \
                else "serve.batch"
            ctx.rec.add_wait(layer, float(np.sum(res.queue_wait_s)))
        return res


# -- per-layer counters ---------------------------------------------------------

_COUNTERS = (
    "serve_predict_calls_total", "serve_requests_total",
    "serve_fixpoint_iterations_total", "serve_feature_seconds_total",
    "serve_predict_seconds_total", "serve_nonconverged_requests_total",
    "ml_forest_predict_seconds_total", "ml_forest_builds_total",
    "active_set_state_rebuilds_total", "active_set_adds_total",
    "active_set_completes_total", "active_set_progress_updates_total",
    "shard_retries_total",
)


def _registry(server: Server):
    if server.cluster is not None:
        return server.cluster.collect_metrics()
    return server.obs.registry


def _counters(server: Server) -> dict[str, float]:
    registry = _registry(server)
    out = {name: counter_total(registry, name) for name in _COUNTERS}
    out["tier_edge"] = float(sum(
        s.value for s in registry.series()
        if s.name == "serve_tier_predictions_total"
        and s.labels_dict.get("tier") == "edge"))
    return out


def _delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def _busy(ctx: RunContext, layer: str) -> float:
    st = ctx.rec.layers.get(layer)
    return st.busy_s if st else 0.0


# -- the workload ------------------------------------------------------------------


def _preload() -> None:
    """Import every program module set-up uses, so the first set-up round
    does not pay one-time interpreter costs the later rounds skip."""
    import repro.core.features  # noqa: F401
    import repro.core.pipeline  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.serve.shard  # noqa: F401


def run(ctx: RunContext) -> None:
    from repro.logs.io import read_csv

    log_path = inp.production_log(ctx.ws, ctx.seed, ctx.scale.days)
    si = inp.serve_inputs(read_csv(log_path), ctx.seed, ctx.scale)

    ctx.rec.enabled = False           # set-up is not part of the layer table
    _preload()
    chain, server = setup(ctx, log_path, si)
    ref = reference_answers(chain, si)
    _timed(ctx, chain, server, si, ref)
    if ctx.trace:
        churn_section(ctx, chain, server, si)
        shard_section(ctx, chain, si, ref)


def _timed(ctx: RunContext, chain, server: Server, si: inp.ServeInputs,
           ref) -> None:
    before = _counters(server)
    ctx.rec.enabled = ctx.trace
    for result in chain.edge_models.values():
        ctx.rec.wrap(result.model, "predict", "ml.forest")
    answers = AnswerCheck(*ref)
    loop = OpenLoop(ctx, server, si, answers, "serve")

    # Single-request sweeps, saturated bursts and open-loop reference
    # slices alternate, so that all three sample the host over the same
    # stretch of the run; the ladder takes the rest.
    n = max(1, int(round(ctx.seconds * REF_SHARE / loop.SLICE_S)))
    ref_slices = []
    for _ in range(n):
        loop.singles(ctx.seconds * SINGLE_SHARE / n)
        loop.saturate(ctx.seconds * SAT_SHARE / n)
        ref_slices += loop.phase("reference", REF_RATE,
                                 ctx.seconds * REF_SHARE / n).slices
    ref_phase = Phase(ref_slices)
    rates = ladder(LADDER_BASE)
    best, rungs = climb(rates, lambda k: Rung(loop.phase(f"rung{k}",
                                                         rates[k], RUNG_S)),
                        budget_s=ctx.seconds * (1 - SINGLE_SHARE - SAT_SHARE
                                                - REF_SHARE))
    ctx.rec.enabled = False
    ctx.rec.unwrap_all()
    d = _delta(before, _counters(server))

    # End-to-end figures, at the reference host speed.  Gated: latency_ms
    # (one request answered alone, median over the pool) and
    # throughput_per_s (the pool's fixed batches over the sum of their
    # median saturated calls).  Recorded, not gated: the open-loop percentiles at the
    # reference rate (wall time) and max_rps.
    ctx.e2e["latency_ms"] = loop.single_request_s() * 1e3
    ctx.samples["latency"] = sum(len(t) for t in loop.request_s)
    lat = ref_phase.cat("latency_s")
    ctx.e2e["latency_p50_ms"] = pct(lat, 50) * 1e3
    ctx.e2e["latency_p99_ms"] = ref_phase.tail(99) * 1e3
    ctx.e2e["throughput_per_s"] = loop.saturated_per_s()
    ctx.samples["throughput_per_s"] = sum(len(t) for t in loop.batch_s)
    ctx.layers["generator.max_rps"] = rungs[best].rps if best >= 0 else 0.0
    ctx.notes.append(
        f"max_rps rung {best} of ladder base {LADDER_BASE:g}"
        f" (offered {rates[best]:.1f}/s)" if best >= 0
        else "no ladder rung met the latency limit")

    # Output check: every answer bit-equal to the batch-of-one reference,
    # the whole pool answered as one batch included.
    whole = server.predict(si.pool, inp.NOW)
    answers.add(np.arange(len(si.pool)), whole.rates, tier_codes(whole.tiers))
    ctx.check("answers bit-equal to batch-of-one answers",
              answers.differ == 0,
              f"{answers.differ} of {answers.n} differ")
    quality = mdape(whole.rates, si.pool_actual)
    ctx.e2e["mdape_pct"] = ctx.layers["quality.mdape_pct"] = quality
    ctx.e2e["peak_rss_mb"] = self_peak_rss_mb()

    lag = ref_phase.cat("lag_s")
    wait = ref_phase.cat("queue_wait_s")
    L = ctx.layers
    L["generator.lag_ms"] = pct(lag, 99) * 1e3
    calls, requests = d["serve_predict_calls_total"], d["serve_requests_total"]
    L["serve.batch.calls"] = calls
    L["serve.batch.requests_per_call"] = requests / calls if calls else 0.0
    L["serve.batch.busy_s"] = _busy(ctx, "serve.batch")
    L["serve.batch.queue_wait_p50_ms"] = pct(wait, 50) * 1e3
    L["serve.batch.queue_wait_p99_ms"] = pct(wait, 99) * 1e3
    L["serve.batch.fixpoint_rounds"] = d["serve_fixpoint_iterations_total"]
    L["serve.batch.feature_s"] = d["serve_feature_seconds_total"]
    L["serve.batch.nonconverged"] = d["serve_nonconverged_requests_total"]
    L["ml.forest.predict_s"] = d["ml_forest_predict_seconds_total"]
    L["ml.forest.builds"] = d["ml_forest_builds_total"]
    L["serve.fallback.edge_tier_ratio"] = (
        d["tier_edge"] / requests if requests else 0.0)


def _section_s(ctx: RunContext) -> float:
    return min(SECTION_S, ctx.seconds / 4)


def churn_probe(chain, server: Server, si: inp.ServeInputs,
                size: int) -> dict:
    """Answer the first ``size`` pool requests on the live set and on a
    fresh set rebuilt from its views; they must agree bit for bit."""
    from repro.obs import Observability
    from repro.serve import ActiveSet, BatchOnlinePredictor

    pool = si.pool[:size]
    live = server.predict(pool, inp.NOW)
    obs = Observability.create(trace=False)
    fresh_set = ActiveSet.from_views(server.active.views(), obs=obs)
    fresh = BatchOnlinePredictor(chain, fresh_set, obs=obs) \
        .predict_batch_detailed(pool, inp.NOW)
    same = (live.rates == fresh.rates) & (
        tier_codes(live.tiers) == tier_codes(fresh.tiers))
    return {"equal": bool(same.all()),
            "detail": f"{int((~same).sum())} of {same.size} differ"}


def churn_section(ctx: RunContext, chain, server: Server,
                  si: inp.ServeInputs) -> None:
    """Traced run only: mutations with every prediction on the live set,
    in saturated bursts; after each burst the live set's answers must
    equal a fresh set's built from its views."""
    before = _counters(server)
    loop = OpenLoop(ctx, server, si, None, "churn",
                    churn=inp.ChurnState(len(si.views)))
    bursts = 3
    for k in range(bursts):
        ctx.rec.enabled = True
        ctx.rec.wrap(server.active, "endpoint_state", "serve.active_set.state")
        loop.churn_bursts(_section_s(ctx) / bursts, CHURN_BATCH)
        ctx.rec.enabled = False
        ctx.rec.unwrap_all()
        probe = churn_probe(chain, server, si,
                            len(si.pool) if k == 0 else _PROBE)
        ctx.check(f"churn parity after burst {k + 1}", probe["equal"],
                  probe["detail"])
    d = _delta(before, _counters(server))
    L = ctx.layers
    L["serve.active_set.mutations"] = (
        d["active_set_adds_total"] + d["active_set_completes_total"]
        + d["active_set_progress_updates_total"])
    L["serve.active_set.mutate_busy_s"] = _busy(ctx,
                                                "serve.active_set.mutate")
    L["serve.active_set.rebuilds"] = d["active_set_state_rebuilds_total"]
    L["serve.active_set.rebuild_s"] = _busy(ctx, "serve.active_set.state")


def shard_section(ctx: RunContext, chain, si: inp.ServeInputs, ref) -> None:
    """Traced run only: saturated calls through a two-shard cluster; every
    answer must be bit-equal to the in-process reference, none
    ``DEGRADED``."""
    server = start_cluster(ctx, chain, si)
    try:
        before = _counters(server)
        answers = AnswerCheck(*ref)
        loop = OpenLoop(ctx, server, si, answers, "shard", probe=False)
        ctx.rec.enabled = True
        loop.saturate(_section_s(ctx))
        ctx.rec.enabled = False
        d = _delta(before, _counters(server))
    finally:
        server.close()
    ctx.check("sharded answers bit-equal to the in-process reference",
              answers.differ == 0, f"{answers.differ} of {answers.n} differ")
    ctx.check("zero DEGRADED answers through the cluster",
              answers.degraded == 0, f"{answers.degraded} degraded")
    router = _busy(ctx, "serve.shard.router")
    worker = d["serve_predict_seconds_total"]   # summed over shards
    L = ctx.layers
    L["serve.shard.router_busy_s"] = router
    L["serve.shard.worker_busy_s"] = worker
    # Shards compute in parallel, so the router waits on about one shard's
    # share: the hop is the rest of its time.
    L["serve.shard.hop_share"] = 1.0 - worker / SHARDS / router \
        if router else 0.0
    L["serve.shard.mutate_busy_s"] = server.mutate_s
    L["serve.shard.retries"] = d["shard_retries_total"]
