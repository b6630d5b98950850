"""The workloads, and what each per-layer metric should move.

Metric names and units come from ``BENCHMARK.json``; ``perfbench/tests``
checks that it lists the same workloads and per-layer names as this file.
Every run reports every metric of its kind: a workload that does not
exercise a layer reports 0 for it.
"""

from __future__ import annotations

WORKLOADS = ("fit", "serve", "stream")

# per-layer name -> what it should move: "<metric> on <workloads>"
MOVES: dict[str, str] = {
    "logs.io.busy_s": "throughput_per_s on fit, stream",
    "logs.io.rows": "throughput_per_s on fit, stream",
    "core.features.busy_s": "throughput_per_s on fit",
    "core.pipeline.busy_s": "throughput_per_s on fit",
    "core.pipeline.edges": "throughput_per_s on fit",
    "ml.gbt.trees": "throughput_per_s on fit; quality.mdape_pct holds",
    "serve.batch.calls": "latency_ms on serve",
    "serve.batch.requests_per_call": "max_rps on serve",
    "serve.batch.busy_s": "latency_ms on serve",
    "serve.batch.queue_wait_p50_ms": (
        "latency_p50_ms on serve (open loop, not gated)"),
    "serve.batch.queue_wait_p99_ms": "latency_p99_ms on serve (not gated)",
    "serve.batch.fixpoint_rounds": "max_rps on serve",
    "serve.batch.feature_s": "latency_ms on serve",
    "serve.batch.nonconverged": "no speed change should move it",
    "ml.forest.predict_s": "latency_ms, throughput_per_s on serve",
    "ml.forest.builds": "latency_ms on serve",
    "serve.fallback.edge_tier_ratio": "no speed change should move it",
    "serve.active_set.mutations": (
        "traced serve run, churn section: mutations applied"),
    "serve.active_set.mutate_busy_s": (
        "traced serve run, churn section: a write-path cost"),
    "serve.active_set.rebuilds": (
        "traced serve run, churn section; a read-path gain that costs "
        "rebuilds shows here"),
    "serve.active_set.rebuild_s": (
        "traced serve run, churn section: lazy index rebuild time"),
    "serve.shard.router_busy_s": (
        "traced serve run, shard section: time in the router"),
    "serve.shard.worker_busy_s": (
        "traced serve run, shard section: time in the workers"),
    "serve.shard.hop_share": (
        "traced serve run, shard section; no change on latency_ms "
        "(1 - worker busy / shards / router busy)"),
    "serve.shard.mutate_busy_s": (
        "traced serve run, shard section: population load"),
    "serve.shard.retries": "traced serve run, shard section: 0 when healthy",
    "obs.drift.busy_s": "throughput_per_s on stream",
    "obs.drift.records": "throughput_per_s on stream",
    "serve.stream.retrain.busy_s": (
        "latency_p90_ms on stream (not gated); quality.mdape_pct holds"),
    "serve.stream.retrain.rounds": "throughput_per_s on stream",
    "serve.stream.retrain.fits": "throughput_per_s on stream",
    "serve.durability.checkpoint_busy_s": (
        "latency_ms, throughput_per_s on stream"),
    "serve.durability.checkpoint_bytes": (
        "latency_ms, throughput_per_s on stream"),
    "serve.durability.checkpoints": (
        "latency_ms, throughput_per_s on stream"),
    "generator.lag_ms": (
        "benchmark health: p99 generator lateness in the serve open loop at "
        "the reference rate"),
    "generator.max_rps": (
        "max_rps: highest ladder rate with p99 <= 50 ms and no backlog "
        "(serve); throughput_per_s moves it"),
    "trace.overhead_pct": (
        "benchmark health: traced vs untraced latency_ms"),
    "error_pct": "failed operations over attempted ones",
    "quality.mdape_pct": (
        "answer quality, no speed change should move it: median over "
        "edges of held-out MdAPE (fit); drift monitor's overall MdAPE at "
        "the end (stream); MdAPE of the answers for the request pool "
        "against the logged rates they were drawn from (serve family)"),
}
