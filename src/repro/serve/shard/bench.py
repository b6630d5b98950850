"""Throughput and parity benchmark for the sharded serving tier.

:func:`run_shard_bench` times one predict workload twice — through a
:class:`~repro.serve.shard.ShardCluster` of ``N`` workers and through the
single-process :class:`~repro.serve.batch.BatchOnlinePredictor` reference
— and verifies the tier's correctness gates:

- **bit parity**: ``max |cluster - reference|`` rate must be exactly 0
  and no answer may be degraded (every worker was healthy);
- **count-merge equality**: after merging every worker's registry through
  the commutative :meth:`~repro.obs.MetricsRegistry.load_snapshot`,
  request-level counters (``serve_requests_total`` and the per-tier
  ``serve_tier_predictions_total``) must *exactly* equal the reference's
  — sharding may change how work is chunked (per-shard ``predict_calls``
  and fix-point iterations legitimately differ) but never how much work
  was requested or which tier answered.

:func:`run_shard_scaling` sweeps shard counts and reports each count's
speedup over ``--shards 1``; on a single-core box the parallelism gates
are physically unobservable, so scaling is *recorded* (with the core
count) while only the correctness gates decide ``parity_ok``.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.obs import Observability
from repro.serve.active_set import ActiveSet, view_to_dict
from repro.serve.batch import BatchOnlinePredictor
from repro.serve.bench import (
    make_synthetic_requests,
    make_synthetic_views,
)
from repro.serve.fallback import ModelTier
from repro.serve.shard.chaos import make_full_coverage_chain
from repro.serve.shard.supervisor import ClusterConfig, ShardCluster

__all__ = ["ShardBenchResult", "run_shard_bench", "run_shard_scaling"]

_COUNT_METRICS = ("serve_requests_total", "serve_tier_predictions_total")


@dataclass(frozen=True)
class ShardBenchResult:
    """One shard count's timings plus the correctness gates."""

    shards: int
    n_active: int
    n_requests: int
    repeats: int
    cluster_time_s: float
    reference_time_s: float
    max_abs_diff: float
    degraded: int
    counts: dict[str, list] = field(default_factory=dict)
    counts_ok: bool = True
    # Full merged cross-shard registry snapshot (router + every worker);
    # carried for the CLI's --metrics-out, deliberately not in as_dict().
    merged_snapshot: dict | None = None

    @property
    def parity_ok(self) -> bool:
        """The hard gate: bit parity + zero degraded + exact count merge."""
        return (self.max_abs_diff == 0.0 and self.degraded == 0
                and self.counts_ok)

    @property
    def cluster_throughput_rps(self) -> float:
        return self.n_requests / self.cluster_time_s \
            if self.cluster_time_s else 0.0

    def render(self) -> str:
        lines = [
            f"shards                    {self.shards}",
            f"active transfers          {self.n_active}",
            f"requests                  {self.n_requests} "
            f"(x{self.repeats} repeats)",
            f"cluster predict           {self.cluster_time_s * 1e3:9.2f} ms "
            f"({self.cluster_throughput_rps:,.0f} req/s)",
            f"single-process reference  "
            f"{self.reference_time_s * 1e3:9.2f} ms",
            f"max |cluster - ref| rate  {self.max_abs_diff:9.3g} B/s",
            f"degraded answers          {self.degraded}",
            f"count-merge equality      "
            f"{'exact' if self.counts_ok else 'MISMATCH'}",
            f"parity                    "
            f"{'OK' if self.parity_ok else 'FAILED'}",
        ]
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "shards": self.shards,
            "n_active": self.n_active,
            "n_requests": self.n_requests,
            "repeats": self.repeats,
            "cluster_time_s": self.cluster_time_s,
            "reference_time_s": self.reference_time_s,
            "cluster_throughput_rps": self.cluster_throughput_rps,
            "max_abs_diff": self.max_abs_diff,
            "degraded": self.degraded,
            "counts_ok": self.counts_ok,
            "counts": self.counts,
            "parity_ok": self.parity_ok,
        }


def _request_counts(registry_snapshot: dict) -> dict[str, list]:
    """The request-level counter series from one registry snapshot,
    sorted for stable comparison."""
    out: dict[str, list] = {}
    for entry in registry_snapshot.get("counters", []):
        if entry["name"] in _COUNT_METRICS:
            out.setdefault(entry["name"], []).append(
                [sorted(entry.get("labels", {}).items()),
                 entry.get("value", 0)])
    for name in out:
        out[name].sort()
    return out


def run_shard_bench(
    shards: int = 2,
    n_active: int = 2_000,
    n_requests: int = 512,
    n_endpoints: int = 24,
    seed: int = 0,
    repeats: int = 3,
    now: float = 0.0,
    state_root: str | Path | None = None,
    obs: Observability | None = None,
) -> ShardBenchResult:
    """Time and verify one shard count against the reference.

    Both paths warm once, then time ``repeats`` identical batches; the
    metric comparison covers *all* predicts (warm + timed) so chunking
    bugs cannot hide in the warm-up.
    """
    if shards < 1 or repeats < 1:
        raise ValueError("shards and repeats must be >= 1")
    chain = make_full_coverage_chain(n_endpoints, seed=seed)
    views = make_synthetic_views(
        n_active, n_endpoints=n_endpoints, seed=seed, now=now)
    requests = make_synthetic_requests(
        n_requests, n_endpoints=n_endpoints, seed=seed + 1)

    ref_obs = Observability.create(trace=False)
    reference = BatchOnlinePredictor(
        chain, ActiveSet.from_views(views, obs=ref_obs), obs=ref_obs)
    ref_detail = reference.predict_batch_detailed(requests, now)  # warm
    t0 = time.perf_counter()
    for _ in range(repeats):
        ref_rates = reference.predict_batch(requests, now)
    reference_time = (time.perf_counter() - t0) / repeats

    tmp = None
    if state_root is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-shard-bench-")
        state_root = tmp.name
    try:
        cluster = ShardCluster(
            chain, state_root, shards=shards, obs=obs,
            config=ClusterConfig(),
        ).start()
        try:
            cluster.apply_mutations([
                ["add", i, view_to_dict(v)] for i, v in enumerate(views)
            ])
            detail = cluster.predict_batch_detailed(requests, now)  # warm
            t0 = time.perf_counter()
            for _ in range(repeats):
                cluster_rates = cluster.predict_batch(requests, now)
            cluster_time = (time.perf_counter() - t0) / repeats
            merged = cluster.collect_metrics().snapshot()
        finally:
            cluster.stop()
    finally:
        if tmp is not None:
            tmp.cleanup()

    degraded = sum(1 for t in detail.tiers if t is ModelTier.DEGRADED)
    max_abs_diff = float(np.max(np.abs(cluster_rates - ref_rates))) \
        if n_requests else 0.0
    warm_diff = float(np.max(np.abs(
        np.asarray(detail.rates) - np.asarray(ref_detail.rates)))) \
        if n_requests else 0.0
    max_abs_diff = max(max_abs_diff, warm_diff)

    ref_counts = _request_counts(ref_obs.registry.snapshot())
    merged_counts = _request_counts(merged)
    counts_ok = ref_counts == merged_counts

    return ShardBenchResult(
        shards=shards,
        n_active=n_active,
        n_requests=n_requests,
        repeats=repeats,
        cluster_time_s=cluster_time,
        reference_time_s=reference_time,
        max_abs_diff=max_abs_diff,
        degraded=degraded,
        counts={"reference": sorted(ref_counts),
                "merged": sorted(merged_counts)},
        counts_ok=counts_ok,
        merged_snapshot=merged,
    )


def run_shard_scaling(
    shard_counts: tuple[int, ...] = (1, 4),
    **kwargs,
) -> dict:
    """Run :func:`run_shard_bench` per shard count and relate them.

    Returns ``{"results": {N: as_dict}, "scaling": t(1)/t(max),
    "scaling_target": 2.5, "cores": os.cpu_count(), "parity_ok": ...}``
    — scaling is recorded honestly (a single-core box cannot show
    parallel speedup) while ``parity_ok`` gates only correctness.
    """
    counts = sorted(set(int(c) for c in shard_counts))
    if not counts:
        raise ValueError("need at least one shard count")
    results = {c: run_shard_bench(shards=c, **kwargs) for c in counts}
    base = results[counts[0]].cluster_time_s
    top = results[counts[-1]].cluster_time_s
    return {
        "results": {c: r.as_dict() for c, r in results.items()},
        "scaling": base / top if top else 0.0,
        "scaling_baseline_shards": counts[0],
        "scaling_at_shards": counts[-1],
        "scaling_target": 2.5,
        "cores": os.cpu_count() or 1,
        "parity_ok": all(r.parity_ok for r in results.values()),
    }
