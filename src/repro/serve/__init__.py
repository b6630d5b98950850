"""Online serving: batch submission-time prediction at scale.

The paper motivates its models with "distributed workflow scheduling and
optimization" — a service answering *many* "how fast would this transfer
run right now?" questions against a live population of in-flight
transfers.  This package is that serving layer:

- :class:`ActiveSet` — the in-flight population under incremental
  ``add``/``complete``/``progress`` updates, with per-endpoint prefix-sum
  indexes rebuilt lazily and only for touched endpoints; ``lenient=True``
  absorbs duplicate/unknown/bad-value mutations instead of raising;
- :class:`BatchOnlinePredictor` — the duration fix-point of
  :class:`~repro.core.online.OnlinePredictor`, vectorized across a whole
  batch of requests (the scalar predictor delegates here with a batch of
  one, so the two paths always agree);
- :class:`FallbackChain` / :class:`ModelTier` — the degradation ladder
  (per-edge model → global model → analytical bound → median → default)
  that lets the predictor answer for edges it has no model for, tagging
  each prediction with its provenance tier;
- :class:`PredictorStats` / :class:`ActiveSetStats` — per-call counters
  (including per-tier predictions and fix-point non-convergence), now
  thin views over a :class:`~repro.obs.MetricsRegistry`; pass an
  :class:`~repro.obs.Observability` bundle (``obs=``) to share one
  registry/tracer/drift-monitor across the whole stack;
- :class:`SweepAdvisor` / :class:`FleetScheduler` — the advisory layer on
  the batch stack (:mod:`repro.serve.advise`): a whole (C, P) sweep in one
  batch call, Eq. 1-clipped and tier-tagged, plus a backlog scheduler that
  replans against the live population and never predicts worse than FIFO;
- :mod:`repro.serve.bench` — synthetic workloads and the
  ``repro-tools serve-bench`` harness (latency percentiles and the
  instrumentation-overhead delta included);
- :mod:`repro.serve.chaos` — the proof harnesses' shared parts (the
  seeded fault stream :func:`make_mutation_stream` and the
  :class:`Verdict` every proof returns), the fault-injection replay
  behind ``repro-tools chaos``, the observed-replay pipeline
  (:func:`run_observed_replay`) behind ``repro-tools metrics``, and the
  crash-injection proof (:func:`run_crash_replay`) behind
  ``repro-tools state verify``;
- :mod:`repro.serve.durability` — :class:`ServingState` (the one
  mutation vocabulary and the reference twin), the write-ahead journal,
  checksummed
  generation-numbered snapshots, :func:`recover_serving_state`, and the
  probe-gated hot-reload model artifact store, behind
  ``repro-tools state snapshot|recover|verify``;
- :mod:`repro.serve.shard` — the fault-tolerant sharded serving tier
  (``repro-tools shard chaos``, ``serve-bench --shards N``):
  :class:`ShardCluster` supervises one durable worker process per
  consistent-hash slot — mutations broadcast through a replication log,
  predictions partitioned by edge and reassembled in submission order,
  crashed or hung workers SIGKILL-respawned and replayed to bit-identical
  state, unavailable shards answered degraded with explicit
  :attr:`ModelTier.DEGRADED` provenance, and live rebalance by snapshot
  handoff (see ``docs/sharding.md``);
- :mod:`repro.serve.stream` — the self-healing streaming loop
  (``repro-tools stream run|status|chaos``): :class:`TailIngester`
  follows a growing log with byte-accurate crash-safe resume,
  :class:`RetrainController` turns drift breaches into circuit-broken,
  probe-gated per-edge refits, :class:`StreamSupervisor` joins them
  under one atomic checkpoint, and :func:`run_stream_chaos` proves the
  exactly-once / breaker / never-unseat guarantees under injected
  faults (see ``docs/streaming.md``).
"""

from repro.serve.advise import (
    FleetPlan,
    FleetScheduler,
    ScheduledTransfer,
    SchedulerBenchmark,
    SweepAdvisor,
    SweepCandidate,
    SweepRecommendation,
)
from repro.serve.active_set import (
    ActiveSet,
    ActiveSetStats,
    EndpointState,
    view_from_dict,
    view_to_dict,
)
from repro.serve.batch import BatchOnlinePredictor, BatchPrediction, PredictorStats
from repro.serve.bench import ServeBenchResult, run_serve_bench
from repro.serve.chaos import (
    ChaosConfig,
    MutationStream,
    ObservedReplay,
    Verdict,
    make_mutation_stream,
    run_chaos_replay,
    run_crash_replay,
    run_observed_replay,
    write_corrupt_jsonl,
)
from repro.serve.durability import (
    DurabilityConfig,
    DurableServingState,
    ModelArtifactStore,
    ModelReloader,
    RecoveryReport,
    ServingState,
    recover_serving_state,
)
from repro.serve.fallback import FallbackChain, ModelTier
from repro.serve.shard import (
    ClusterConfig,
    HashRing,
    ShardChaosConfig,
    ShardCluster,
    ShardState,
    edge_key,
    run_shard_bench,
    run_shard_chaos,
    run_shard_scaling,
)
from repro.serve.stream import (
    BreakerState,
    CircuitBreaker,
    RetrainController,
    RetrainPolicy,
    StreamChaosConfig,
    StreamConfig,
    StreamSupervisor,
    TailIngester,
    read_stream_status,
    run_stream_chaos,
)

__all__ = [
    "ActiveSet",
    "ActiveSetStats",
    "EndpointState",
    "view_to_dict",
    "view_from_dict",
    "BatchOnlinePredictor",
    "BatchPrediction",
    "PredictorStats",
    "FallbackChain",
    "ModelTier",
    "SweepAdvisor",
    "SweepCandidate",
    "SweepRecommendation",
    "FleetScheduler",
    "FleetPlan",
    "ScheduledTransfer",
    "SchedulerBenchmark",
    "Verdict",
    "ChaosConfig",
    "MutationStream",
    "ObservedReplay",
    "make_mutation_stream",
    "run_chaos_replay",
    "run_crash_replay",
    "run_observed_replay",
    "write_corrupt_jsonl",
    "ServeBenchResult",
    "run_serve_bench",
    "DurabilityConfig",
    "ServingState",
    "DurableServingState",
    "RecoveryReport",
    "recover_serving_state",
    "ModelArtifactStore",
    "ModelReloader",
    "ShardCluster",
    "ClusterConfig",
    "ShardState",
    "HashRing",
    "edge_key",
    "ShardChaosConfig",
    "run_shard_chaos",
    "run_shard_bench",
    "run_shard_scaling",
    "BreakerState",
    "CircuitBreaker",
    "RetrainController",
    "RetrainPolicy",
    "StreamChaosConfig",
    "StreamConfig",
    "StreamSupervisor",
    "TailIngester",
    "read_stream_status",
    "run_stream_chaos",
]
