"""Fault-tolerant sharded serving tier: process-per-shard workers,
supervised failover, and snapshot-handoff rebalance.

The serving stack so far lived in one process: one
:class:`~repro.serve.ActiveSet`, one
:class:`~repro.serve.batch.BatchOnlinePredictor`, one durable WAL.  This
package turns it into a supervised fleet without changing a single
answer:

- :mod:`repro.serve.shard.ring` — consistent hashing of ``src->dst``
  edge ids onto shard slots (:class:`HashRing`, :func:`edge_key`);
- :mod:`repro.serve.shard.protocol` — length+CRC framed strict-JSON
  request/response over a ``socketpair`` per worker;
- :mod:`repro.serve.shard.worker` — the worker process body: its own
  :class:`~repro.serve.durability.DurableServingState` (WAL + snapshots)
  and batch predictor behind a recv/dispatch/send loop
  (:class:`ShardWorker`);
- :mod:`repro.serve.shard.supervisor` — :class:`ShardCluster`, the
  router + supervisor + rebalancer: replication-log broadcast of
  mutations, ring-partitioned pipelined predicts reassembled in
  submission order, per-request timeouts with shared-backoff retries,
  SIGKILL-respawn-replay failover, degraded answers with explicit
  :attr:`~repro.serve.fallback.ModelTier.DEGRADED` provenance, and
  snapshot-handoff rebalance;
- :mod:`repro.serve.shard.chaos` — :func:`run_shard_chaos`, the
  kill-anything proof behind ``repro-tools shard chaos``;
- :mod:`repro.serve.shard.bench` — :func:`run_shard_bench` /
  :func:`run_shard_scaling` behind ``repro-tools serve-bench --shards``.

Design invariants (the chaos harness asserts all three):

1. Contention state is *fully replicated* — every worker applies every
   mutation, because K*/G*/S* features need all transfers touching an
   endpoint — while predictions are *partitioned* by the ring.
2. One journal record per broadcast mutation and nothing else journals,
   so a worker's durable ``last_seq`` is its exact position in the
   router's replication log; restart replay resumes strictly after it
   and can never double-apply.
3. The batch fix-point converges per request, so a shard predicting its
   sub-batch is bit-identical to the single-process reference predicting
   the full batch.

See ``docs/sharding.md`` for the architecture and failure-mode
walkthroughs.
"""

from __future__ import annotations

from repro.serve.shard.bench import (
    ShardBenchResult,
    run_shard_bench,
    run_shard_scaling,
)
from repro.serve.shard.chaos import (
    ShardChaosConfig,
    run_shard_chaos,
)
from repro.serve.shard.protocol import (
    ConnectionClosed,
    FrameTimeout,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.serve.shard.ring import HashRing, edge_key
from repro.serve.shard.supervisor import (
    ClusterConfig,
    ShardCluster,
    ShardState,
    shard_names,
)
from repro.serve.shard.worker import ShardWorker

__all__ = [
    "HashRing",
    "edge_key",
    "ProtocolError",
    "ConnectionClosed",
    "FrameTimeout",
    "send_frame",
    "recv_frame",
    "ShardWorker",
    "ShardCluster",
    "ClusterConfig",
    "ShardState",
    "shard_names",
    "ShardChaosConfig",
    "run_shard_chaos",
    "ShardBenchResult",
    "run_shard_bench",
    "run_shard_scaling",
]
