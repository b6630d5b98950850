"""Self-healing streaming loop: tail ingestion, drift-triggered
retraining behind circuit breakers, crash-safe supervision, and the
chaos harness that proves the failure semantics.

See ``docs/streaming.md`` for the loop architecture and the
failure-modes matrix.
"""

from repro.serve.stream.chaos import (
    StreamChaosConfig,
    run_stream_chaos,
)
from repro.serve.stream.retrain import (
    BreakerState,
    CircuitBreaker,
    RetrainController,
    RetrainPolicy,
    fit_edge_from_rows,
)
from repro.serve.stream.supervisor import (
    SimulatedCrash,
    StreamConfig,
    StreamSupervisor,
    fold_digest,
    read_stream_status,
)
from repro.serve.stream.tail import TailBatch, TailError, TailIngester

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "RetrainController",
    "RetrainPolicy",
    "SimulatedCrash",
    "StreamChaosConfig",
    "StreamConfig",
    "StreamSupervisor",
    "TailBatch",
    "TailError",
    "TailIngester",
    "fit_edge_from_rows",
    "fold_digest",
    "read_stream_status",
    "run_stream_chaos",
]
