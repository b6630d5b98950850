"""Durable serving state: write-ahead journal, snapshots, crash recovery.

The paper's online setting (§4.1, §5.5) assumes the predictor always
knows the current overlapping-transfer population — the state the
K*/G*/S* contention features (Eq. 2, Table 2) are computed from.  In a
long-lived serving process that state lives in memory; this package makes
it survive the process:

- :mod:`~repro.serve.durability.journal` — append-only WAL of ActiveSet
  mutations and drift observations, per-record CRC-32 + length framing,
  torn-tail detection and truncation;
- :mod:`~repro.serve.durability.snapshot` — generation-numbered,
  checksummed, atomically replaced state snapshots with fallback past
  corrupt generations;
- :mod:`~repro.serve.durability.recovery` — :class:`ServingState` (the
  journal-free contention state and its one mutation vocabulary),
  :class:`DurableServingState` (journal-before-apply mutations) and
  :func:`recover_serving_state` (snapshot + journal-suffix replay,
  provably equivalent to an uninterrupted run);
- :mod:`~repro.serve.durability.artifacts` — checksummed,
  version-pinned model artifacts with probe-gated hot reload and
  automatic rollback (:class:`ModelReloader`).

``repro-tools state snapshot|recover|verify`` exposes the layer
operationally; ``docs/durability.md`` documents file formats, the
recovery algorithm, and the failure matrix.
"""

from repro.serve.durability.artifacts import (
    LoadedArtifact,
    ModelArtifactStore,
    ModelReloader,
    ReloadResult,
)
from repro.serve.durability.journal import Journal, JournalScan, TornRecord
from repro.serve.durability.recovery import (
    DurabilityConfig,
    DurableServingState,
    RecoveryReport,
    ServingState,
    recover_serving_state,
)
from repro.serve.durability.snapshot import LoadedSnapshot, SnapshotStore

__all__ = [
    "Journal",
    "JournalScan",
    "TornRecord",
    "SnapshotStore",
    "LoadedSnapshot",
    "DurabilityConfig",
    "ServingState",
    "DurableServingState",
    "RecoveryReport",
    "recover_serving_state",
    "ModelArtifactStore",
    "ModelReloader",
    "LoadedArtifact",
    "ReloadResult",
]
