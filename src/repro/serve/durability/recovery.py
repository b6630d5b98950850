"""Serving state: one mutation vocabulary, WAL ordering, snapshots, recovery.

:class:`ServingState` is one serving process's volatile contention
state — the :class:`~repro.serve.ActiveSet` the K*/G*/S* features are
computed from, the :class:`~repro.obs.DriftMonitor` windows, and the
:class:`~repro.obs.MetricsRegistry` totals — behind the four mutations
(``add``/``progress``/``complete``/``record_drift``) and their wire form
(:meth:`ServingState.apply`).  Journal-free, it is the reference twin
every proof harness compares against.

:class:`DurableServingState` adds a write-ahead discipline: every
mutation is framed into the journal *before* it touches memory.
Periodic snapshots bound replay time; each snapshot bumps the
generation, rotates the journal to a fresh segment, and prunes old
generations (always keeping a predecessor for checksum fallback).

:func:`recover_serving_state` is the inverse: load the newest snapshot
that verifies (falling back past corrupt generations), restore all three
components, then replay the journal suffix — records with ``seq`` beyond
the snapshot — through the exact mutation paths the live process used.
Because replay is deterministic and the journal is written before the
apply, the recovered state is equivalent to an uninterrupted process at
the last acknowledged record; anything after the tear was never
acknowledged and is the upstream's to re-send (``last_seq`` says exactly
where to resume).

Directory layout::

    state/
      snapshot-00000001.json   checksummed, atomically replaced
      wal-00000000.log         records before the first snapshot
      wal-00000001.log         records after snapshot 1, and so on
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import DriftMonitor, MetricsRegistry, Observability, span
from repro.serve.active_set import ActiveSet, view_from_dict, view_to_dict
from repro.serve.durability.journal import (
    Journal,
    TornRecord,
    unwire_float,
    wire_float,
)
from repro.serve.durability.snapshot import SnapshotStore

__all__ = [
    "DurabilityConfig",
    "ServingState",
    "DurableServingState",
    "RecoveryReport",
    "recover_serving_state",
]

_WAL_RE = re.compile(r"^wal-(\d{8})\.log$")


@dataclass(frozen=True)
class DurabilityConfig:
    """Journal/snapshot policy for one durable serving process."""

    snapshot_every: int = 0      # records between auto-snapshots; 0 = manual
    fsync: bool = False          # fsync every journal append
    keep_snapshots: int = 3      # generations retained by pruning

    def __post_init__(self) -> None:
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        if self.keep_snapshots < 2:
            raise ValueError("keep_snapshots must be >= 2")


@dataclass
class RecoveryReport:
    """What one recovery did, for logs, tests, and the CLI."""

    snapshot_generation: int = 0      # 0 = cold start, no snapshot used
    snapshot_fallbacks: int = 0       # newer generations rejected as invalid
    replayed_records: int = 0
    replay_rejected: int = 0          # replayed mutations the state refused
    truncated_bytes: int = 0          # torn journal tails cut away
    torn: list[TornRecord] = field(default_factory=list)
    last_seq: int = 0                 # resume point for the event source
    active_transfers: int = 0
    drift_observations: int = 0

    def render(self) -> str:
        source = (
            f"snapshot generation {self.snapshot_generation}"
            if self.snapshot_generation else "cold start (no snapshot)"
        )
        lines = [
            f"recovered from {source}"
            + (f" ({self.snapshot_fallbacks} newer rejected)"
               if self.snapshot_fallbacks else ""),
            f"journal records replayed  {self.replayed_records} "
            f"({self.replay_rejected} rejected by state)",
            f"torn tail truncated       {self.truncated_bytes} bytes "
            f"({len(self.torn)} tears)",
            f"resume after seq          {self.last_seq}",
            f"active transfers          {self.active_transfers}",
            f"drift observations        {self.drift_observations}",
        ]
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "snapshot_generation": self.snapshot_generation,
            "snapshot_fallbacks": self.snapshot_fallbacks,
            "replayed_records": self.replayed_records,
            "replay_rejected": self.replay_rejected,
            "truncated_bytes": self.truncated_bytes,
            "torn": [[t.offset, t.reason] for t in self.torn],
            "last_seq": self.last_seq,
            "active_transfers": self.active_transfers,
            "drift_observations": self.drift_observations,
        }


class ServingState:
    """The contention triple (ActiveSet, DriftMonitor, registry), unjournaled.

    Mutations mirror the :class:`~repro.serve.ActiveSet` API (:meth:`add`,
    :meth:`progress`, :meth:`complete`) plus :meth:`record_drift`;
    :meth:`apply` takes the same mutation in wire form, the list that
    :meth:`~repro.serve.shard.ShardCluster.apply_mutations` broadcasts::

        ["add", tid, view_dict]
        ["progress", tid, rate, expected_end]      # floats via wire_float
        ["complete", tid]
        ["drift", src, dst, tier, predicted, realized]
    """

    def __init__(
        self, obs: Observability | None = None, lenient: bool = True,
    ) -> None:
        self.obs = obs if obs is not None else Observability.create(trace=False)
        self.registry: MetricsRegistry = self.obs.registry
        self.active = ActiveSet(lenient=lenient, obs=self.obs)
        self.drift: DriftMonitor = (
            self.obs.drift if self.obs.drift is not None
            else DriftMonitor(registry=self.registry)
        )

    def add(self, transfer_id: int, view) -> None:
        self.active.add(int(transfer_id), view)

    def progress(
        self,
        transfer_id: int,
        rate: float | None = None,
        expected_end: float | None = None,
    ) -> None:
        self.active.progress(
            int(transfer_id), rate=rate, expected_end=expected_end)

    def complete(self, transfer_id: int) -> None:
        self.active.complete(int(transfer_id))

    def record_drift(
        self, src: str, dst: str, tier, predicted_rate: float,
        realized_rate: float,
    ) -> None:
        tier_name = getattr(tier, "value", None) or str(tier)
        self.drift.record(str(src), str(dst), str(tier_name),
                          float(predicted_rate), float(realized_rate))

    def apply(self, mutation: list) -> None:
        """One wire-form mutation (see the class docstring)."""
        kind = mutation[0]
        if kind == "add":
            self.add(int(mutation[1]), view_from_dict(mutation[2]))
        elif kind == "progress":
            self.progress(int(mutation[1]), rate=unwire_float(mutation[2]),
                          expected_end=unwire_float(mutation[3]))
        elif kind == "complete":
            self.complete(int(mutation[1]))
        elif kind == "drift":
            self.record_drift(mutation[1], mutation[2], mutation[3],
                              unwire_float(mutation[4]),
                              unwire_float(mutation[5]))
        else:
            raise ValueError(f"unknown mutation kind {kind!r}")

    def state_fingerprint(self) -> dict:
        """The recovery-equivalence contract in one comparable value: the
        exact active population (insertion-ordered) and the exact drift
        windows.  Two states with equal fingerprints produce identical
        predictions and identical drift gauges."""
        return {
            "active": self.active.snapshot_state(),
            "drift": self.drift.dump_state(),
        }

    def fingerprint_digest(self) -> str:
        """:meth:`state_fingerprint` as one sha256 hex digest (canonical
        JSON: sorted keys, no whitespace — both sections are already
        strict-JSON-safe because they are exactly what snapshots
        serialize)."""
        blob = json.dumps(
            self.state_fingerprint(), separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


class DurableServingState(ServingState):
    """:class:`ServingState` behind a write-ahead journal and snapshots.

    Do not construct directly — :func:`recover_serving_state` is the
    single entry point; an empty directory recovers to a cold start, so
    open and recover are the same operation.  Every mutation is journaled
    before the base class applies it.
    """

    def __init__(
        self,
        state_dir: str | Path,
        obs: Observability | None = None,
        lenient: bool = True,
        config: DurabilityConfig | None = None,
    ) -> None:
        super().__init__(obs=obs, lenient=lenient)
        self.state_dir = Path(state_dir)
        self.config = config or DurabilityConfig()
        self.snapshots = SnapshotStore(self.state_dir)
        self.generation = 0
        self.last_seq = 0
        self._snapshot_seq = 0       # last_seq at the most recent snapshot
        self._journal: Journal | None = None

        counter = self.registry.counter
        self._m_records = counter(
            "durability_journal_records_total", "Records appended to the WAL.")
        self._m_bytes = counter(
            "durability_journal_bytes_total", "Bytes appended to the WAL.")
        self._m_snapshots = counter(
            "durability_snapshots_total", "State snapshots written.")
        self._m_recoveries = counter(
            "durability_recoveries_total", "Recoveries performed.")
        self._m_replayed = counter(
            "durability_replayed_records_total",
            "Journal records replayed during recovery.")
        self._m_truncated = counter(
            "durability_truncated_bytes_total",
            "Torn journal-tail bytes truncated during recovery.")
        self._m_fallbacks = counter(
            "durability_snapshot_fallbacks_total",
            "Invalid snapshot generations skipped during recovery.")
        self._m_replay_rejected = counter(
            "durability_replay_rejected_total",
            "Replayed mutations rejected by the state (strict mode).")
        self._g_generation = self.registry.gauge(
            "durability_snapshot_generation", "Newest snapshot generation.")
        self._g_last_seq = self.registry.gauge(
            "durability_last_seq", "Newest journaled sequence number.")

    # -- journal plumbing --------------------------------------------------

    def _wal_path(self, generation: int) -> Path:
        return self.state_dir / f"wal-{generation:08d}.log"

    def _wal_generations(self) -> list[int]:
        if not self.state_dir.exists():
            return []
        out = []
        for entry in self.state_dir.iterdir():
            m = _WAL_RE.match(entry.name)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    def _open_journal(self, generation: int) -> None:
        if self._journal is not None:
            self._journal.close()
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self._journal = Journal(self._wal_path(generation),
                                fsync=self.config.fsync)
        self._journal.open_for_append()

    # -- mutations (journal first, then apply) -----------------------------

    def _next_record(self, op: str, **fields) -> dict:
        self.last_seq += 1
        self._g_last_seq.set(self.last_seq)
        record = {"seq": self.last_seq, "op": op, **fields}
        before = self._journal.path.stat().st_size \
            if self._journal.path.exists() else 0
        end = self._journal.append(record)
        self._m_records.inc()
        self._m_bytes.inc(max(end - before, 0))
        return record

    def add(self, transfer_id: int, view) -> None:
        record = self._next_record(
            "add", tid=int(transfer_id), view=view_to_dict(view))
        super().add(record["tid"], view_from_dict(record["view"]))
        self._maybe_snapshot()

    def progress(
        self,
        transfer_id: int,
        rate: float | None = None,
        expected_end: float | None = None,
    ) -> None:
        record = self._next_record(
            "progress", tid=int(transfer_id), rate=wire_float(rate),
            expected_end=wire_float(expected_end))
        super().progress(record["tid"], rate=unwire_float(record["rate"]),
                         expected_end=unwire_float(record["expected_end"]))
        self._maybe_snapshot()

    def complete(self, transfer_id: int) -> None:
        record = self._next_record("complete", tid=int(transfer_id))
        super().complete(record["tid"])
        self._maybe_snapshot()

    def record_drift(
        self, src: str, dst: str, tier, predicted_rate: float,
        realized_rate: float,
    ) -> None:
        tier_name = getattr(tier, "value", None) or str(tier)
        record = self._next_record(
            "drift",
            src=str(src), dst=str(dst), tier=str(tier_name),
            predicted=wire_float(predicted_rate),
            realized=wire_float(realized_rate),
        )
        super().record_drift(record["src"], record["dst"], record["tier"],
                             unwire_float(record["predicted"]),
                             unwire_float(record["realized"]))
        self._maybe_snapshot()

    def _replay(self, record: dict) -> None:
        """The on-disk decoder: one journal record through the base
        (unjournaled) mutations.  A record the state rejects was rejected
        identically when it was first applied — it changed nothing — so
        it is counted and skipped to keep recovery total."""
        op = record.get("op")
        try:
            if op == "add":
                super().add(record["tid"], view_from_dict(record["view"]))
            elif op == "progress":
                super().progress(
                    record["tid"],
                    rate=unwire_float(record.get("rate")),
                    expected_end=unwire_float(record.get("expected_end")),
                )
            elif op == "complete":
                super().complete(record["tid"])
            elif op == "drift":
                super().record_drift(
                    record["src"], record["dst"], record["tier"],
                    unwire_float(record["predicted"]),
                    unwire_float(record["realized"]),
                )
            else:
                raise ValueError(f"unknown journal op {op!r}")
        except (KeyError, ValueError):
            self._m_replay_rejected.inc()

    # -- snapshots ---------------------------------------------------------

    def _maybe_snapshot(self) -> None:
        every = self.config.snapshot_every
        if every and self.last_seq - self._snapshot_seq >= every:
            self.snapshot()

    def snapshot(self) -> int:
        """Persist the current state as generation ``N+1``, rotate the
        journal to a fresh segment, prune old generations.  Returns the
        new generation number."""
        with span(self.obs.tracer, "durability.snapshot"):
            generation = self.generation + 1
            self._g_generation.set(generation)
            sections = {
                "active": self.active.snapshot_state(),
                "drift": self.drift.dump_state(),
                "registry": self.registry.snapshot(),
            }
            self.snapshots.write(generation, sections, last_seq=self.last_seq)
            self.generation = generation
            self._snapshot_seq = self.last_seq
            self._m_snapshots.inc()
            self._open_journal(generation)
            self.snapshots.prune(self.config.keep_snapshots)
            # Journal segments older than the oldest kept snapshot are only
            # replayable by falling back past *every* retained snapshot, so
            # they are collected — but not before a full complement of
            # ``keep_snapshots`` generations exists, keeping even
            # corruption of the sole early snapshot fully recoverable.
            kept = self.snapshots.generations()
            if len(kept) >= self.config.keep_snapshots:
                oldest_kept = min(kept)
                for path in sorted(self.state_dir.glob("wal-*.log")):
                    try:
                        segment = int(path.stem.split("-")[1])
                    except (IndexError, ValueError):
                        continue
                    if segment < oldest_kept:
                        path.unlink(missing_ok=True)
            return generation

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def __enter__(self) -> "DurableServingState":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def recover_serving_state(
    state_dir: str | Path,
    obs: Observability | None = None,
    lenient: bool = True,
    config: DurabilityConfig | None = None,
) -> tuple[DurableServingState, RecoveryReport]:
    """Reconstruct a serving process's state from its durability directory.

    Sequence: newest *valid* snapshot (checksum fallback past corrupt
    generations) -> restore registry totals, active population, and drift
    windows -> replay every journal record with ``seq`` beyond the
    snapshot, in segment order, truncating torn tails -> reopen the
    newest segment for appending.  An empty or missing directory is a
    cold start: the returned state is empty with ``last_seq == 0``.

    Returns ``(state, report)``; ``report.last_seq`` tells the event
    source where to resume feeding (records after it were never
    acknowledged and must be re-sent).
    """
    state = DurableServingState(
        state_dir, obs=obs, lenient=lenient, config=config)
    report = RecoveryReport()
    with span(state.obs.tracer, "durability.recover"):
        loaded = state.snapshots.load_latest()
        start_generation = 0
        if loaded is not None:
            report.snapshot_generation = loaded.generation
            report.snapshot_fallbacks = len(loaded.rejected)
            state._m_fallbacks.inc(len(loaded.rejected))
            payload = loaded.payload
            state.registry.load_snapshot(payload.get("registry", {}))
            state.active.load_snapshot(payload.get("active", {}))
            state.drift.load_snapshot(payload.get("drift", {}))
            state.last_seq = loaded.last_seq
            state._snapshot_seq = loaded.last_seq
            start_generation = loaded.generation
            state.generation = max(state.snapshots.generations() or [0])
        state._g_generation.set(state.generation)

        rejected_before = state._m_replay_rejected.value
        segments = [g for g in state._wal_generations()
                    if g >= start_generation]
        for segment in segments:
            scan = Journal.scan_file(state._wal_path(segment))
            if scan.torn is not None:
                report.torn.append(scan.torn)
                report.truncated_bytes += scan.truncated_bytes
            for record in scan.records:
                seq = int(record.get("seq", 0))
                if seq <= state.last_seq:
                    continue  # already in the snapshot (or a duplicate)
                state._replay(record)
                state.last_seq = seq
                report.replayed_records += 1
        state._m_truncated.inc(report.truncated_bytes)
        state._m_replayed.inc(report.replayed_records)
        report.replay_rejected = int(
            state._m_replay_rejected.value - rejected_before)
        state._m_recoveries.inc()

        # New snapshots must not collide with generations recovery skipped
        # as corrupt, so both the generation counter and the append segment
        # continue from the newest thing on disk.
        state.generation = max([state.generation] + segments)
        state._open_journal(state.generation)
        state._g_last_seq.set(state.last_seq)
        report.last_seq = state.last_seq
        report.active_transfers = len(state.active)
        report.drift_observations = state.drift.observations
        if state.obs.events is not None:
            degraded = bool(report.snapshot_fallbacks or report.torn
                            or report.replay_rejected)
            state.obs.events.emit(
                "durability", "recovered",
                severity="warning" if degraded else "info",
                **report.as_dict(),
            )
        return state, report
