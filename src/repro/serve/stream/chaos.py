"""Fault injection for the streaming loop: :func:`run_stream_chaos`.

Two sub-scenarios, each a self-contained proof:

**A — crash / corruption (exactly-once + breaker + never-unseat).**
A completion-ordered JSONL log is appended in phases, with every Nth
line corrupted and one phase boundary landing mid-line (a half-written
trailing record).  Between phases the supervisor is repeatedly started,
killed at scripted stages (after poll, after apply, after retrain, after
checkpoint — via :class:`~repro.serve.stream.supervisor.SimulatedCrash`),
and restarted against the same state directory.  Meanwhile one edge's
fit function always raises (the poisoned edge) and one edge's published
artifacts are always corrupted between publish and reload (the corrupt
edge).  The final incarnation drains everything, and the verdict checks:

- *offset-exact, exactly-once ingestion*: the running SHA-256 digest of
  applied records equals the digest of the file's kept rows in order,
  and the applied count equals the kept count — no record lost, none
  applied twice, across every crash;
- *circuit opens*: the poisoned edge's breaker is OPEN after its
  consecutive failures, the edge is no longer scheduled, and a
  prediction on it still returns a finite rate through a non-edge
  fallback tier (provenance preserved);
- *never unseated*: the corrupt edge's live chain entry is the exact
  object it started with, while ``durability_rollback_total`` counts
  the refused artifacts;
- *alert determinism (exactly-once alerting)*: a second, uninterrupted
  supervisor follows the same phased appends in its own directories; the
  crash-resumed run's SLO alert ledger (alert seq, objective, state,
  data time) must equal the reference run's exactly, the checkpointed
  SLI sample windows must match, every event seq in the crash run's
  JSONL sink must be unique (recovery truncated re-emitted tails), and
  the sink's ``slo/alert`` events must mirror the engine ledger one for
  one — alerts are neither lost nor duplicated by crashes.

**B — truncation / rotation (reset-exact re-ingestion).**  A fresh
state directory; the file is truncated-and-rewritten, then rotated
(replaced at same-or-larger size with different content).  The tail must
reset to offset 0 both times (``stream_tail_resets_total`` by reason)
and the applied digest must equal the concatenation of all three
contents' kept rows.

``repro-tools stream chaos [--quick]`` runs both and exits non-zero
unless every check of the :class:`~repro.serve.chaos.Verdict` passes.
"""

from __future__ import annotations

import dataclasses
import math
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from repro.logs.io import read_jsonl
from repro.logs.store import LogStore
from repro.obs import Observability
from repro.obs.events import EventLog, read_events
from repro.obs.slo import SLO, SLOEngine
from repro.serve.bench import make_synthetic_model
from repro.serve.chaos import (
    ChaosConfig,
    Verdict,
    flip_middle_byte,
    make_chaos_log,
    write_corrupt_jsonl,
)
from repro.serve.fallback import FallbackChain, ModelTier
from repro.serve.stream.retrain import RetrainController, RetrainPolicy
from repro.serve.stream.supervisor import (
    SimulatedCrash,
    StreamConfig,
    StreamSupervisor,
    fold_digest,
)
from repro.serve.stream.tail import TailIngester
from repro.sim.gridftp import TransferRequest

__all__ = ["StreamChaosConfig", "run_stream_chaos"]


@dataclass(frozen=True)
class StreamChaosConfig:
    n_transfers: int = 240
    n_endpoints: int = 8
    seed: int = 0
    corrupt_every: int = 9
    phases: int = 4
    # One scripted kill per non-final phase, cycling through these stages.
    crash_stages: tuple[str, ...] = (
        "applied", "polled", "retrained", "checkpointed")
    max_apply_per_cycle: int = 48
    cycles_per_incarnation: int = 24

    def __post_init__(self) -> None:
        if self.phases < 2:
            raise ValueError("need >= 2 phases (the partial line spans one)")
        if self.n_transfers < 40 or self.n_endpoints < 4:
            raise ValueError("need >= 40 transfers over >= 4 endpoints")

    @classmethod
    def quick(cls, seed: int = 0) -> "StreamChaosConfig":
        return cls(n_transfers=120, n_endpoints=6, phases=3, seed=seed)


def _chaos_fit(task, poisoned=(), seed=0):
    """Scenario fit function: instant synthetic fit, except the poisoned
    edges which always crash — the stand-in for a worker dying or a fit
    diverging on garbage rows.  Top level so it pickles."""
    src, dst, _rows = task
    if (src, dst) in tuple(tuple(e) for e in poisoned):
        raise RuntimeError(f"poisoned refit for {src}->{dst}")
    return dataclasses.replace(make_synthetic_model(seed), src=src, dst=dst)


def _completion_ordered(log: LogStore) -> LogStore:
    data = log.raw()
    return LogStore(np.sort(data, order="te", kind="stable")
                    if len(data) else data)


def _policy() -> RetrainPolicy:
    return RetrainPolicy(
        mdape_threshold=5.0,
        p95_threshold=20.0,
        min_samples=3,
        hysteresis=0.5,
        # The data clock stalls between phases, so any positive cooldown
        # would cap the poisoned edge at one refit attempt per phase.
        cooldown_s=0.0,
        fit_timeout_s=30.0,
        breaker_failures=2,
        breaker_cooldown_s=1e12,   # no half-open probes inside the run
        workers=1,
        buffer_rows=256,
        min_fit_rows=4,
        probe_rows=4,
        keep_artifacts=2,
    )


def _chaos_slos() -> list:
    """The two SLOs whose SLIs are pure functions of checkpointed state
    (tail quarantine totals; data-time checkpoint staleness), so the
    crash-resumed ledger can be compared bit-for-bit against the
    uninterrupted reference.  Windows are effectively unbounded and
    ``min_samples=2`` because the chaos log's data-time span is
    arbitrary; the quarantine target sits far below the injected ~1/9
    corruption rate (must fire), the staleness target far above anything
    reachable (must stay quiet)."""
    shared = dict(fast_window_s=1e12, slow_window_s=1e13, min_samples=2)
    return [
        SLO("stream_quarantine_rate",
            "Cumulative quarantine rate of the tailed log.",
            target=0.02, mode="max", **shared),
        SLO("stream_checkpoint_staleness",
            "Data time elapsed since the last checkpoint (seconds).",
            target=1e15, mode="max", severity="critical", **shared),
    ]


def run_stream_chaos(
    config: StreamChaosConfig | None = None,
    work_dir: str | Path | None = None,
    obs: Observability | None = None,
) -> Verdict:
    cfg = config or StreamChaosConfig()
    verdict = Verdict()
    cleanup = None
    if work_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-stream-chaos-")
        work_dir = cleanup.name
    work_dir = Path(work_dir)
    try:
        _scenario_crashes(cfg, work_dir / "a", verdict,
                          obs or Observability.create(trace=False))
        _scenario_resets(cfg, work_dir / "b", verdict)
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    facts = verdict.facts
    verdict.title = (f"stream chaos: {facts.get('incarnations', 0)} "
                     f"incarnations, {facts.get('crashes_injected', 0)} "
                     f"injected crashes")
    return verdict


# -- scenario A: crashes, poison, artifact corruption -------------------------


def _build_supervisor(cfg: StreamChaosConfig, home: Path, obs: Observability,
                      kept: LogStore, poisoned_edge: tuple, corrupt_edge: tuple,
                      base_model, publishes: list | None = None,
                      crash_hook=None) -> StreamSupervisor:
    """One scenario-A supervisor over ``home``'s live file, state and
    artifacts: the poisoned edge's refits always raise, every artifact the
    corrupt edge publishes gets a flipped byte (appended to ``publishes``
    when given), and ``base_model`` seeds the corrupt edge's live entry.
    The crash-run incarnations and the uninterrupted reference are all
    built here, so they differ only in their directory and ``crash_hook``."""
    def publish_hook(edge, generation, path):
        if tuple(edge) == corrupt_edge:
            if publishes is not None:
                publishes.append(generation)
            flip_middle_byte(path)

    controller = RetrainController(
        FallbackChain.from_log(kept, edge_models={corrupt_edge: base_model}),
        obs.drift, home / "artifacts", policy=_policy(),
        fit_fn=partial(_chaos_fit, poisoned=(poisoned_edge,), seed=cfg.seed),
        registry=obs.registry, tracer=obs.tracer, seed=cfg.seed,
        publish_hook=publish_hook,
    )
    return StreamSupervisor(
        TailIngester(home / "transfers.jsonl", fmt="jsonl",
                     registry=obs.registry, seed=cfg.seed),
        controller, home / "state", obs=obs,
        config=StreamConfig(
            poll_interval_s=0.0,
            max_backlog_records=4 * cfg.max_apply_per_cycle,
            max_apply_per_cycle=cfg.max_apply_per_cycle,
            checkpoint_every=1,
        ),
        sleep=lambda _s: None,
        crash_hook=crash_hook,
    )


def _crash_at(stage: str):
    def hook(s):
        if s == stage:
            raise SimulatedCrash(f"injected at {s}")
    return hook


def _scenario_crashes(cfg: StreamChaosConfig, root: Path,
                      verdict: Verdict, obs: Observability) -> None:
    facts = verdict.facts
    root.mkdir(parents=True, exist_ok=True)
    # The uninterrupted reference lives in its own directories under
    # ``ref``, following the exact same phased appends, never crashed,
    # never rebuilt.  Its alert ledger is what the crash-resumed run must
    # reproduce bit for bit.
    ref_root = root / "ref"
    ref_root.mkdir(parents=True, exist_ok=True)
    ref_obs = Observability.create(trace=False)

    # The full corrupt file, pre-rendered so the reference is computable
    # up front; it reaches the live files in phased appends below.
    log = _completion_ordered(make_chaos_log(ChaosConfig(
        n_transfers=cfg.n_transfers, n_endpoints=cfg.n_endpoints,
        seed=cfg.seed)))
    full = root / "full.jsonl"
    write_corrupt_jsonl(log, full, every=cfg.corrupt_every)
    all_lines = full.read_text().splitlines(keepends=True)

    kept, quarantine = read_jsonl(full, strict=False)
    edges = kept.heavy_edges(1)
    if not verdict.check("chaos log has a poisoned and a corrupt edge",
                         len(edges) >= 2, f"{len(edges)} heavy edges"):
        return
    poisoned_edge = tuple(edges[0])
    corrupt_edge = tuple(edges[1])
    facts.update(incarnations=0, crashes_injected=0,
                 poisoned_edge=f"{poisoned_edge[0]}->{poisoned_edge[1]}",
                 corrupt_edge=f"{corrupt_edge[0]}->{corrupt_edge[1]}")

    def model():
        return dataclasses.replace(make_synthetic_model(cfg.seed),
                                   src=corrupt_edge[0], dst=corrupt_edge[1])

    # Each run's diagnosis layer: a durable JSONL sink (its seqs are
    # checkpointed, so recovery must truncate and re-emit) plus the
    # alert-deterministic SLO engine.
    for bundle, home in ((obs, root), (ref_obs, ref_root)):
        bundle.events = EventLog(path=home / "events.jsonl",
                                 registry=bundle.registry)
        bundle.slo = SLOEngine(_chaos_slos(), registry=bundle.registry,
                               events=bundle.events)

    base_model = model()
    publishes: list[int] = []
    build = partial(_build_supervisor, cfg, root, obs, kept, poisoned_edge,
                    corrupt_edge, base_model, publishes)
    ref = _build_supervisor(cfg, ref_root, ref_obs, kept, poisoned_edge,
                            corrupt_edge, model())

    lives = (root / "transfers.jsonl", ref_root / "transfers.jsonl")
    for live in lives:
        live.write_text("")
    phase_chunks = np.array_split(np.arange(len(all_lines)), cfg.phases)
    carry = ""
    for phase, chunk in enumerate(phase_chunks):
        text = carry + "".join(all_lines[i] for i in chunk)
        carry = ""
        if phase < cfg.phases - 1 and len(chunk) and len(text) > 8:
            # Leave the last half-line dangling: the next phase finishes
            # it, and the tail must not consume it early.
            cut = max(1, len(all_lines[chunk[-1]]) // 2)
            carry, text = text[-cut:], text[:-cut]
        for live in lives:
            with live.open("a") as fh:
                fh.write(text)

        if phase < cfg.phases - 1:
            stage = cfg.crash_stages[phase % len(cfg.crash_stages)]
            victim = build(crash_hook=_crash_at(stage))
            facts["incarnations"] += 1
            crashed = False
            try:
                victim.run(max_cycles=cfg.cycles_per_incarnation)
            except SimulatedCrash:
                crashed = True
                facts["crashes_injected"] += 1
            verdict.check(f"phase {phase}: crash injected at {stage!r}",
                          crashed)
        final = build()
        facts["incarnations"] += 1
        final.run(max_cycles=cfg.cycles_per_incarnation)
        ref.run(max_cycles=cfg.cycles_per_incarnation)

    # Exactly-once ingestion across every crash.
    reference_digest = fold_digest("", kept.raw())
    quarantined = final.tail.report.total_rows - final.tail.report.kept_rows
    facts.update(
        reference_records=len(kept),
        applied_records=final.applied_records,
        reference_digest=reference_digest,
        applied_digest=final.applied_digest,
        quarantined_rows=quarantined,
    )
    digest_match = final.applied_digest == reference_digest
    verdict.check(
        "exactly-once ingestion",
        final.applied_records == len(kept) and len(kept) > 0 and digest_match,
        f"applied {final.applied_records} / reference {len(kept)}, "
        f"digest {'match' if digest_match else 'MISMATCH'}, "
        f"{quarantined} quarantined")
    batch_quarantined = quarantine.total_rows - quarantine.kept_rows
    verdict.check(
        "quarantine matches batch ingest", quarantined == batch_quarantined,
        f"tail {quarantined}, batch {batch_quarantined}")

    # Breaker verdicts, from the surviving incarnation's restored state.
    breaker = final.controller.breaker(poisoned_edge)
    still_scheduled = (
        poisoned_edge in final.controller.due(final.data_now + 1e6))
    facts.update(
        breaker_state=breaker.state.name,
        breaker_opens=breaker.opens,
        poisoned_refit_failures=breaker.failures,
        poisoned_still_scheduled=still_scheduled,
    )
    verdict.check(
        "circuit breaker",
        breaker.state.name == "OPEN" and breaker.opens >= 1
        and not still_scheduled,
        f"{facts['poisoned_edge']}: {breaker.state.name}, "
        f"{breaker.opens} opens, {breaker.failures} consecutive failures")

    request = TransferRequest(
        src=poisoned_edge[0], dst=poisoned_edge[1],
        total_bytes=1e10, n_files=100, n_dirs=5,
        concurrency=2, parallelism=4,
    )
    rate, tier, raised = math.nan, "", ""
    try:
        prediction = final.predictor.predict_batch_detailed(
            [request], final.data_now)
        rate = float(prediction.rates[0])
        tier = prediction.tiers[0].value
    except Exception as exc:  # noqa: BLE001 - serving must not raise
        raised = f", raised {exc!r}"
    facts.update(poisoned_tier=tier, poisoned_rate=rate)
    verdict.check(
        "fallback serving",
        math.isfinite(rate) and rate > 0
        and tier not in ("", ModelTier.EDGE.value),
        f"tier={tier or '?'}, rate={rate:.4g} B/s{raised}")

    # Never-unseat: the corrupt edge's live entry is the construction-time
    # object, every one of its publishes was refused at the probe gate.
    rollbacks = int(obs.registry.flat().get("durability_rollback_total", 0))
    preserved = (
        final.controller.chain.edge_models.get(corrupt_edge) is base_model)
    facts.update(rollbacks=rollbacks,
                 corrupt_artifacts_published=len(publishes),
                 live_model_preserved=preserved)
    verdict.check(
        "live model never unseated",
        preserved and rollbacks >= 1 and len(publishes) >= 1,
        f"{facts['corrupt_edge']}: {rollbacks} rollbacks over "
        f"{len(publishes)} corrupted artifacts")

    # Alert determinism: the crash-resumed engine ledger vs the
    # uninterrupted reference's, exactly.  Global event seqs differ (the
    # crash run interleaves durability/stream_recovered events), which is
    # precisely why the engine keeps its own checkpointed alert_seq.
    def ledger(engine):
        return [
            (e["alert_seq"], e["slo"], e["state"], e["t"])
            for e in engine.alert_log
        ]

    crash_ledger = ledger(final.slo)
    ref_ledger = ledger(ref.slo)
    fired = sum(1 for e in final.slo.alert_log if e["state"] == "firing")
    samples_match = (
        final.slo.state_dict()["samples"] == ref.slo.state_dict()["samples"])
    # The sink half of the proof: seqs strictly increasing (recovery
    # truncated every superseded tail) and the slo/alert events mirroring
    # the engine ledger one for one.
    sink = list(read_events(root / "events.jsonl"))
    seqs = [e.seq for e in sink]
    seqs_unique = bool(seqs) and all(b > a for a, b in zip(seqs, seqs[1:]))
    sink_alerts = [
        (e.attrs.get("alert_seq"), e.attrs.get("slo"),
         e.attrs.get("state"), e.attrs.get("t"))
        for e in sink if e.category == "slo" and e.name == "alert"
    ]
    facts.update(
        alert_transitions=len(crash_ledger),
        reference_alert_transitions=len(ref_ledger),
        alerts_fired=fired,
        alerts_match=crash_ledger == ref_ledger,
        slo_samples_match=samples_match,
        event_seqs_unique=seqs_unique,
        alert_events_durable=sink_alerts == crash_ledger,
    )
    detail = (
        f"{len(crash_ledger)} transitions vs reference {len(ref_ledger)}, "
        f"{fired} fired; samples {'match' if samples_match else 'MISMATCH'}, "
        f"seqs {'unique' if seqs_unique else 'DUPLICATED'}, sink "
        f"{'durable' if sink_alerts == crash_ledger else 'DIVERGED'}")
    if crash_ledger != ref_ledger:
        detail += f"; crash {crash_ledger} vs reference {ref_ledger}"
    if sink_alerts != crash_ledger:
        detail += f"; sink {sink_alerts} vs engine {crash_ledger}"
    verdict.check(
        "alert determinism",
        crash_ledger == ref_ledger and fired >= 1 and samples_match
        and seqs_unique and sink_alerts == crash_ledger,
        detail)


# -- scenario B: truncation and rotation --------------------------------------


def _scenario_resets(cfg: StreamChaosConfig, root: Path,
                     verdict: Verdict) -> None:
    root.mkdir(parents=True, exist_ok=True)
    live = root / "transfers.jsonl"
    state_dir = root / "state"
    obs = Observability.create(trace=False)

    def content(seed: int, n: int) -> tuple[str, LogStore]:
        log = _completion_ordered(make_chaos_log(ChaosConfig(
            n_transfers=n, n_endpoints=cfg.n_endpoints, seed=seed)))
        path = root / f"content-{seed}.jsonl"
        write_corrupt_jsonl(log, path, every=cfg.corrupt_every)
        kept, _ = read_jsonl(path, strict=False)
        return path.read_text(), kept

    n = max(24, cfg.n_transfers // 5)
    text_a, kept_a = content(cfg.seed + 11, n)
    text_b, kept_b = content(cfg.seed + 13, max(12, n // 2))  # shorter
    text_c, kept_c = content(cfg.seed + 17, n)
    if not verdict.check("rotation content no shorter than its predecessor",
                         len(text_c) >= len(text_b)):
        return

    digest = fold_digest("", kept_a.raw())
    digest = fold_digest(digest, kept_b.raw())
    digest = fold_digest(digest, kept_c.raw())
    reference_records = len(kept_a) + len(kept_b) + len(kept_c)

    chain = FallbackChain.from_log(kept_a)
    tail = TailIngester(live, fmt="jsonl", registry=obs.registry,
                        seed=cfg.seed)
    controller = RetrainController(
        chain, obs.drift, root / "artifacts", policy=_policy(),
        fit_fn=partial(_chaos_fit, seed=cfg.seed), registry=obs.registry)
    supervisor = StreamSupervisor(
        tail, controller, state_dir, obs=obs,
        config=StreamConfig(
            poll_interval_s=0.0,
            max_backlog_records=4096,
            max_apply_per_cycle=cfg.max_apply_per_cycle,
            checkpoint_every=1,
        ),
        sleep=lambda _s: None,
    )

    live.write_text(text_a)
    supervisor.run(max_cycles=cfg.cycles_per_incarnation)
    # Truncation: the file shrinks below the committed offset.
    live.write_text(text_b)
    verdict.check("truncation shrank the file below the offset",
                  live.stat().st_size < tail.offset)
    supervisor.run(max_cycles=cfg.cycles_per_incarnation)
    # Rotation: same-or-larger size, different leading bytes.
    live.write_text(text_c)
    supervisor.run(max_cycles=cfg.cycles_per_incarnation)

    flat = obs.registry.flat()
    truncations = int(
        flat.get('stream_tail_resets_total{reason="truncated"}', 0))
    rotations = int(flat.get('stream_tail_resets_total{reason="rotated"}', 0))
    applied = supervisor.applied_records
    digest_equal = supervisor.applied_digest == digest
    verdict.facts.update(
        truncation_resets=truncations,
        rotation_resets=rotations,
        reset_reference_records=reference_records,
        reset_applied_records=applied,
        reset_digest_equal=digest_equal,
    )
    verdict.check(
        "truncation/rotation",
        truncations >= 1 and rotations >= 1
        and applied == reference_records and digest_equal,
        f"{truncations} truncations, {rotations} rotations, applied "
        f"{applied} / {reference_records}, "
        f"digest {'match' if digest_equal else 'MISMATCH'}")
