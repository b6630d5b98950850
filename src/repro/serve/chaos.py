"""The proof harnesses' shared parts, and the two serving proofs.

§4.3 of the paper is devoted to log imperfections and §5.3 shows faults
are load-coupled — a serving layer fed by real Globus telemetry will see
duplicated events, impossible values, and completions that never arrive.
Every chaos proof in this repo (``repro-tools chaos``, ``state verify``,
``stream chaos``, ``shard chaos``) is built from the same three parts:

- :func:`make_mutation_stream` — one seeded fault menu over a transfer
  log, as ``(data_time, wire_mutation)`` pairs in the wire form
  :meth:`~repro.serve.durability.ServingState.apply` and
  :meth:`~repro.serve.shard.ShardCluster.apply_mutations` take:
  duplicate ``add``/``complete`` events and completions for ids that
  were never started (at-least-once delivery), progress reports carrying
  NaN, negative or infinite rates, transfers whose completion never
  arrives, and a ``drift`` observation scoring each completion;
- :class:`~repro.serve.durability.ServingState` — the journal-free
  reference twin a crashed, recovered or sharded process must equal;
- :class:`Verdict` — named pass/fail checks plus the facts behind them,
  one ``render`` and one ``ok`` for every harness.

This module holds the two single-process proofs.
:func:`run_chaos_replay` feeds the stream through the live serving stack
(:class:`~repro.serve.durability.ServingState` +
:class:`~repro.serve.batch.BatchOnlinePredictor` over a
:class:`~repro.serve.fallback.FallbackChain`) with clock-skewed prediction
batches mixing modeled, known and ghost edges, and checks that every
prediction is finite and positive and that the active population equals
the stream's ground truth.  :func:`run_crash_replay` kills a journaled
process mid-stream, tears its journal, recovers, and checks the result is
bit-identical to the uninterrupted twin.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.analytical import estimate_endpoint_maxima
from repro.core.online import ActiveTransferView
from repro.core.pipeline import GlobalFeatureAdapter
from repro.logs.io import QuarantineReport, read_jsonl
from repro.logs.schema import LOG_DTYPE, TransferLogRecord
from repro.logs.store import LogStore
from repro.obs import Observability
from repro.serve.active_set import view_to_dict
from repro.serve.batch import BatchOnlinePredictor
from repro.serve.bench import (
    make_synthetic_global_model,
    make_synthetic_model,
    make_synthetic_requests,
)
from repro.serve.durability import (
    DurabilityConfig,
    ServingState,
    recover_serving_state,
)
from repro.serve.durability.journal import wire_float
from repro.serve.fallback import FallbackChain
from repro.sim.gridftp import TransferRequest

__all__ = [
    "Verdict",
    "ChaosConfig",
    "MutationStream",
    "ObservedReplay",
    "flip_middle_byte",
    "make_chaos_log",
    "make_chaos_chain",
    "make_mutation_stream",
    "run_chaos_replay",
    "run_crash_replay",
    "write_corrupt_jsonl",
    "run_observed_replay",
]


@dataclass
class Verdict:
    """One proof run's outcome: named checks, each pass/fail with a
    detail string, plus the facts (counts, digests, sub-reports) behind
    them.  ``ok`` means at least one check ran and every check passed —
    a proof that checked nothing proves nothing."""

    title: str = ""
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    def passed(self, name: str) -> bool:
        """Whether check ``name`` ran and every run of it passed."""
        runs = [ok for n, ok, _ in self.checks if n == name]
        return bool(runs) and all(runs)

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [c for c in self.checks if not c[1]]

    def as_dict(self) -> dict:
        return {"ok": self.ok, **self.facts,
                "checks": [list(c) for c in self.checks]}

    def render(self) -> str:
        """Title, the ``verdict`` line, one line per check, then every
        scalar fact (dict facts as an indented block of their scalars)."""
        lines = [self.title] if self.title else []
        lines.append(f"{'verdict':<25} {'OK' if self.ok else 'FAILED'}")
        for name, ok, detail in self.checks:
            lines.append(f"{name:<25} {'OK' if ok else 'FAILED'}"
                         + (f"  ({detail})" if detail else ""))
        for key, value in self.facts.items():
            label = key.replace("_", " ")
            if isinstance(value, dict):
                items = [(k, v) for k, v in value.items()
                         if not isinstance(v, (dict, list))]
                if items:
                    lines.append(f"{label}:")
                    lines.extend(f"  {k:<23} {v}" for k, v in items)
            elif not isinstance(value, list):
                lines.append(f"{label:<25} {value}")
        return "\n".join(lines)


def flip_middle_byte(path: str | Path) -> None:
    """Corrupt a file the way a bad sector would: invert its middle byte
    (checksums must catch it; an empty file is left alone)."""
    path = Path(path)
    blob = bytearray(path.read_bytes())
    if blob:
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))


@dataclass(frozen=True)
class ChaosConfig:
    """Replay size, fault-injection probabilities, and engine mode."""

    n_transfers: int = 400
    n_endpoints: int = 12
    horizon_s: float = 4000.0
    seed: int = 0
    # Fault-injection probabilities, each applied per opportunity.
    p_duplicate_add: float = 0.05
    p_duplicate_complete: float = 0.10
    p_unknown_complete: float = 0.10
    p_never_complete: float = 0.05
    p_bad_progress: float = 0.10
    p_good_progress: float = 0.15
    clock_skew_s: float = 120.0
    # Prediction cadence.
    predict_every: int = 25
    batch_size: int = 8
    n_edge_models: int = 3
    # Drop the global tier so known-but-unmodeled edges exercise the
    # analytical Eq. 1 bound instead (the global model otherwise covers
    # every endpoint the analytical tier could).
    use_global_model: bool = True
    # Engine mode: lenient ActiveSet absorbs faults silently (counted in
    # stats); strict raises, and the harness counts the rejections instead.
    lenient: bool = True

    def __post_init__(self) -> None:
        if self.n_transfers < 1 or self.n_endpoints < 4:
            raise ValueError("need >= 1 transfer and >= 4 endpoints")
        for name in (
            "p_duplicate_add", "p_duplicate_complete", "p_unknown_complete",
            "p_never_complete", "p_bad_progress", "p_good_progress",
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.predict_every < 1 or self.batch_size < 1:
            raise ValueError("predict_every and batch_size must be >= 1")

    @classmethod
    def quick(cls, seed: int = 0) -> "ChaosConfig":
        """A seconds-scale configuration for CI smoke runs."""
        return cls(n_transfers=120, n_endpoints=8, horizon_s=1500.0,
                   seed=seed, predict_every=15, batch_size=6)


def make_chaos_log(config: ChaosConfig) -> LogStore:
    """A reproducible synthetic completed-transfer log to replay."""
    rng = np.random.default_rng(config.seed)
    eps = [f"EP{i:03d}" for i in range(config.n_endpoints)]
    records = []
    for i in range(config.n_transfers):
        s, d = rng.choice(len(eps), size=2, replace=False)
        ts = float(rng.uniform(0.0, config.horizon_s * 0.75))
        te = ts + float(rng.uniform(10.0, config.horizon_s * 0.25))
        records.append(
            TransferLogRecord(
                transfer_id=i,
                src=eps[s],
                dst=eps[d],
                src_site=f"SITE{s}",
                dst_site=f"SITE{d}",
                src_type="GCS",
                dst_type="GCS",
                ts=ts,
                te=te,
                nb=float(rng.uniform(1e8, 1e12)),
                nf=int(rng.integers(1, 2000)),
                nd=int(rng.integers(1, 40)),
                c=int(rng.choice([1, 2, 4, 8])),
                p=int(rng.choice([1, 4, 8])),
                nflt=int(rng.integers(0, 4)),
                distance_km=float(rng.uniform(50.0, 9000.0)),
            )
        )
    return LogStore.from_records(records)


def make_chaos_chain(log: LogStore, config: ChaosConfig) -> FallbackChain:
    """A full five-tier chain over the replay log: synthetic per-edge
    models for the busiest edges, a synthetic global model fed by
    log-estimated endpoint capabilities, and log-derived analytical
    bounds and medians."""
    base = make_synthetic_model(config.seed)
    edges = log.heavy_edges(1)[: config.n_edge_models]
    edge_models = {
        (s, d): dataclasses.replace(base, src=s, dst=d) for s, d in edges
    }
    maxima = estimate_endpoint_maxima(log) if len(log) else {}
    return FallbackChain.from_log(
        log,
        edge_models=edge_models,
        global_model=(
            make_synthetic_global_model(config.seed)
            if config.use_global_model
            else None
        ),
        global_adapter=GlobalFeatureAdapter.from_endpoint_maxima(maxima),
    )


def _view_from_row(row) -> ActiveTransferView:
    return ActiveTransferView(
        src=str(row["src"]),
        dst=str(row["dst"]),
        rate=float(row["nb"]) / (float(row["te"]) - float(row["ts"])),
        started_at=float(row["ts"]),
        expected_end=float(row["te"]),
        concurrency=int(row["c"]),
        parallelism=int(row["p"]),
        n_files=int(row["nf"]),
    )


def _make_batch(
    rng: np.random.Generator,
    config: ChaosConfig,
    chain: FallbackChain,
    log_endpoints: list[str],
) -> list[TransferRequest]:
    """A prediction batch deliberately spanning the tiers: modeled edges,
    known-but-unmodeled edges, half-known edges, and ghost edges."""
    modeled = sorted(chain.edge_models)
    requests = []
    for _ in range(config.batch_size):
        kind = rng.choice(4)
        if kind == 0 and modeled:
            src, dst = modeled[int(rng.integers(len(modeled)))]
        elif kind == 1:
            src, dst = rng.choice(log_endpoints, size=2, replace=False)
        elif kind == 2:
            src = str(rng.choice(log_endpoints))
            dst = f"GHOST-{int(rng.integers(100))}"
        else:
            src = f"GHOST-{int(rng.integers(100))}"
            dst = f"GHOST-{int(rng.integers(100, 200))}"
        requests.append(
            TransferRequest(
                src=str(src),
                dst=str(dst),
                total_bytes=float(rng.uniform(1e8, 1e12)),
                n_files=int(rng.integers(1, 1000)),
                n_dirs=int(rng.integers(1, 20)),
                concurrency=int(rng.choice([2, 4])),
                parallelism=int(rng.choice([4, 8])),
            )
        )
    return requests


@dataclass
class MutationStream:
    """A seeded fault-menu mutation stream: ``(data_time, wire_mutation)``
    pairs in event order, and how many faults of each kind it injected."""

    mutations: list[tuple[float, list]] = field(default_factory=list)
    injected: dict[str, int] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.mutations)

    def __len__(self) -> int:
        return len(self.mutations)


_DRIFT_TIERS = ("edge", "global", "analytical", "median", "default")


def make_mutation_stream(
    config: ChaosConfig, log: LogStore | None = None
) -> MutationStream:
    """The fault menu over ``log`` (default: :func:`make_chaos_log`).

    Each transfer contributes an ``add`` at its start and, at its end, a
    ``complete`` followed by a ``drift`` observation scoring it against a
    pseudo-prediction — unless its completion never arrives.  Faults
    ride along with the ``ChaosConfig`` probabilities: duplicate adds and
    completes, completes for ids never started, and progress reports
    with NaN, negative or infinite rates; good progress reports keep the
    population moving.  Non-finite floats are in wire form
    (:func:`~repro.serve.durability.journal.wire_float`), so the stream
    crosses a strict-JSON shard frame unchanged.

    A pure function of its arguments (fresh RNG, no shared state): the
    crashed run, its re-delivery, the reference twin and every shard see
    the identical stream.
    """
    log = log if log is not None else make_chaos_log(config)
    rng = np.random.default_rng(config.seed + 3)
    data = log.raw()
    timeline = sorted(
        [(float(data["ts"][i]), 0, i) for i in range(len(data))]
        + [(float(data["te"][i]), 1, i) for i in range(len(data))])
    stream = MutationStream()
    out = stream.mutations
    live: list[int] = []  # generator-side mirror of the active population

    def fault(kind: str, t: float, mutation: list | None) -> None:
        stream.injected[kind] = stream.injected.get(kind, 0) + 1
        if mutation is not None:
            out.append((t, mutation))

    for t, kind, i in timeline:
        row = data[i]
        tid = int(row["transfer_id"])
        if kind == 0:
            add = ["add", tid, view_to_dict(_view_from_row(row))]
            out.append((t, add))
            live.append(tid)
            if rng.random() < config.p_duplicate_add:
                fault("duplicate_add", t, add)
        else:
            if rng.random() < config.p_never_complete:
                fault("never_complete", t, None)
            else:
                out.append((t, ["complete", tid]))
                if tid in live:
                    live.remove(tid)
                realized = float(row["nb"]) / (float(row["te"]) - float(row["ts"]))
                tier = _DRIFT_TIERS[int(rng.integers(len(_DRIFT_TIERS)))]
                out.append((t, [
                    "drift", str(row["src"]), str(row["dst"]), tier,
                    realized * float(rng.uniform(0.7, 1.3)), realized,
                ]))
                if rng.random() < config.p_duplicate_complete:
                    fault("duplicate_complete", t, ["complete", tid])
            if rng.random() < config.p_unknown_complete:
                fault("unknown_complete", t, ["complete", 10**9 + tid])
        if rng.random() < config.p_bad_progress and live:
            victim = live[int(rng.integers(len(live)))]
            bad = float(rng.choice([np.nan, -1e8, np.inf]))
            fault("bad_progress", t, ["progress", victim, wire_float(bad), None])
        if rng.random() < config.p_good_progress and live:
            victim = live[int(rng.integers(len(live)))]
            out.append((t, ["progress", victim,
                            float(rng.uniform(1e6, 5e8)), None]))
    return stream


def run_chaos_replay(
    config: ChaosConfig | None = None,
    obs: Observability | None = None,
    log: LogStore | None = None,
    progress=None,
    progress_every: int = 0,
) -> Verdict:
    """Feed :func:`make_mutation_stream` through the serving stack, with
    a clock-skewed prediction batch every ``predict_every`` mutations.

    With an :class:`~repro.obs.Observability` bundle the whole stack
    instruments itself through its registry, and — when the bundle has a
    drift monitor — every transfer is additionally *scored*: its rate is
    predicted at submission time (just before its ``add`` lands) and the
    stream's ``drift`` mutation for its completion is applied with that
    real prediction in place of the stream's pseudo-prediction, feeding
    the rolling per-edge / per-tier MdAPE gauges.  Without scoring the
    ``drift`` mutations are skipped.  The scoring probes consume no
    replay randomness, so runs with and without ``obs`` inject the
    identical fault sequence.

    ``log`` substitutes a caller-supplied store (e.g. the kept rows of a
    lenient ingest) for the freshly synthesized chaos log.  ``progress``
    (with ``progress_every > 0``) is called with the live, still-mutating
    verdict every ``progress_every`` mutations — the hook behind the
    CLI's ``--watch`` replay summaries.
    """
    cfg = config or ChaosConfig()
    rng = np.random.default_rng(cfg.seed + 1)
    log = log if log is not None else make_chaos_log(cfg)
    stream = make_mutation_stream(cfg, log)
    chain = make_chaos_chain(log, cfg)
    state = ServingState(obs=obs, lenient=cfg.lenient)
    engine = BatchOnlinePredictor(chain, state.active, obs=obs)
    scoring = obs is not None and obs.drift is not None
    log_endpoints = sorted({str(e) for pair in log.edges() for e in pair})
    data = log.raw()
    row_of = {int(tid): i for i, tid in enumerate(data["transfer_id"])}

    verdict = Verdict()
    facts = verdict.facts
    facts.update(events=0, prediction_batches=0, predictions=0,
                 bad_predictions=0, nonconverged=0, rejected_strict=0,
                 final_active=0, expected_active=0, max_active=0,
                 injected_faults=stream.injected)
    added: set[int] = set()
    completed: set[int] = set()
    submitted: dict[int, tuple] = {}  # tid -> (src, dst, tier, predicted)
    finished = None                   # the completion the next drift scores
    errors: list[str] = []

    def score_start(t: float, tid: int) -> None:
        """Predict the starting transfer's rate (submission-time view:
        before its own start event lands in the active set)."""
        row = data[row_of[tid]]
        req = TransferRequest(
            src=str(row["src"]),
            dst=str(row["dst"]),
            total_bytes=float(row["nb"]),
            n_files=int(row["nf"]),
            n_dirs=int(row["nd"]),
            concurrency=int(row["c"]),
            parallelism=int(row["p"]),
        )
        try:
            pred = engine.predict_batch_detailed([req], t)
        except Exception:  # noqa: BLE001 - scoring must never sink the replay
            return
        rate = float(pred.rates[0])
        if math.isfinite(rate) and rate >= 0:
            submitted[tid] = (req.src, req.dst, pred.tiers[0], rate)

    for n_event, (t, mutation) in enumerate(stream, 1):
        op = mutation[0]
        if op == "drift":
            # A caller's log may hold zero-byte transfers; a zero realized
            # rate is an upstream record, not drift.
            if finished is not None and mutation[5] > 0:
                state.record_drift(*finished, mutation[5])
            finished = None
        else:
            tid = int(mutation[1])
            if op == "add" and scoring and tid not in added:
                score_start(t, tid)
            try:
                state.apply(mutation)
            except (KeyError, ValueError):
                facts["rejected_strict"] += 1  # strict mode rejects by raising
            if op == "add":
                added.add(tid)
            elif op == "complete":
                completed.add(tid)
                finished = submitted.pop(tid, None)

        facts["events"] = n_event
        facts["max_active"] = max(facts["max_active"], len(state.active))
        if progress is not None and progress_every \
                and n_event % progress_every == 0:
            facts["final_active"] = len(state.active)
            progress(verdict)

        if n_event % cfg.predict_every == 0:
            now = t + float(rng.uniform(-cfg.clock_skew_s, cfg.clock_skew_s))
            batch = _make_batch(rng, cfg, chain, log_endpoints)
            try:
                pred = engine.predict_batch_detailed(batch, now)
            except Exception as exc:  # noqa: BLE001 - the whole point
                errors.append(f"predict_batch raised at mutation {n_event}: "
                              f"{exc!r}")
                continue
            facts["prediction_batches"] += 1
            facts["predictions"] += len(batch)
            good = np.isfinite(pred.rates) & (pred.rates > 0)
            facts["bad_predictions"] += int((~good).sum())

    expected = added - completed
    actual = set(state.active.ids())
    facts.update(
        final_active=len(actual),
        expected_active=len(expected),
        nonconverged=engine.stats.nonconverged_requests,
        prediction_tiers=dict(engine.stats.tier_counts),
        active_set_stats=state.active.stats.as_dict(),
    )
    verdict.title = (
        f"chaos replay: {facts['events']} mutations, "
        f"{facts['prediction_batches']} prediction batches "
        f"({facts['predictions']} predictions)")
    verdict.check(
        "every prediction finite and positive",
        facts["predictions"] > 0 and facts["bad_predictions"] == 0
        and not errors,
        f"{facts['bad_predictions']} bad of {facts['predictions']}"
        + (f"; {len(errors)} batches raised, first: {errors[0]}"
           if errors else ""))
    verdict.check(
        "active population consistent", actual == expected,
        f"final {len(actual)} / expected {len(expected)}"
        + ("" if actual == expected else
           f", leaked {sorted(actual - expected)[:5]}, "
           f"missing {sorted(expected - actual)[:5]}"))
    if scoring:
        drift = obs.drift.snapshot()
        overall = drift.get("overall", {})
        facts["drift"] = drift
        facts["prediction_drift"] = (
            f"{drift.get('observations', 0)} scored, "
            f"MdAPE {overall.get('mdape', float('nan')):.1f}% "
            f"p95 {overall.get('p95_ape', float('nan')):.1f}% "
            f"bias {overall.get('bias_pct', float('nan')):+.1f}%")
    return verdict


# Cycled through by write_corrupt_jsonl, one fault per corrupted line.
_JSONL_FAULTS = ("truncated_json", "not_object", "missing_field", "invariant")


def write_corrupt_jsonl(
    store: LogStore, path: str | Path, every: int = 7
) -> int:
    """Write ``store`` as JSONL with every ``every``-th line corrupted.

    Deterministic (the fault kind cycles through :data:`_JSONL_FAULTS` in
    row order, no RNG), so a given store always yields the same corrupt
    file — the ingestion half of the observed-replay pipeline stays as
    reproducible as the replay half.  Returns the number of corrupted
    lines.
    """
    if every < 1:
        raise ValueError("every must be >= 1")
    path = Path(path)
    data = store.raw()
    corrupted = 0
    with path.open("w") as fh:
        for i in range(len(data)):
            obj = {name: data[i][name].item() for name in LOG_DTYPE.names}
            if (i + 1) % every == 0:
                fault = _JSONL_FAULTS[corrupted % len(_JSONL_FAULTS)]
                corrupted += 1
                if fault == "truncated_json":
                    fh.write(json.dumps(obj)[:-9] + "\n")
                    continue
                if fault == "not_object":
                    fh.write(json.dumps([obj["transfer_id"]]) + "\n")
                    continue
                if fault == "missing_field":
                    del obj["nb"], obj["te"]
                else:  # invariant: finished before it started
                    obj["te"] = obj["ts"] - 1.0
            fh.write(json.dumps(obj) + "\n")
    return corrupted


@dataclass
class ObservedReplay:
    """The observed-replay pipeline's artifacts: the chaos report, the
    ingestion quarantine report, and the shared observability bundle whose
    registry holds every metric the run produced."""

    report: Verdict
    quarantine: QuarantineReport
    obs: Observability

    @property
    def registry(self):
        return self.obs.registry


def run_observed_replay(
    config: ChaosConfig | None = None,
    path: str | Path | None = None,
    obs: Observability | None = None,
    corrupt_every: int = 7,
    progress=None,
    progress_every: int = 0,
) -> ObservedReplay:
    """The full telemetry-to-metrics pipeline in one call: synthesize a
    chaos log, write it as JSONL with injected corruption, lenient-ingest
    it (quarantine counters land in the registry), then chaos-replay the
    kept rows with drift scoring.  One metrics export afterwards carries
    predictor latency histograms, fallback-tier counters, ingestion
    quarantine counts, and per-edge rolling MdAPE.

    ``path`` is where the corrupt JSONL goes (a temp file when omitted).
    """
    cfg = config or ChaosConfig()
    bundle = obs if obs is not None else Observability.create()
    log = make_chaos_log(cfg)
    if path is None:
        import tempfile

        with tempfile.NamedTemporaryFile(
            mode="w", suffix=".jsonl", delete=False
        ) as tmp:
            path = tmp.name
    write_corrupt_jsonl(log, path, every=corrupt_every)
    kept, quarantine = read_jsonl(
        path, strict=False, registry=bundle.registry, tracer=bundle.tracer
    )
    report = run_chaos_replay(cfg, obs=bundle, log=kept,
                              progress=progress, progress_every=progress_every)
    return ObservedReplay(report=report, quarantine=quarantine, obs=bundle)


# -- crash injection ----------------------------------------------------------
#
# The crash-injection proof exercises the durability layer the way the
# replay exercises the lenient serving engine: the mutation stream is fed
# through a journaled DurableServingState, the process is "killed" at an
# arbitrary mutation — with the journal tail torn at an arbitrary byte
# offset, and optionally the newest snapshot corrupted — then recovery plus
# re-delivery of the unacknowledged suffix must reproduce, bit for bit, the
# state of the uninterrupted twin.


def _drift_gauges(registry) -> dict[str, float]:
    return {k: v for k, v in registry.flat().items() if k.startswith("drift_")}


def run_crash_replay(
    config: ChaosConfig | None = None,
    state_dir: str | Path | None = None,
    kill_after_events: int | None = None,
    cut_bytes: int = 17,
    corrupt_snapshot: bool = False,
    snapshot_every: int = 64,
    probe_requests: int = 32,
    obs: Observability | None = None,
) -> Verdict:
    """One full crash-injection trial against the durability layer.

    1. Run the uninterrupted twin: the full mutation stream through a
       journal-free :class:`~repro.serve.durability.ServingState`.
    2. Run the durable process: the stream up to ``kill_after_events``
       through a journaled :class:`~repro.serve.durability.DurableServingState`
       (auto-snapshotting every ``snapshot_every`` records), then kill it.
    3. Injure the disk like a real crash would: tear ``cut_bytes`` off
       the journal tail (a write killed at an arbitrary byte offset);
       with ``corrupt_snapshot``, also flip a byte inside the newest
       snapshot so recovery must fall back a generation.
    4. Recover, re-deliver every mutation after the recovered ``last_seq``
       (the unacknowledged suffix a real event source would re-send),
       and require the result to be indistinguishable from (1): the
       active population, the drift windows, every ``drift_*`` metric,
       and the predictions served off the recovered state.
    """
    if cut_bytes < 0:
        raise ValueError(f"cut_bytes must be >= 0, got {cut_bytes}")
    cfg = config or ChaosConfig()
    mutations = [m for _, m in make_mutation_stream(cfg)]
    # Default kill point: ~60% through the stream — late enough that
    # several snapshot generations exist, early enough that a meaningful
    # suffix must be re-delivered.
    kill = (len(mutations) * 3) // 5 if kill_after_events is None \
        else int(kill_after_events)
    kill = max(0, min(kill, len(mutations)))
    verdict = Verdict(
        title=f"crash replay: killed after {kill}/{len(mutations)} "
              f"mutations, journal tail torn by {cut_bytes} bytes"
              + (", newest snapshot corrupted" if corrupt_snapshot else ""))

    cleanup = None
    if state_dir is None:
        import tempfile

        cleanup = tempfile.TemporaryDirectory(prefix="repro-crash-")
        state_dir = cleanup.name
    state_dir = Path(state_dir)
    try:
        # 1. the uninterrupted twin (no journal).
        reference = ServingState(lenient=cfg.lenient)
        for mutation in mutations:
            reference.apply(mutation)

        # 2. the durable process, killed mid-stream.
        durability = DurabilityConfig(snapshot_every=snapshot_every)
        victim, _ = recover_serving_state(
            state_dir, lenient=cfg.lenient, config=durability)
        for mutation in mutations[:kill]:
            victim.apply(mutation)
        wal_path = victim._wal_path(victim.generation)
        victim.close()  # every append already flushed; the tear is below

        # 3. injure the disk.
        if cut_bytes and wal_path.exists():
            size = wal_path.stat().st_size
            with wal_path.open("r+b") as fh:
                fh.truncate(size - min(int(cut_bytes), size))
        if corrupt_snapshot:
            generations = victim.snapshots.generations()
            if generations:
                flip_middle_byte(victim.snapshots.path_for(generations[-1]))

        # 4. recover and re-deliver the unacknowledged suffix.
        bundle = obs if obs is not None else Observability.create(trace=False)
        recovered, recovery = recover_serving_state(
            state_dir, obs=bundle, lenient=cfg.lenient, config=durability)
        verdict.check(
            "journal acked only delivered mutations",
            recovery.last_seq <= kill,
            f"acknowledged {recovery.last_seq}, delivered {kill}")
        resume_from = min(recovery.last_seq, kill)
        for mutation in mutations[resume_from:]:
            recovered.apply(mutation)

        # -- the equivalence proof ---------------------------------------
        log = make_chaos_log(cfg)
        chain = make_chaos_chain(log, cfg)
        requests = make_synthetic_requests(
            probe_requests, n_endpoints=cfg.n_endpoints, seed=cfg.seed + 9)
        now = cfg.horizon_s
        ref_rates = BatchOnlinePredictor(
            chain, reference.active).predict_batch(requests, now)
        rec_rates = BatchOnlinePredictor(
            chain, recovered.active).predict_batch(requests, now)
        deltas = np.abs(ref_rates - rec_rates)
        max_delta = float(deltas.max()) if deltas.size else 0.0
        verdict.check(
            "active population equal",
            recovered.state_fingerprint() == reference.state_fingerprint(),
            "active set and drift windows")
        verdict.check(
            "drift gauges equal",
            _drift_gauges(recovered.registry)
            == _drift_gauges(reference.registry))
        verdict.check(
            "predictions equal", bool(np.array_equal(ref_rates, rec_rates)),
            f"max |delta| {max_delta:.3g} B/s over {len(requests)} probes")
        verdict.facts.update(
            events_total=len(mutations),
            kill_after=kill,
            cut_bytes=int(cut_bytes),
            corrupt_snapshot=bool(corrupt_snapshot),
            resumed_events=len(mutations) - resume_from,
            probe_predictions=len(requests),
            max_prediction_delta=max_delta,
            recovery=recovery.as_dict(),
        )
        recovered.close()
        return verdict
    finally:
        if cleanup is not None:
            cleanup.cleanup()
