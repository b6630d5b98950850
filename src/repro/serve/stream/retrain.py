"""Drift-triggered per-edge retraining behind a circuit breaker.

The paper's per-edge models (§5.1/§5.2) decay as endpoint conditions
shift; the serving loop must refit them *live* without ever letting a
bad refit take serving down.  Three defence layers:

1. **trigger discipline** — an edge becomes refit-eligible only when its
   :class:`~repro.obs.DriftMonitor` window breaches the policy's MdAPE /
   p95 thresholds with enough samples.  The breach is a *latch* with
   hysteresis (armed above the threshold, released only below
   ``threshold * hysteresis``) so an edge oscillating around the line
   cannot flap, and a per-edge cooldown spaces attempts out.
2. **contained execution** — refits fan out through
   :func:`repro.exec.parallel_map` with a per-fit ``timeout`` and
   ``return_exceptions=True``: a hung or crashing fit surfaces as a
   per-edge failure, never as a stalled or aborted fan-out.
3. **gated publication + circuit breaker** — a successful fit is
   published to the edge's :class:`~repro.serve.durability.ModelArtifactStore`
   and swapped in *only* through :class:`~repro.serve.durability.ModelReloader`'s
   probe gate, so the live :class:`~repro.serve.FallbackChain` entry is
   never unseated by an artifact that cannot reproduce its own
   publish-time predictions.  Consecutive failures (fit errors,
   timeouts, failed probes) open a per-edge :class:`CircuitBreaker`:
   while open, the edge is not refit at all — it keeps serving through
   whatever the chain already has (the existing model, or the fallback
   tiers below it) until the cooldown admits a half-open probe attempt.

Everything the controller knows (buffers, breakers, latches, published
generations, the metadata bundle needed to re-splice a published model
after restart) round-trips through :meth:`RetrainController.state_dict`
so the supervisor can checkpoint it atomically with the tail position.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import re
from dataclasses import dataclass
from collections import deque
from functools import partial
from pathlib import Path

import numpy as np

from repro.core.features import build_feature_matrix
from repro.core.pipeline import EdgeModelResult, fit_edge_model
from repro.exec import TaskTimeout, derive_seed, parallel_map
from repro.logs.schema import LOG_DTYPE
from repro.logs.store import LogStore
from repro.ml.persistence import model_from_dict, model_to_dict
from repro.obs import MetricsRegistry, Tracer, span
from repro.obs.events import EventLog
from repro.serve.durability import ModelArtifactStore, ModelReloader
from repro.serve.fallback import FallbackChain

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "RetrainPolicy",
    "RetrainController",
    "fit_edge_from_rows",
]

Edge = tuple[str, str]


class BreakerState(enum.Enum):
    CLOSED = 0       # healthy: refits flow
    OPEN = 1         # tripped: refits blocked until cooldown elapses
    HALF_OPEN = 2    # cooldown elapsed: exactly one probe refit admitted


class CircuitBreaker:
    """Consecutive-failure breaker with half-open probes.

    Time is always passed in by the caller (``now``), never read from a
    wall clock — the supervisor drives it from data timestamps, which
    keeps replays and chaos proofs deterministic.
    """

    def __init__(self, failure_threshold: int = 3,
                 cooldown_s: float = 300.0) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = int(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self.state = BreakerState.CLOSED
        self.failures = 0           # consecutive
        self.opened_at = 0.0
        self.opens = 0
        self._probing = False

    def would_allow(self, now: float) -> bool:
        """Non-mutating admission check (for scheduling decisions)."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            return now - self.opened_at >= self.cooldown_s
        return not self._probing

    def allow(self, now: float) -> bool:
        """Mutating admission: an OPEN breaker past its cooldown moves to
        HALF_OPEN and admits exactly one probe attempt."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now - self.opened_at < self.cooldown_s:
                return False
            self.state = BreakerState.HALF_OPEN
            self._probing = True
            return True
        if self._probing:
            return False
        self._probing = True
        return True

    def record_success(self, now: float) -> None:
        self.state = BreakerState.CLOSED
        self.failures = 0
        self._probing = False

    def record_failure(self, now: float) -> None:
        self.failures += 1
        was_open = self.state is not BreakerState.CLOSED
        if was_open or self.failures >= self.failure_threshold:
            if self.state is not BreakerState.OPEN:
                self.opens += 1
            self.state = BreakerState.OPEN
            self.opened_at = float(now)
        self._probing = False

    def state_dict(self) -> dict:
        return {
            "state": self.state.name,
            "failures": int(self.failures),
            "opened_at": float(self.opened_at),
            "opens": int(self.opens),
        }

    def load_state(self, state: dict) -> None:
        self.state = BreakerState[state.get("state", "CLOSED")]
        self.failures = int(state.get("failures", 0))
        self.opened_at = float(state.get("opened_at", 0.0))
        self.opens = int(state.get("opens", 0))
        self._probing = False


@dataclass(frozen=True)
class RetrainPolicy:
    """All the knobs of the retrain loop, in one immutable bag."""

    mdape_threshold: float = 25.0    # percent; breach => refit-eligible
    p95_threshold: float = 75.0      # percent
    min_samples: int = 12            # drift samples before a breach counts
    hysteresis: float = 0.7          # release latch below threshold * this
    cooldown_s: float = 120.0        # spacing between attempts per edge
    fit_timeout_s: float | None = 30.0
    breaker_failures: int = 3
    breaker_cooldown_s: float = 600.0
    workers: int = 1
    buffer_rows: int = 512           # per-edge training buffer (bounded)
    min_fit_rows: int = 32           # don't fit on fewer rows
    probe_rows: int = 8              # publish-time probe batch size
    keep_artifacts: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.hysteresis <= 1.0:
            raise ValueError("hysteresis must be in (0, 1]")
        if self.min_fit_rows < 2 or self.buffer_rows < self.min_fit_rows:
            raise ValueError("need buffer_rows >= min_fit_rows >= 2")


def fit_edge_from_rows(task: tuple, min_samples: int = 30) -> EdgeModelResult:
    """Default fit function: the paper's per-edge pipeline over exactly
    the buffered rows.  Top-level (and used via ``functools.partial``) so
    it survives pickling into pool workers."""
    src, dst, arr = task
    store = LogStore(np.asarray(arr, dtype=LOG_DTYPE))
    features = build_feature_matrix(store)
    return fit_edge_model(features, src, dst, threshold=0.0,
                          min_samples=min_samples)


def _edge_key(edge: Edge) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", f"{edge[0]}__{edge[1]}")


def _floats_to_json(values) -> list:
    # Checkpoints are strict JSON (allow_nan=False): the NaN holes in
    # significance / test_errors map to null, as in edge_result_to_payload.
    return [float(v) if math.isfinite(v) else None
            for v in np.asarray(values, dtype=np.float64)]


def _floats_from_json(values) -> np.ndarray:
    return np.asarray([math.nan if v is None else float(v) for v in values],
                      dtype=np.float64)


def _result_to_bundle(result: EdgeModelResult) -> dict:
    """The JSON-safe remainder of an :class:`EdgeModelResult` once its
    estimator lives in the artifact store: everything the chain needs to
    re-splice the model after a restart."""
    return {
        "src": result.src,
        "dst": result.dst,
        "model_kind": result.model_kind,
        "feature_names": list(result.feature_names),
        "kept": [bool(v) for v in np.asarray(result.kept)],
        "significance": _floats_to_json(result.significance),
        "n_train": int(result.n_train),
        "n_test": int(result.n_test),
        "test_errors": _floats_to_json(result.test_errors),
        "mdape": float(result.mdape),
        "scaler": (model_to_dict(result.scaler)
                   if result.scaler is not None else None),
    }


def _bundle_to_result(bundle: dict, model) -> EdgeModelResult:
    return EdgeModelResult(
        src=str(bundle["src"]),
        dst=str(bundle["dst"]),
        model_kind=str(bundle["model_kind"]),
        feature_names=tuple(bundle["feature_names"]),
        kept=np.asarray(bundle["kept"], dtype=bool),
        significance=_floats_from_json(bundle["significance"]),
        n_train=int(bundle["n_train"]),
        n_test=int(bundle["n_test"]),
        test_errors=_floats_from_json(bundle["test_errors"]),
        mdape=float(bundle["mdape"]),
        model=model,
        scaler=(model_from_dict(bundle["scaler"])
                if bundle.get("scaler") else None),
    )


def _model_input_width(result: EdgeModelResult) -> int:
    if result.scaler is not None and getattr(result.scaler, "mean_", None) \
            is not None:
        return int(np.asarray(result.scaler.mean_).shape[0])
    coef = getattr(result.model, "coef_", None)
    if coef is not None:
        return int(np.asarray(coef).shape[-1])
    n = getattr(result.model, "n_features_", None)
    if n:
        return int(n)
    return int(np.count_nonzero(np.asarray(result.kept)))


class RetrainController:
    """Watches drift, refits breached edges, publishes through the gate."""

    def __init__(
        self,
        chain: FallbackChain,
        drift,
        artifact_root: str | Path,
        policy: RetrainPolicy | None = None,
        fit_fn=None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        seed: int = 0,
        publish_hook=None,
        events: EventLog | None = None,
    ) -> None:
        self.chain = chain
        self.drift = drift
        self.artifact_root = Path(artifact_root)
        self.policy = policy or RetrainPolicy()
        self.fit_fn = fit_fn if fit_fn is not None else partial(
            fit_edge_from_rows, min_samples=self.policy.min_fit_rows)
        self.registry = registry
        self.tracer = tracer
        self.events = events
        self.seed = int(seed)
        # Test/chaos hook: called as publish_hook(edge, generation, path)
        # after publish but before reload — where artifact corruption
        # between writer and reader is injected.
        self.publish_hook = publish_hook

        self._buffers: dict[Edge, deque[tuple]] = {}
        self._breakers: dict[Edge, CircuitBreaker] = {}
        self._breached: dict[Edge, bool] = {}
        self._last_attempt: dict[Edge, float] = {}
        self._published: dict[Edge, int] = {}       # edge -> live generation
        self._bundles: dict[Edge, dict] = {}        # edge -> metadata bundle
        self._stores: dict[Edge, ModelArtifactStore] = {}
        self._reloaders: dict[Edge, ModelReloader] = {}

    # -- wiring -------------------------------------------------------------

    def _store(self, edge: Edge) -> ModelArtifactStore:
        store = self._stores.get(edge)
        if store is None:
            store = ModelArtifactStore(
                self.artifact_root / _edge_key(edge), registry=self.registry)
            self._stores[edge] = store
        return store

    def _reloader(self, edge: Edge) -> ModelReloader:
        reloader = self._reloaders.get(edge)
        if reloader is None:
            reloader = ModelReloader(self._store(edge))
            self._reloaders[edge] = reloader
        return reloader

    def breaker(self, edge: Edge) -> CircuitBreaker:
        breaker = self._breakers.get(edge)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.policy.breaker_failures,
                cooldown_s=self.policy.breaker_cooldown_s,
            )
            self._breakers[edge] = breaker
        return breaker

    def _count(self, status: str, n: int = 1) -> None:
        if self.registry is not None and n:
            self.registry.counter(
                "stream_refits_total",
                "Refit attempts by outcome.",
                labels={"status": status},
            ).inc(n)

    def _export_breaker(self, edge: Edge) -> None:
        if self.registry is not None:
            self.registry.gauge(
                "stream_breaker_state",
                "Per-edge circuit state (0 closed, 1 open, 2 half-open).",
                labels={"edge": f"{edge[0]}->{edge[1]}"},
            ).set(float(self.breaker(edge).state.value))

    # -- observation --------------------------------------------------------

    def observe(self, records: np.ndarray) -> None:
        """Feed freshly ingested rows into the per-edge training buffers
        (bounded deques — memory is O(edges * buffer_rows))."""
        for i in range(len(records)):
            row = records[i]
            edge = (str(row["src"]), str(row["dst"]))
            buffer = self._buffers.get(edge)
            if buffer is None:
                buffer = self._buffers[edge] = deque(
                    maxlen=self.policy.buffer_rows)
            buffer.append(tuple(row[name].item() for name in LOG_DTYPE.names))

    # -- scheduling ---------------------------------------------------------

    def due(self, now: float) -> list[Edge]:
        """Edges whose drift latch is set, cooldown elapsed, and breaker
        admissible — sorted for determinism."""
        policy = self.policy
        out = []
        for edge in sorted(self._buffers):
            stats = self.drift.edge_stats(*edge)
            if stats.n >= policy.min_samples:
                breached = (stats.mdape > policy.mdape_threshold
                            or stats.p95_ape > policy.p95_threshold)
                released = (stats.mdape
                            < policy.mdape_threshold * policy.hysteresis
                            and stats.p95_ape
                            < policy.p95_threshold * policy.hysteresis)
                if breached:
                    self._breached[edge] = True
                elif released:
                    self._breached[edge] = False
            if not self._breached.get(edge, False):
                continue
            last = self._last_attempt.get(edge)
            if last is not None and now - last < policy.cooldown_s:
                continue
            if not self.breaker(edge).would_allow(now):
                continue
            out.append(edge)
        return out

    def refit_due(self, now: float) -> dict[Edge, str]:
        """One scheduling step: find breached edges and refit them."""
        edges = self.due(now)
        if not edges:
            return {}
        return self.retrain(edges, now)

    # -- execution ----------------------------------------------------------

    def retrain(self, edges: list[Edge], now: float) -> dict[Edge, str]:
        """Refit the given edges; returns per-edge outcome strings
        (``ok`` / ``failed`` / ``timeout`` / ``skipped`` / ``blocked``).

        Failures and timeouts feed the per-edge breaker; ``skipped``
        (too few buffered rows) does not — an idle edge is not a sick
        edge.
        """
        policy = self.policy
        outcomes: dict[Edge, str] = {}
        tasks: list[tuple[Edge, tuple]] = []
        with span(self.tracer, "stream.retrain", edges=len(edges)):
            for edge in edges:
                if not self.breaker(edge).allow(now):
                    outcomes[edge] = "blocked"
                    self._count("blocked")
                    if self.registry is not None:
                        self.registry.counter(
                            "stream_breaker_blocked_total",
                            "Refit attempts refused by an open breaker.",
                        ).inc()
                    continue
                buffer = self._buffers.get(edge)
                self._last_attempt[edge] = float(now)
                if buffer is None or len(buffer) < policy.min_fit_rows:
                    outcomes[edge] = "skipped"
                    self._count("skipped")
                    # An admitted HALF_OPEN probe that cannot run must
                    # not wedge the breaker in "probe in flight".
                    breaker = self.breaker(edge)
                    if breaker.state is BreakerState.HALF_OPEN:
                        breaker._probing = False
                    continue
                arr = np.array(list(buffer), dtype=LOG_DTYPE)
                tasks.append((edge, (edge[0], edge[1], arr)))

            if tasks:
                results = parallel_map(
                    self.fit_fn,
                    [task for _, task in tasks],
                    workers=policy.workers,
                    label="stream.refit",
                    registry=self.registry,
                    tracer=self.tracer,
                    timeout=policy.fit_timeout_s,
                    return_exceptions=True,
                    events=self.events,
                )
                for (edge, _), result in zip(tasks, results):
                    if isinstance(result, TaskTimeout):
                        outcomes[edge] = "timeout"
                        self._fail(edge, now, "timeout")
                    elif isinstance(result, Exception) or result is None:
                        outcomes[edge] = "failed"
                        self._fail(edge, now, "failed",
                                   reason=f"{type(result).__name__}: {result}")
                    else:
                        ok, reason = self._publish(edge, result)
                        if ok:
                            outcomes[edge] = "ok"
                            breaker = self.breaker(edge)
                            was = breaker.state
                            breaker.record_success(now)
                            self._count("ok")
                            if self.events is not None:
                                self.events.emit(
                                    "stream", "retrain_published",
                                    edge=f"{edge[0]}->{edge[1]}",
                                    generation=self._published.get(edge),
                                    at=float(now),
                                )
                                if was is not BreakerState.CLOSED:
                                    self.events.emit(
                                        "stream", "breaker_close",
                                        edge=f"{edge[0]}->{edge[1]}",
                                        at=float(now),
                                    )
                        else:
                            outcomes[edge] = "failed"
                            self._fail(edge, now, "failed", reason=reason)
            for edge in edges:
                self._export_breaker(edge)
        return outcomes

    def _fail(self, edge: Edge, now: float, status: str,
              reason: str = "") -> None:
        breaker = self.breaker(edge)
        before = breaker.state
        breaker.record_failure(now)
        self._count(status)
        opened = (breaker.state is BreakerState.OPEN
                  and before is not BreakerState.OPEN)
        if self.events is not None:
            self.events.emit(
                "stream", "refit_failed", severity="warning",
                edge=f"{edge[0]}->{edge[1]}", status=status,
                reason=reason, failures=breaker.failures, at=float(now),
            )
            if opened:
                self.events.emit(
                    "stream", "breaker_open", severity="error",
                    edge=f"{edge[0]}->{edge[1]}",
                    failures=breaker.failures,
                    cooldown_s=breaker.cooldown_s, at=float(now),
                )
        if self.registry is not None and opened:
            self.registry.counter(
                "stream_breaker_opens_total",
                "Circuit-breaker open transitions.",
            ).inc()

    def _publish(self, edge: Edge, result: EdgeModelResult) -> tuple[bool, str]:
        """Artifact-store publish + probe-gated reload + chain splice.

        The live chain entry is touched only on the full success path;
        every failure leaves it byte-for-byte what it was.
        """
        store = self._store(edge)
        reloader = self._reloader(edge)
        width = _model_input_width(result)
        probe_seed = derive_seed(self.seed, edge[0], edge[1],
                                 store.latest_generation() + 1)
        probe_x = np.random.default_rng(probe_seed).standard_normal(
            (self.policy.probe_rows, width))
        try:
            generation = store.publish(result.model, probe_x)
        except Exception as exc:  # noqa: BLE001 - any publish crash is a failure
            return False, f"publish failed: {exc}"
        if self.publish_hook is not None:
            self.publish_hook(edge, generation, store.path_for(generation))
        outcome = reloader.reload()
        if outcome.status != "reloaded" or outcome.generation != generation:
            return False, f"reload {outcome.status}: {outcome.reason}"
        self.chain.edge_models[edge] = dataclasses.replace(
            result, model=reloader.model)
        self._published[edge] = generation
        self._bundles[edge] = _result_to_bundle(result)
        store.prune(keep=self.policy.keep_artifacts)
        return True, ""

    # -- durability ---------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "buffers": [
                [s, d, [list(row) for row in buffer]]
                for (s, d), buffer in sorted(self._buffers.items())
            ],
            "breakers": [
                [s, d, breaker.state_dict()]
                for (s, d), breaker in sorted(self._breakers.items())
            ],
            "breached": [
                [s, d, bool(v)] for (s, d), v in sorted(self._breached.items())
            ],
            "last_attempt": [
                [s, d, float(t)]
                for (s, d), t in sorted(self._last_attempt.items())
            ],
            "published": [
                [s, d, int(g), self._bundles.get((s, d))]
                for (s, d), g in sorted(self._published.items())
            ],
        }

    def load_state(self, state: dict) -> None:
        """Restore buffers/breakers/latches, then re-splice previously
        published models from the artifact store.

        The splice is gated exactly like a live publish: the reloader
        must reach *the recorded generation* through its probe gate.  A
        corrupted artifact, or a newer on-disk generation this checkpoint
        never acknowledged, fails the gate or the generation match — the
        chain keeps its construction-time entry and drift re-triggers the
        refit instead.
        """
        self._buffers.clear()
        for s, d, rows in state.get("buffers", ()):
            buffer = deque(maxlen=self.policy.buffer_rows)
            for row in rows:
                buffer.append(tuple(row))
            self._buffers[(str(s), str(d))] = buffer
        self._breakers.clear()
        for s, d, payload in state.get("breakers", ()):
            breaker = self.breaker((str(s), str(d)))
            breaker.load_state(payload)
        self._breached = {
            (str(s), str(d)): bool(v)
            for s, d, v in state.get("breached", ())
        }
        self._last_attempt = {
            (str(s), str(d)): float(t)
            for s, d, t in state.get("last_attempt", ())
        }
        self._published.clear()
        self._bundles.clear()
        for s, d, generation, bundle in state.get("published", ()):
            edge = (str(s), str(d))
            reloader = self._reloader(edge)
            outcome = reloader.reload()
            if (outcome.status == "reloaded"
                    and outcome.generation == int(generation)
                    and bundle is not None):
                self.chain.edge_models[edge] = _bundle_to_result(
                    bundle, reloader.model)
                self._published[edge] = int(generation)
                self._bundles[edge] = bundle
            elif self.events is not None:
                self.events.emit(
                    "stream", "retrain_rollback", severity="warning",
                    edge=f"{edge[0]}->{edge[1]}",
                    generation=int(generation),
                    status=outcome.status, reason=outcome.reason,
                )
        for edge in self._breakers:
            self._export_breaker(edge)
