"""Unified observability layer: metrics, tracing, drift, diagnosis.

The reproduction's thesis (and the paper's) is that transfer performance
is explainable from measurements; this package applies the same standard
to the serving stack itself.  Everything is stdlib-only and cheap enough
to leave on in production paths:

- :mod:`repro.obs.metrics` — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` (fixed exponential buckets, so merging shards is
  deterministic) under a :class:`MetricsRegistry` with Prometheus-text
  and JSON exporters;
- :mod:`repro.obs.tracing` — :class:`Tracer` / :class:`Span`:
  monotonic-clock timing with parent/child nesting and a bounded span
  buffer, optionally mirrored into the registry;
- :mod:`repro.obs.drift` — :class:`DriftMonitor`: rolling-window MdAPE /
  p95 APE / signed bias per edge and per model tier, the paper's §5
  metrics recomputed live as transfers complete;
- :mod:`repro.obs.events` — :class:`EventLog`: structured, versioned
  events (tier fallbacks, breaker transitions, publishes, recoveries)
  in a bounded ring plus an append-only JSONL sink, with a checkpointed
  seq counter for exactly-once semantics across crashes;
- :mod:`repro.obs.slo` — :class:`SLOEngine`: declarative objectives
  with multi-window burn-rate alerting, data-time driven so chaos
  replays fire identical alerts;
- :mod:`repro.obs.flight` — :class:`FlightRecorder`: full exemplars
  (input, active-set size, tiers, per-span self-time) for requests
  breaching a latency/tier threshold;
- :mod:`repro.obs.health` — the unified snapshot + ASCII dashboard
  behind ``repro-tools top``.

:class:`Observability` bundles them with one shared registry; the
serving layer (:class:`~repro.serve.BatchOnlinePredictor`,
:class:`~repro.serve.ActiveSet`, the stream supervisor, the chaos
harness) and lenient log ingestion all accept one and instrument
themselves through it.  See ``docs/observability.md`` for the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.drift import DriftMonitor, DriftStats
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    Event,
    EventLog,
    QuarantineBurstDetector,
    read_events,
)
from repro.obs.flight import FlightExemplar, FlightRecorder
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
)
from repro.obs.slo import SLO, SLOEngine, default_slos, stream_slos
from repro.obs.tracing import NULL_SPAN, Span, SpanRecord, Tracer, span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "exponential_buckets",
    "DEFAULT_LATENCY_BUCKETS",
    "Tracer",
    "Span",
    "SpanRecord",
    "NULL_SPAN",
    "span",
    "DriftMonitor",
    "DriftStats",
    "Event",
    "EventLog",
    "EVENT_SCHEMA_VERSION",
    "QuarantineBurstDetector",
    "read_events",
    "FlightExemplar",
    "FlightRecorder",
    "SLO",
    "SLOEngine",
    "default_slos",
    "stream_slos",
    "Observability",
]


@dataclass
class Observability:
    """One serving stack's worth of instrumentation, sharing a registry.

    Build with :meth:`create` and hand the same instance to every
    component of one serving process::

        obs = Observability.create()
        active = ActiveSet(lenient=True, obs=obs)
        engine = BatchOnlinePredictor(chain, active, obs=obs)
        ...
        print(obs.registry.to_prometheus())

    ``events`` is always present (ring-only unless ``events_path`` is
    given); ``slo`` and ``flight`` are opt-in diagnosis components —
    components check for ``None`` before using them.
    """

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer | None = None
    drift: DriftMonitor | None = None
    events: EventLog | None = None
    slo: SLOEngine | None = None
    flight: FlightRecorder | None = None

    @classmethod
    def create(
        cls,
        trace: bool = True,
        max_spans: int = 4096,
        drift_window: int = 256,
        max_events: int = 2048,
        events_path: str | Path | None = None,
        slos: list[SLO] | None = None,
        flight_latency_s: float | None = None,
        flight_tier: str | None = None,
    ) -> "Observability":
        """A fully wired bundle: every component shares the registry, so
        one export carries spans, counters, drift, events, and SLO burn.

        Pass ``slos`` to attach an :class:`SLOEngine` and
        ``flight_latency_s`` (and/or ``flight_tier``) to attach a
        :class:`FlightRecorder`; both wire themselves to the bundle's
        event log so alerts and exemplars land in the same stream.
        """
        registry = MetricsRegistry()
        events = EventLog(
            path=events_path, registry=registry, max_events=max_events)
        flight = None
        if flight_latency_s is not None or flight_tier is not None:
            flight = FlightRecorder(
                latency_threshold_s=(
                    flight_latency_s if flight_latency_s is not None else 0.25
                ),
                tier_threshold=flight_tier,
                registry=registry,
                events=events,
            )
        slo = None
        if slos is not None:
            slo = SLOEngine(
                slos, registry=registry, events=events, flight=flight)
        return cls(
            registry=registry,
            tracer=Tracer(enabled=trace, max_spans=max_spans, registry=registry),
            drift=DriftMonitor(registry=registry, window=drift_window),
            events=events,
            slo=slo,
            flight=flight,
        )
