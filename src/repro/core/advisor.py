"""Transfer optimization advisory built on the trained models (§8).

The paper's conclusions point at two levers: "aggregate performance can be
improved by scheduling transfers and/or reducing concurrency and
parallelism."  This module turns a fitted model into that advice:

- :class:`SourceSelector` — rank replica sources by predicted rate (the
  scheduling_advisor example's logic as a library API);
- :class:`AdmissionPlanner` — order a backlog of transfer requests across
  edges, greedily avoiding predicted self-contention at shared endpoints.

All advice is *model-driven*: nothing here talks to the simulator, so the
same code would run against models trained on real logs.

The (C, P) tunable sweep (the paper's [4] HARP-style decision, but with
zero probing) is :class:`repro.serve.SweepAdvisor`, which scores all
candidates in one :class:`~repro.serve.BatchOnlinePredictor` call;
:data:`DEFAULT_TUNABLE_GRID` is its candidate grid.
:class:`repro.serve.FleetScheduler` is the production successor of
:class:`AdmissionPlanner`: it degrades through a fallback chain and
schedules against a live :class:`~repro.serve.ActiveSet`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.online import ActiveTransferView, OnlineFeatureEstimator, OnlinePredictor
from repro.core.pipeline import EdgeModelResult, GlobalModelResult
from repro.sim.gridftp import TransferRequest

__all__ = [
    "SourceSelector",
    "PlannedTransfer",
    "AdmissionPlanner",
]

# Candidate (concurrency, parallelism) grid; the Globus-practical range.
DEFAULT_TUNABLE_GRID: tuple[tuple[int, int], ...] = (
    (1, 1), (1, 4), (2, 2), (2, 4), (2, 8),
    (4, 2), (4, 4), (4, 8), (8, 4), (8, 8), (16, 4),
)


class SourceSelector:
    """Ranks candidate sources of a replicated dataset by predicted rate.

    Requires a *global* model (per-edge models cannot score unseen pairs).
    """

    def __init__(
        self,
        result: GlobalModelResult,
        estimator: OnlineFeatureEstimator,
        capability_lookup,
        include_rtt_distance=None,
    ) -> None:
        """``capability_lookup(endpoint) -> (ro_max, ri_max)``;
        ``include_rtt_distance(src, dst) -> km`` if the model was trained
        with the RTT extension."""
        self.result = result
        self.estimator = estimator
        self.capability_lookup = capability_lookup
        self.include_rtt_distance = include_rtt_distance
        needs_rtt = "distance_km" in result.feature_names
        if needs_rtt and include_rtt_distance is None:
            raise ValueError(
                "model includes distance_km; pass include_rtt_distance"
            )

    def rank(
        self,
        sources: list[str],
        dst: str,
        template: TransferRequest,
        now: float = 0.0,
    ) -> list[tuple[str, float]]:
        """(source, predicted rate) pairs, best first."""
        if not sources:
            raise ValueError("no candidate sources")
        from repro.serve.active_set import ActiveSet
        from repro.serve.batch import BatchOnlinePredictor

        # One shared population for the whole ranking: previously a fresh
        # OnlinePredictor — and with it a fresh copy of the active set and
        # its endpoint indexes — was built per candidate source.
        active = ActiveSet.from_views(self.estimator.active)
        out = []
        for src in sources:
            if src == dst:
                continue
            req = replace(template, src=src, dst=dst)
            ro, _ = self.capability_lookup(src)
            _, ri = self.capability_lookup(dst)
            extra = {"ROmax_src": ro, "RImax_dst": ri}
            if self.include_rtt_distance is not None and (
                "distance_km" in self.result.feature_names
            ):
                extra["distance_km"] = self.include_rtt_distance(src, dst)
            engine = BatchOnlinePredictor(
                self.result, active, extra_columns=extra
            )
            out.append((src, engine.predict(req, now)))
        if not out:
            raise ValueError("every candidate source equals the destination")
        out.sort(key=lambda t: -t[1])
        return out


@dataclass(frozen=True)
class PlannedTransfer:
    """One admission-plan entry."""

    request: TransferRequest
    start_at: float
    predicted_rate: float
    predicted_end: float


class AdmissionPlanner:
    """Greedy backlog scheduler that avoids predicted self-contention.

    Given a backlog of requests and per-edge fitted models, repeatedly
    admits the request with the highest predicted rate *under the load the
    plan has already created*, capping simultaneous transfers per endpoint.
    This is the paper's "aggregate performance can be improved by
    scheduling transfers" implication, executed with the paper's own
    models.
    """

    def __init__(
        self,
        models: dict[tuple[str, str], EdgeModelResult],
        max_active_per_endpoint: int = 4,
    ) -> None:
        if max_active_per_endpoint < 1:
            raise ValueError("max_active_per_endpoint must be >= 1")
        self.models = dict(models)
        self.max_active = max_active_per_endpoint

    def plan(
        self, backlog: list[TransferRequest], now: float = 0.0
    ) -> list[PlannedTransfer]:
        """Produce an admission order; requests on unmodeled edges raise.

        (:class:`repro.serve.advise.FleetScheduler` is the production
        version: it degrades through a fallback chain instead of raising
        and scores all eligible candidates in one batch call.)
        """
        for req in backlog:
            if (req.src, req.dst) not in self.models:
                raise KeyError(f"no model for edge {(req.src, req.dst)}")
        from repro.serve.active_set import ActiveSet
        from repro.serve.batch import BatchOnlinePredictor

        pending = list(backlog)
        # One engine per distinct edge, all sharing one incrementally
        # maintained population.  Previously a fresh OnlinePredictor — and
        # a fresh copy of the whole active view — was constructed per
        # candidate per admission round, quadratic in the backlog; now
        # allocations are O(backlog) per plan() call.
        active = ActiveSet()
        engines = {
            edge: BatchOnlinePredictor(self.models[edge], active)
            for edge in {(r.src, r.dst) for r in pending}
        }
        in_flight: dict[int, ActiveTransferView] = {}
        planned: list[PlannedTransfer] = []
        clock = now

        def endpoint_load(ep: str) -> int:
            return sum(1 for a in in_flight.values() if ep in (a.src, a.dst))

        while pending:
            # Drop finished planned transfers from the active view.
            for tid in [
                t for t, a in in_flight.items() if a.expected_end <= clock
            ]:
                active.complete(tid)
                del in_flight[tid]

            candidates = []
            for i, req in enumerate(pending):
                if (
                    endpoint_load(req.src) >= self.max_active
                    or endpoint_load(req.dst) >= self.max_active
                ):
                    continue
                engine = engines[(req.src, req.dst)]
                candidates.append((engine.predict(req, clock), i))
            if not candidates:
                # Everything is blocked: advance to the next completion.
                next_end = min(a.expected_end for a in in_flight.values())
                clock = max(next_end, clock + 1e-6)
                continue

            candidates.sort(key=lambda t: -t[0])
            rate, idx = candidates[0]
            req = pending.pop(idx)
            duration = req.total_bytes / max(rate, 1.0)
            planned.append(
                PlannedTransfer(
                    request=req,
                    start_at=clock,
                    predicted_rate=rate,
                    predicted_end=clock + duration,
                )
            )
            view = ActiveTransferView(
                src=req.src,
                dst=req.dst,
                rate=rate,
                started_at=clock,
                expected_end=clock + duration,
                concurrency=req.concurrency,
                parallelism=req.parallelism,
                n_files=req.n_files,
            )
            tid = len(planned) - 1
            active.add(tid, view)
            in_flight[tid] = view
        return planned
