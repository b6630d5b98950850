"""Submission-time oracles: the scalar feature loop, the scalar tunable
sweep and the per-role endpoint indexes.

``BatchOnlinePredictor.estimate_features`` must match
:meth:`ReferenceFeatureEstimator.estimate`, ``SweepAdvisor`` must rank
exactly as :class:`TunableAdvisor`, and each column of
``EndpointState.merged`` must equal its :func:`endpoint_columns` index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.advisor import DEFAULT_TUNABLE_GRID
from repro.core.contention import ActiveOverlapIndex
from repro.core.online import OnlineFeatureEstimator, OnlinePredictor
from repro.sim.gridftp import TransferRequest

__all__ = [
    "ReferenceFeatureEstimator", "TunableRecommendation", "TunableAdvisor",
    "EndpointColumns", "endpoint_columns",
]


class ReferenceFeatureEstimator(OnlineFeatureEstimator):
    """The active population plus a per-transfer Python feature loop."""

    def estimate(
        self, request: TransferRequest, now: float, assumed_duration_s: float
    ) -> dict[str, float]:
        """The 15 features of ``request`` starting at ``now`` and lasting
        ``assumed_duration_s``, under the persistence assumption."""
        if assumed_duration_s <= 0:
            raise ValueError("assumed_duration_s must be > 0")
        t_end = now + assumed_duration_s
        feats = {
            "K_sout": 0.0, "K_sin": 0.0, "K_dout": 0.0, "K_din": 0.0,
            "S_sout": 0.0, "S_sin": 0.0, "S_dout": 0.0, "S_din": 0.0,
            "G_src": 0.0, "G_dst": 0.0,
        }
        for a in self.active:
            # Overlap with [now, t_end] over the new transfer's duration.
            f = max(0.0, min(a.expected_end, t_end) - now) / assumed_duration_s
            if f <= 0:
                continue
            for suffix, here in (("sout", a.src == request.src),
                                 ("sin", a.dst == request.src),
                                 ("dout", a.src == request.dst),
                                 ("din", a.dst == request.dst)):
                if here:
                    feats["K_" + suffix] += f * a.rate
                    feats["S_" + suffix] += f * a.streams
            if request.src in (a.src, a.dst):
                feats["G_src"] += f * a.instances
            if request.dst in (a.src, a.dst):
                feats["G_dst"] += f * a.instances
        feats["C"] = float(request.concurrency)
        feats["P"] = float(request.parallelism)
        feats["Nd"] = float(request.n_dirs)
        feats["Nb"] = float(request.total_bytes)
        feats["Nf"] = float(request.n_files)
        return feats


@dataclass(frozen=True)
class TunableRecommendation:
    """A scalar sweep's outcome; ``alternatives`` holds (C, P, rate) for
    every candidate, best first."""

    concurrency: int
    parallelism: int
    predicted_rate: float
    alternatives: tuple[tuple[int, int, float], ...]

    @property
    def degenerate(self) -> bool:
        """Some candidate predicted a non-positive or non-finite rate."""
        return any(
            not np.isfinite(alt[2]) or alt[2] <= 0.0 for alt in self.alternatives
        )

    @property
    def gain_over_worst(self) -> float:
        """Best/worst predicted speedup; 1.0 for degenerate sweeps."""
        if self.degenerate:
            return 1.0
        return self.predicted_rate / self.alternatives[-1][2]

    @property
    def confident(self) -> bool:
        return not self.degenerate and self.gain_over_worst > 1.1


class TunableAdvisor:
    """Recommends (C, P) with one ``OnlinePredictor`` call per candidate."""

    def __init__(
        self,
        result,
        estimator: OnlineFeatureEstimator,
        grid: tuple[tuple[int, int], ...] = DEFAULT_TUNABLE_GRID,
        extra_columns: dict[str, float] | None = None,
    ) -> None:
        if not grid:
            raise ValueError("empty tunable grid")
        for c, p in grid:
            if c < 1 or p < 1:
                raise ValueError(f"bad grid entry ({c}, {p})")
        self._predictor = OnlinePredictor(
            result, estimator, extra_columns=extra_columns or {}
        )
        self.grid = grid

    def recommend(
        self, request: TransferRequest, now: float = 0.0
    ) -> TunableRecommendation:
        """Sweep the grid for ``request`` (its own C/P are ignored)."""
        scored = []
        for c, p in self.grid:
            candidate = replace(request, concurrency=c, parallelism=p)
            scored.append((c, p, self._predictor.predict(candidate, now)))
        scored.sort(key=lambda t: -t[2])
        c, p, rate = scored[0]
        return TunableRecommendation(c, p, rate, tuple(scored))


@dataclass(frozen=True)
class EndpointColumns:
    """One endpoint's per-role indexes: (rate, streams) columns of the
    transfers leaving and entering it, and the instance counts of those
    touching it (a self-loop counted once)."""

    outgoing: ActiveOverlapIndex
    incoming: ActiveOverlapIndex
    touch_instances: ActiveOverlapIndex


def endpoint_columns(active, endpoint: str) -> EndpointColumns:
    """Per-role indexes for ``endpoint`` over an ``ActiveSet``'s views, in
    its insertion order."""
    views = active.views()
    out_views = [v for v in views if v.src == endpoint]
    in_views = [v for v in views if v.dst == endpoint]
    touching = out_views + [v for v in in_views if v.src != endpoint]

    def index(views, weights) -> ActiveOverlapIndex:
        te = np.array([v.expected_end for v in views], dtype=np.float64)
        return ActiveOverlapIndex(te, np.array(weights, dtype=np.float64))

    def rate_streams(views) -> ActiveOverlapIndex:
        weights = [(v.rate, v.streams) for v in views]
        return index(views, np.reshape(weights, (len(views), 2)))

    return EndpointColumns(
        outgoing=rate_streams(out_views),
        incoming=rate_streams(in_views),
        touch_instances=index(touching, [v.instances for v in touching]),
    )
