"""Online rate prediction at submission time.

The paper's motivating use case — "Our predictions can be used for
distributed workflow scheduling and optimization" — requires features
*before* a transfer runs.  The training pipeline computes Eq. 2 features
retrospectively (overlap-scaled over each transfer's actual lifetime); at
submission time neither the transfer's duration nor the future arrival
process is known.

:class:`OnlineFeatureEstimator` holds the *currently active* transfer
population; the Table 2 features are approximated from it under a
persistence assumption (whatever is running now keeps running at its
current average rate for the duration of the new transfer) by
:meth:`repro.serve.BatchOnlinePredictor.estimate_features`.  This is
exactly the information a scheduler has, and §5's models consume the
estimates unchanged.

:class:`OnlinePredictor` bundles a fitted model with the estimator and a
duration fix-point: predicted rate determines assumed duration, which
determines overlap scaling, which changes the features — a few iterations
converge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.features import FEATURE_NAMES
from repro.core.pipeline import EdgeModelResult, GlobalModelResult
from repro.logs.store import LogStore
from repro.sim.gridftp import TransferRequest

__all__ = [
    "ActiveTransferView",
    "OnlineFeatureEstimator",
    "OnlinePredictor",
    "active_views_from_log",
]


@dataclass(frozen=True)
class ActiveTransferView:
    """What a scheduler knows about one in-flight transfer.

    Attributes
    ----------
    src, dst:
        Endpoint names.
    rate:
        Current average rate, bytes/s (from progress reports).
    started_at:
        Submission time, seconds.
    expected_end:
        Best-effort completion estimate; ``inf`` if unknown (treated as
        running forever, the conservative choice for contention).
    concurrency, parallelism, n_files:
        Tunables and file count (for G and S features).
    """

    src: str
    dst: str
    rate: float
    started_at: float
    expected_end: float = float("inf")
    concurrency: int = 2
    parallelism: int = 4
    n_files: int = 1_000_000

    def __post_init__(self) -> None:
        # NaN slips through plain comparisons (every NaN comparison is
        # False), then poisons every contention feature it touches — reject
        # it here so the serving layer can never ingest a poisoned view.
        if not np.isfinite(self.rate) or self.rate < 0:
            raise ValueError(f"rate must be finite and >= 0, got {self.rate}")
        if not np.isfinite(self.started_at):
            raise ValueError(f"started_at must be finite, got {self.started_at}")
        if np.isnan(self.expected_end):
            raise ValueError("expected_end must not be NaN (use inf for unknown)")
        if self.expected_end <= self.started_at:
            raise ValueError("expected_end must be after started_at")
        if self.concurrency < 1 or self.parallelism < 1 or self.n_files < 1:
            raise ValueError("C, P, Nf must be >= 1")

    @property
    def instances(self) -> float:
        return float(min(self.concurrency, self.n_files))

    @property
    def streams(self) -> float:
        return self.instances * self.parallelism


def active_views_from_log(
    log: LogStore,
    now: float,
    lookback_s: float | None = None,
    exclude_transfer_id: int | None = None,
) -> list[tuple[int, ActiveTransferView]]:
    """(transfer_id, view) pairs for every transfer in flight at ``now``.

    Selection is ``ts <= now < te``; ``lookback_s``, when given, further
    restricts to transfers started within the last ``lookback_s`` seconds
    (an optional cap — long-running transfers are active regardless of age
    unless the caller explicitly bounds the view).
    """
    data = log.raw()
    mask = (data["ts"] <= now) & (data["te"] > now)
    if lookback_s is not None:
        if lookback_s <= 0:
            raise ValueError("lookback_s must be > 0")
        mask &= data["ts"] >= now - lookback_s
    if exclude_transfer_id is not None:
        mask &= data["transfer_id"] != exclude_transfer_id
    out = []
    for i in np.nonzero(mask)[0]:
        rate = data["nb"][i] / (data["te"][i] - data["ts"][i])
        out.append(
            (
                int(data["transfer_id"][i]),
                ActiveTransferView(
                    src=str(data["src"][i]),
                    dst=str(data["dst"][i]),
                    rate=float(rate),
                    started_at=float(data["ts"][i]),
                    expected_end=float(data["te"][i]),
                    concurrency=int(data["c"][i]),
                    parallelism=int(data["p"][i]),
                    n_files=int(data["nf"][i]),
                ),
            )
        )
    return out


class OnlineFeatureEstimator:
    """The currently active population that Eq. 2 features for a
    *hypothetical* transfer are estimated from."""

    def __init__(self, active: list[ActiveTransferView]) -> None:
        self.active = list(active)

    @classmethod
    def from_log_window(
        cls,
        log: LogStore,
        now: float,
        lookback_s: float | None = None,
        exclude_transfer_id: int | None = None,
    ) -> "OnlineFeatureEstimator":
        """Build the active view from a log, treating transfers that span
        ``now`` as active (useful for replay evaluation).

        A transfer is active iff ``ts <= now < te`` — regardless of how long
        ago it started; a multi-hour transfer still in flight is exactly the
        competition a scheduler must account for.  ``lookback_s`` is an
        *optional* cap that additionally drops transfers older than
        ``now - lookback_s`` (useful to bound the view when replaying huge
        logs); by default no cap is applied.

        Pass ``exclude_transfer_id`` when evaluating a logged transfer at
        its own start time, so it does not count as its own competition.
        """
        return cls([v for _, v in active_views_from_log(
            log, now, lookback_s=lookback_s,
            exclude_transfer_id=exclude_transfer_id,
        )])


@dataclass
class OnlinePredictor:
    """Submission-time rate prediction with a duration fix-point.

    Parameters
    ----------
    result:
        A fitted per-edge (:class:`EdgeModelResult`) or global
        (:class:`GlobalModelResult`) pipeline result.  For the global model,
        supply ``extra_columns`` matching its extra features (ROmax_src,
        RImax_dst, optionally distance_km).
    estimator:
        The current active-transfer view.
    max_iterations / tolerance:
        Fix-point controls: predict -> assume duration -> re-estimate
        features -> re-predict until the rate stabilises.
    """

    result: EdgeModelResult | GlobalModelResult
    estimator: OnlineFeatureEstimator
    max_iterations: int = 8
    tolerance: float = 0.01
    extra_columns: dict[str, float] = field(default_factory=dict)
    _engine: object = field(default=None, repr=False, compare=False)

    def predict(self, request: TransferRequest, now: float) -> float:
        """Predicted average rate (bytes/s) for ``request`` starting now.

        Delegates to :class:`repro.serve.BatchOnlinePredictor` with a batch
        of one, so scalar and batch predictions are bit-identical.  The
        estimator's active view is snapshotted into the engine on first use;
        build a fresh predictor for a changed population.
        """
        return float(self.engine.predict_batch([request], now)[0])

    @property
    def engine(self):
        """The underlying :class:`~repro.serve.BatchOnlinePredictor`
        (created on first access), exposing per-call instrumentation as
        ``engine.stats``."""
        if self._engine is None:
            from repro.serve import ActiveSet, BatchOnlinePredictor

            self._engine = BatchOnlinePredictor(
                self.result,
                ActiveSet.from_views(self.estimator.active),
                max_iterations=self.max_iterations,
                tolerance=self.tolerance,
                extra_columns=self.extra_columns,
            )
        return self._engine
