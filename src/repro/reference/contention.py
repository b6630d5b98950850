"""Contention oracles: the original Eq. 2 engine and its overlap query.

Production :class:`~repro.core.contention.ContentionComputer` and
``IntervalOverlapIndex.overlap_sum_fast`` must match these bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.contention import (
    _FEATURE_KEYS,
    IntervalOverlapIndex,
    _clamp_features,
)
from repro.logs.store import LogStore

__all__ = ["ReferenceIntervalIndex", "ReferenceContentionComputer"]


class ReferenceIntervalIndex(IntervalOverlapIndex):
    """The index plus its original query: unsorted binary searches and
    the allocating evaluation of the prefix-sum identity."""

    def overlap_sum(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``sum_i w_i * O(i, [a, b])`` per query interval."""
        a, b = self._check_queries(a, b)
        if self.n == 0:
            out = np.zeros((a.size, self._w_by_ts.shape[0]))
            return out if self._multi else out[:, 0]
        # {Te <= t}: side='right' on te_sorted; {Ts < t}: side='left' on
        # ts_sorted; {Ts <= t}: side='right'.
        idx_te_a = np.searchsorted(self._te_sorted, a, side="right")
        idx_te_b = np.searchsorted(self._te_sorted, b, side="right")
        idx_ts_b = np.searchsorted(self._ts_sorted, b, side="left")
        idx_ts_a_le = np.searchsorted(self._ts_sorted, a, side="right")

        w_te_le_a = self._w_by_te[:, idx_te_a]
        w_te_le_b = self._w_by_te[:, idx_te_b]
        wte_le_a = self._wte_by_te[:, idx_te_a]
        wte_le_b = self._wte_by_te[:, idx_te_b]
        w_ts_lt_b = self._w_by_ts[:, idx_ts_b]
        w_ts_le_a = self._w_by_ts[:, idx_ts_a_le]
        wts_lt_b = self._wts_by_ts[:, idx_ts_b]
        wts_le_a = self._wts_by_ts[:, idx_ts_a_le]

        a_row = a[None, :]
        b_row = b[None, :]
        term_min = wte_le_b + b_row * (w_ts_lt_b - w_te_le_b) - wte_le_a
        term_max = a_row * (w_ts_le_a - w_te_le_a) + (wts_lt_b - wts_le_a)
        out = term_min - term_max
        noise = 1e-12 * (
            np.abs(wte_le_b)
            + np.abs(wte_le_a)
            + np.abs(b_row) * (w_ts_lt_b + w_te_le_b)
            + np.abs(a_row) * (w_ts_le_a + w_te_le_a)
            + np.abs(wts_lt_b)
            + np.abs(wts_le_a)
        )
        out[np.abs(out) <= noise] = 0.0
        np.maximum(out, 0.0, out=out)
        return out.T if self._multi else out[0]


# Feature computed at each side of transfer k: (feature, endpoint index,
# whether k itself is a member of that index's transfer set).
_SRC_SIDE = (
    ("K_sout", "out_rate", True), ("S_sout", "out_streams", True),
    ("K_sin", "in_rate", False), ("S_sin", "in_streams", False),
    ("G_src", "touch_instances", True),
)
_DST_SIDE = (
    ("K_din", "in_rate", True), ("S_din", "in_streams", True),
    ("K_dout", "out_rate", False), ("S_dout", "out_streams", False),
    ("G_dst", "touch_instances", True),
)


class ReferenceContentionComputer:
    """The original engine, same API as ``ContentionComputer``: one
    string-mask scan per endpoint builds five separate 1-D indexes, and
    every feature is its own :meth:`ReferenceIntervalIndex.overlap_sum`."""

    def __init__(self, store: LogStore) -> None:
        if len(store) == 0:
            raise ValueError("cannot build contention indexes from empty log")
        self._store = store
        data = store.raw()
        self._ts, self._te = data["ts"], data["te"]
        self._src, self._dst = data["src"], data["dst"]
        inst = np.minimum(data["c"], data["nf"]).astype(np.float64)
        self._weights = {
            "rate": store.rates, "streams": inst * data["p"], "instances": inst,
        }
        self._indexes = {}
        for ep in set(self._src) | set(self._dst):
            is_out, is_in = self._src == ep, self._dst == ep
            masks = {"out": is_out, "in": is_in, "touch": is_out | is_in}
            self._indexes[str(ep)] = {
                f"{side}_{w}": ReferenceIntervalIndex(
                    self._ts[masks[side]], self._te[masks[side]],
                    self._weights[w][masks[side]],
                )
                for side, w in (("out", "rate"), ("in", "rate"),
                                ("out", "streams"), ("in", "streams"),
                                ("touch", "instances"))
            }

    def compute(self, subset: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Contention features for transfers at positions ``subset`` of the
        full store (all transfers when None)."""
        if subset is None:
            subset = np.arange(len(self._store))
        subset = np.asarray(subset)
        ts, te = self._ts[subset], self._te[subset]
        w = {name: col[subset] for name, col in self._weights.items()}
        own = {"K": w["rate"], "S": w["streams"], "G": w["instances"]}
        src, dst = self._src[subset], self._dst[subset]
        dur = te - ts
        out = {name: np.zeros(subset.size) for name in _FEATURE_KEYS}
        for ep, idxs in self._indexes.items():
            for side, roles in ((src, _SRC_SIDE), (dst, _DST_SIDE)):
                at = np.nonzero(side == ep)[0]
                if not at.size:
                    continue
                a, b, d = ts[at], te[at], dur[at]
                for key, index, member in roles:
                    total = idxs[index].overlap_sum(a, b)
                    if member:
                        # k's own term w_k * duration is in the sum.
                        total = total - own[key[0]][at] * d
                    out[key][at] = total / d
        _clamp_features(out, w["rate"], w["streams"], w["instances"])
        return out
