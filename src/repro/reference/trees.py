"""GBT oracles: the per-feature training kernel and the per-tree predict loop.

The per-feature kernel optimises the same gain objective as the fused one
but rounds histogram sums differently, so trees may differ on exact gain
ties: the two are compared by train RMSE, never bitwise.
``GradientBoostingRegressor.predict`` must match :func:`predict_tree_loop`
bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.ml.gbt import GradientBoostingRegressor
from repro.ml.tree import _LEAF, RegressionTree

__all__ = [
    "LoopRegressionTree", "LoopGradientBoostingRegressor", "predict_tree_loop",
]


class LoopRegressionTree(RegressionTree):
    """A regression tree grown with one ``np.bincount`` pair per feature
    per node."""

    def _grow(self, codes, grad, hess, n_bins, feature_subset) -> None:
        p = self.params
        max_nodes = 2 ** (p.max_depth + 1) - 1
        feature = np.full(max_nodes, _LEAF, dtype=np.int32)
        split_bin = np.zeros(max_nodes, dtype=np.int32)
        left = np.zeros(max_nodes, dtype=np.int32)
        right = np.zeros(max_nodes, dtype=np.int32)
        value = np.zeros(max_nodes, dtype=np.float64)
        gain_arr = np.zeros(max_nodes, dtype=np.float64)
        feat_gain = np.zeros(codes.shape[1], dtype=np.float64)
        feat_count = np.zeros(codes.shape[1], dtype=np.int64)

        stack = [(0, 0, np.arange(codes.shape[0], dtype=np.int64))]
        next_free = 1
        while stack:
            node_id, depth, rows = stack.pop()
            g_tot = float(grad[rows].sum())
            h_tot = float(hess[rows].sum())
            value[node_id] = -g_tot / (h_tot + p.reg_lambda)
            if depth >= p.max_depth or h_tot < 2.0 * p.min_child_weight:
                continue
            best = self._best_split(
                codes, grad[rows], hess[rows], rows, g_tot, h_tot, n_bins,
                feature_subset,
            )
            if best is None:
                continue
            bfeat, bbin, bgain = best
            mask = codes[rows, bfeat] <= bbin
            rows_l, rows_r = rows[mask], rows[~mask]
            if rows_l.size == 0 or rows_r.size == 0:
                continue
            feature[node_id], split_bin[node_id] = bfeat, bbin
            gain_arr[node_id] = bgain
            feat_gain[bfeat] += bgain
            feat_count[bfeat] += 1
            left[node_id], right[node_id] = next_free, next_free + 1
            stack.append((next_free, depth + 1, rows_l))
            stack.append((next_free + 1, depth + 1, rows_r))
            next_free += 2

        self.node_feature_ = feature[:next_free]
        self.node_bin_ = split_bin[:next_free]
        self.node_left_ = left[:next_free]
        self.node_right_ = right[:next_free]
        self.node_value_ = value[:next_free]
        self.node_gain_ = gain_arr[:next_free]
        self.feature_gain_ = feat_gain
        self.feature_count_ = feat_count

    def _best_split(self, codes, g_rows, h_rows, rows, g_tot, h_tot, n_bins,
                    feature_subset) -> tuple[int, int, float] | None:
        """Best (feature, bin, gain) with gain > 0 over the subset, or None."""
        p = self.params
        parent_score = g_tot * g_tot / (h_tot + p.reg_lambda)
        best_gain, best_feat, best_bin = 0.0, -1, -1
        for f in feature_subset:
            nb = int(n_bins[f])
            if nb < 2:
                continue
            col = codes[rows, f]
            # Cut after bin b: left = bins [0..b], for b in [0, nb-2].
            gl = np.cumsum(np.bincount(col, weights=g_rows, minlength=nb))[:-1]
            hl = np.cumsum(np.bincount(col, weights=h_rows, minlength=nb))[:-1]
            gr = g_tot - gl
            hr = h_tot - hl
            dl = hl + p.reg_lambda
            dr = hr + p.reg_lambda
            # With reg_lambda == 0 an empty side has a zero denominator.
            ok = (hl >= p.min_child_weight) & (hr >= p.min_child_weight) \
                & (dl > 0.0) & (dr > 0.0)
            if not ok.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                gains = 0.5 * (gl * gl / dl + gr * gr / dr - parent_score) - p.gamma
            gains[~ok] = -np.inf
            b = int(np.argmax(gains))
            if gains[b] > best_gain:
                best_gain, best_feat, best_bin = float(gains[b]), int(f), b
        return None if best_feat < 0 else (best_feat, best_bin, best_gain)


class LoopGradientBoostingRegressor(GradientBoostingRegressor):
    """Gradient boosting over :class:`LoopRegressionTree` weak learners."""

    _tree_type = LoopRegressionTree


def predict_tree_loop(
    model: GradientBoostingRegressor, X: np.ndarray
) -> np.ndarray:
    """Sum the model's trees one at a time (the pre-flattening predict)."""
    X = model._check_predict_input(X)
    codes = model.binner_.transform(X)
    out = np.full(X.shape[0], model.base_score_)
    for tree in model.trees_:
        out += model.learning_rate * tree.predict_binned(codes)
    return out
