"""Flattened forest kernel: bit-parity with the per-tree reference loop.

The kernel's contract is exact: ``GradientBoostingRegressor.predict``
(one packed node table, all trees at once) must be *bit-identical* to
``repro.reference.predict_tree_loop`` (per-tree python loop, the
pre-flattening code path) for any fitted model.  These tests pin that property over
randomized models — varied depth, bin budgets, subsampling, early-stop
truncation — plus the staged-prediction and counter side contracts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.forest import (
    FlattenedForest,
    forest_totals,
    reset_forest_totals,
)
from repro.ml.gbt import GradientBoostingRegressor
from repro.reference import LoopGradientBoostingRegressor, predict_tree_loop


def _data(seed: int, n: int = 240, n_features: int = 6):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, n_features))
    y = np.sin(4 * X[:, 0]) + X[:, 1] * X[:, 2] + rng.normal(0, 0.1, n)
    X_test = rng.uniform(-0.2, 1.2, size=(80, n_features))  # incl. clamping
    return X, y, X_test


class TestForestParity:
    def test_bit_identical_to_tree_loop(self):
        X, y, X_test = _data(0)
        model = GradientBoostingRegressor(
            n_estimators=40, max_depth=4, random_state=0
        ).fit(X, y)
        assert np.array_equal(model.predict(X_test), predict_tree_loop(model, X_test))

    def test_single_row_and_single_tree(self):
        X, y, X_test = _data(1)
        model = GradientBoostingRegressor(
            n_estimators=1, max_depth=2, random_state=0
        ).fit(X, y)
        one = X_test[:1]
        assert np.array_equal(model.predict(one), predict_tree_loop(model, one))

    def test_early_stop_truncated_model(self):
        X, y, X_test = _data(2, n=400)
        model = GradientBoostingRegressor(
            n_estimators=300,
            max_depth=3,
            random_state=0,
            early_stopping_rounds=3,
        ).fit(X[:300], y[:300], eval_set=(X[300:], y[300:]))
        assert len(model.trees_) < 300  # truncation actually happened
        assert np.array_equal(model.predict(X_test), predict_tree_loop(model, X_test))

    def test_unpacked_wide_bin_path(self):
        # max_bins above the 15-bit packing limit forces the two-gather
        # fallback kernel; results must still match the loop exactly.
        X, y, X_test = _data(3)
        model = GradientBoostingRegressor(
            n_estimators=15, max_depth=3, max_bins=0x8000, random_state=0
        ).fit(X, y)
        assert model._ensure_forest().packed_ is None
        assert np.array_equal(model.predict(X_test), predict_tree_loop(model, X_test))

    def test_packed_path_used_for_default_bins(self):
        X, y, _ = _data(4)
        model = GradientBoostingRegressor(
            n_estimators=5, max_depth=3, random_state=0
        ).fit(X, y)
        assert model._ensure_forest().packed_ is not None

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        depth=st.integers(1, 6),
        max_bins=st.sampled_from([2, 3, 16, 256]),
        subsample=st.sampled_from([0.6, 1.0]),
        colsample=st.sampled_from([0.5, 1.0]),
    )
    def test_property_parity_over_random_models(
        self, seed, depth, max_bins, subsample, colsample
    ):
        X, y, X_test = _data(seed, n=120, n_features=4)
        model = GradientBoostingRegressor(
            n_estimators=12,
            max_depth=depth,
            max_bins=max_bins,
            subsample=subsample,
            colsample_bytree=colsample,
            random_state=seed,
        ).fit(X, y)
        assert np.array_equal(model.predict(X_test), predict_tree_loop(model, X_test))

    def test_refit_invalidates_forest(self):
        X, y, X_test = _data(5)
        model = GradientBoostingRegressor(
            n_estimators=10, max_depth=3, random_state=0
        ).fit(X, y)
        first = model.predict(X_test)
        model.fit(X, -y)
        second = model.predict(X_test)
        assert not np.array_equal(first, second)
        assert np.array_equal(second, predict_tree_loop(model, X_test))


class TestStagedPredict:
    def test_snapshots_are_independent(self):
        X, y, X_test = _data(6)
        model = GradientBoostingRegressor(
            n_estimators=8, max_depth=3, random_state=0
        ).fit(X, y)
        stages = list(model.staged_predict(X_test))
        assert len(stages) == 8
        # Mutating one yielded snapshot must not corrupt the others.
        stages[0][:] = np.nan
        assert np.isfinite(stages[1]).all()

    def test_final_stage_matches_predict(self):
        X, y, X_test = _data(7)
        model = GradientBoostingRegressor(
            n_estimators=12, max_depth=4, random_state=0
        ).fit(X, y)
        *_, last = model.staged_predict(X_test)
        assert np.array_equal(last, model.predict(X_test))

    def test_stage_t_matches_truncated_loop(self):
        X, y, X_test = _data(8)
        model = GradientBoostingRegressor(
            n_estimators=6, max_depth=3, random_state=0
        ).fit(X, y)
        stages = list(model.staged_predict(X_test))
        codes = model.binner_.transform(X_test)
        ref = np.full(X_test.shape[0], model.base_score_)
        for t, tree in enumerate(model.trees_):
            ref += model.learning_rate * tree.predict_binned(codes)
            assert np.array_equal(stages[t], ref)

    def test_leaf_value_matrix_rows_sum_to_predict(self):
        X, y, X_test = _data(9)
        model = GradientBoostingRegressor(
            n_estimators=10, max_depth=3, random_state=0
        ).fit(X, y)
        forest = model._ensure_forest()
        vals = forest.leaf_value_matrix(model.binner_.transform(X_test))
        out = np.full(X_test.shape[0], model.base_score_)
        for t in range(vals.shape[0]):
            out += vals[t]
        assert np.array_equal(out, model.predict(X_test))


class TestForestTotals:
    def test_builds_and_predict_seconds_accumulate(self):
        X, y, X_test = _data(10)
        model = GradientBoostingRegressor(
            n_estimators=5, max_depth=3, random_state=0
        ).fit(X, y)
        reset_forest_totals()
        before = forest_totals()
        assert before == {"builds": 0, "predict_seconds": 0.0}
        model.predict(X_test)  # lazy flatten happens here
        model.predict(X_test)
        after = forest_totals()
        assert after["builds"] == 1  # built once, reused after
        assert after["predict_seconds"] > 0.0

    def test_from_trees_counts_one_build(self):
        X, y, _ = _data(11)
        model = GradientBoostingRegressor(
            n_estimators=3, max_depth=2, random_state=0
        ).fit(X, y)
        reset_forest_totals()
        FlattenedForest.from_trees(
            model.trees_, model.learning_rate, model.base_score_, model.max_bins
        )
        assert forest_totals()["builds"] == 1


class TestTrainingKernels:
    def test_fused_and_legacy_reach_equivalent_accuracy(self):
        # The kernels may grow different trees on exact gain ties (their
        # histogram sums round differently at the ulp level), so the
        # contract is statistical: same accuracy on the same data.
        X, y, _ = _data(12, n=400)
        rmse = {}
        for kernel, cls in (
            ("fused", GradientBoostingRegressor),
            ("legacy", LoopGradientBoostingRegressor),
        ):
            model = cls(n_estimators=30, max_depth=4, random_state=0).fit(X, y)
            rmse[kernel] = model.train_scores_[-1]
        assert rmse["fused"] == pytest.approx(rmse["legacy"], rel=0.02)
