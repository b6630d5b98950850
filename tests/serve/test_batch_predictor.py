"""Tests for the vectorized batch prediction engine (repro.serve.batch)."""

import numpy as np
import pytest

from repro.core.online import (
    ActiveTransferView,
    OnlineFeatureEstimator,
    OnlinePredictor,
)
from repro.reference import ReferenceFeatureEstimator, endpoint_columns
from repro.serve import ActiveSet, BatchOnlinePredictor
from repro.serve.bench import (
    make_synthetic_model,
    make_synthetic_requests,
    make_synthetic_views,
    run_serve_bench,
)
from repro.sim.gridftp import TransferRequest


@pytest.fixture(scope="module")
def model():
    return make_synthetic_model(seed=0)


@pytest.fixture(scope="module")
def population():
    return make_synthetic_views(400, n_endpoints=12, seed=3)


class TestBatchFeatureParity:
    def test_matches_scalar_estimator(self, model, population):
        """Bulk feature estimates must equal the reference per-transfer
        Python loop for every request."""
        requests = make_synthetic_requests(60, n_endpoints=12, seed=5)
        durations = np.linspace(10.0, 5000.0, len(requests))
        engine = BatchOnlinePredictor(model, ActiveSet.from_views(population))
        batch = engine.estimate_features(requests, now=0.0, durations=durations)
        scalar = ReferenceFeatureEstimator(population)
        for j, req in enumerate(requests):
            ref = scalar.estimate(req, now=0.0, assumed_duration_s=durations[j])
            for name, arr in batch.items():
                assert arr[j] == pytest.approx(ref[name], rel=1e-9, abs=1e-6), (
                    name, j,
                )

    def test_infinite_expected_end(self, model):
        active = ActiveSet.from_views(
            [
                ActiveTransferView(
                    src="EP000", dst="EP001", rate=2e8, started_at=0.0,
                )
            ]
        )
        engine = BatchOnlinePredictor(model, active)
        req = TransferRequest(src="EP000", dst="EP002", total_bytes=1e9)
        feats = engine.estimate_features([req], now=100.0, durations=np.array([50.0]))
        assert feats["K_sout"][0] == pytest.approx(2e8)  # full overlap forever

    def test_idle_endpoints_zero_contention(self, model):
        engine = BatchOnlinePredictor(model, ActiveSet())
        req = TransferRequest(src="EP000", dst="EP001", total_bytes=1e9)
        feats = engine.estimate_features([req], now=0.0, durations=np.array([100.0]))
        for name in ("K_sout", "K_din", "S_sin", "G_dst"):
            assert feats[name][0] == 0.0
        assert feats["Nb"][0] == 1e9


class TestPredictionParity:
    def test_batch_equals_looped_scalar(self, model, population):
        """The acceptance invariant: identical predictions between the
        batch engine and looping OnlinePredictor.predict."""
        requests = make_synthetic_requests(100, n_endpoints=12, seed=6)
        engine = BatchOnlinePredictor(model, ActiveSet.from_views(population))
        batch = engine.predict_batch(requests, now=0.0)
        scalar = OnlinePredictor(model, OnlineFeatureEstimator(population))
        loop = np.array([scalar.predict(r, now=0.0) for r in requests])
        assert np.allclose(batch, loop, rtol=1e-12, atol=0.0)

    def test_batch_of_one_matches_scalar(self, model, population):
        req = make_synthetic_requests(1, n_endpoints=12, seed=7)[0]
        engine = BatchOnlinePredictor(model, ActiveSet.from_views(population))
        scalar = OnlinePredictor(model, OnlineFeatureEstimator(population))
        assert engine.predict(req, now=0.0) == scalar.predict(req, now=0.0)

    def test_gbt_model_parity(self, population):
        """Same invariant through the nonlinear model's tree traversal."""
        from repro.core.features import FEATURE_NAMES
        from repro.core.pipeline import EdgeModelResult
        from repro.ml.gbt import GradientBoostingRegressor
        from repro.ml.scaler import StandardScaler

        rng = np.random.default_rng(0)
        n = 800
        X = rng.uniform(0, 1e9, (n, len(FEATURE_NAMES)))
        y = 3e8 - 0.1 * X[:, 0] + rng.normal(0, 1e6, n)
        scaler = StandardScaler().fit(X)
        gbt = GradientBoostingRegressor(
            n_estimators=40, max_depth=3, random_state=0
        ).fit(scaler.transform(X), np.maximum(y, 1e6))
        res = EdgeModelResult(
            src="EP000", dst="EP001", model_kind="gbt",
            feature_names=FEATURE_NAMES,
            kept=np.ones(len(FEATURE_NAMES), dtype=bool),
            significance=np.zeros(len(FEATURE_NAMES)),
            n_train=n, n_test=0, test_errors=np.array([0.0]),
            mdape=0.0, model=gbt, scaler=scaler,
        )
        requests = make_synthetic_requests(40, n_endpoints=12, seed=8)
        batch = BatchOnlinePredictor(
            res, ActiveSet.from_views(population)
        ).predict_batch(requests, now=0.0)
        scalar = OnlinePredictor(res, OnlineFeatureEstimator(population))
        loop = np.array([scalar.predict(r, now=0.0) for r in requests])
        assert np.allclose(batch, loop, rtol=1e-12, atol=0.0)

    def test_population_mutations_change_predictions(self, model):
        active = ActiveSet()
        engine = BatchOnlinePredictor(model, active)
        req = TransferRequest(src="EP000", dst="EP001", total_bytes=5e10)
        quiet = engine.predict(req, now=0.0)
        for i in range(4):
            active.add(
                i,
                ActiveTransferView(
                    src="EP000", dst="EP005", rate=4e8, started_at=0.0,
                    concurrency=8, parallelism=8, n_files=1000,
                ),
            )
        busy = engine.predict(req, now=0.0)
        assert busy < quiet
        for i in range(4):
            active.complete(i)
        assert engine.predict(req, now=0.0) == pytest.approx(quiet)


class TestValidationAndStats:
    def test_missing_extra_columns_raise(self, model, population):
        import dataclasses

        fake = dataclasses.replace(
            model, feature_names=model.feature_names + ("ROmax_src",),
            kept=np.ones(len(model.feature_names) + 1, dtype=bool),
        )
        with pytest.raises(KeyError):
            BatchOnlinePredictor(fake, ActiveSet.from_views(population))

    def test_empty_batch(self, model):
        engine = BatchOnlinePredictor(model, ActiveSet())
        assert engine.predict_batch([], now=0.0).shape == (0,)

    def test_bad_controls(self, model):
        with pytest.raises(ValueError):
            BatchOnlinePredictor(model, ActiveSet(), max_iterations=0)
        with pytest.raises(ValueError):
            BatchOnlinePredictor(model, ActiveSet(), tolerance=0.0)

    def test_stats_populated(self, model, population):
        engine = BatchOnlinePredictor(model, ActiveSet.from_views(population))
        requests = make_synthetic_requests(25, n_endpoints=12, seed=9)
        engine.predict_batch(requests, now=0.0)
        s = engine.stats
        assert s.predict_calls == 1 and s.requests == 25
        assert s.fixpoint_iterations >= 1
        assert s.feature_rows >= 25
        assert s.total_time_s > 0.0
        assert s.feature_time_s >= 0.0 and s.model_time_s >= 0.0
        assert s.mean_iterations_per_request >= 1.0
        engine.stats.reset()
        assert engine.stats.requests == 0 and engine.stats.total_time_s == 0.0

    def test_scalar_predictor_exposes_engine_stats(self, model, population):
        scalar = OnlinePredictor(model, OnlineFeatureEstimator(population))
        req = make_synthetic_requests(1, n_endpoints=12, seed=10)[0]
        scalar.predict(req, now=0.0)
        assert scalar.engine.stats.predict_calls == 1
        assert scalar.engine.stats.requests == 1


class TestPredictorStatsRegistryView:
    """Regression: the per-tier dict handling of reset()/as_dict()."""

    def test_reset_empties_tier_counts(self, model, population):
        from repro.serve import FallbackChain, ModelTier

        chain = FallbackChain(
            edge_models={("EP000", "EP001"): model}, default_rate=1e6
        )
        engine = BatchOnlinePredictor(chain, ActiveSet.from_views(population))
        requests = make_synthetic_requests(10, n_endpoints=12, seed=11)
        engine.predict_batch(requests, now=0.0)
        assert len(engine.stats.tier_counts) > 0
        engine.stats.reset()
        # Cleared view: no keys, equal to the empty dict, falsy.
        assert dict(engine.stats.tier_counts) == {}
        assert engine.stats.tier_counts == {}
        assert not engine.stats.tier_counts
        with pytest.raises(KeyError):
            engine.stats.tier_counts[ModelTier.DEFAULT.value]
        # And the next batch counts from zero, not from stale totals.
        engine.predict_batch(requests, now=0.0)
        assert sum(dict(engine.stats.tier_counts).values()) == 10

    def test_as_dict_has_stable_tier_keys(self, model, population):
        from repro.serve import ModelTier

        engine = BatchOnlinePredictor(model, ActiveSet.from_views(population))
        d = engine.stats.as_dict()
        # Every tier key present even before any prediction (0 default),
        # so the export schema never depends on which tiers fired.
        for tier in ModelTier:
            assert d[f"tier_{tier.value}"] == 0
        engine.predict_batch(
            make_synthetic_requests(5, n_endpoints=12, seed=12), now=0.0
        )
        d = engine.stats.as_dict()
        assert d["tier_edge"] == 5
        assert d["tier_default"] == 0

    def test_counters_flow_into_shared_registry(self, model, population):
        from repro.obs import Observability

        obs = Observability.create()
        engine = BatchOnlinePredictor(
            model, ActiveSet.from_views(population, obs=obs), obs=obs
        )
        requests = make_synthetic_requests(8, n_endpoints=12, seed=13)
        engine.predict_batch(requests, now=0.0)
        flat = obs.registry.flat()
        assert flat["serve_requests_total"] == 8
        assert flat["serve_predict_calls_total"] == 1
        assert flat["serve_predict_batch_latency_seconds_count"] == 1
        assert flat['serve_tier_predictions_total{tier="edge"}'] == 8
        # Tracing spans from the predict path land in the same registry.
        assert flat['trace_spans_total{span="serve.predict_batch"}'] == 1

    def test_stats_attributes_stay_assignable(self, model):
        engine = BatchOnlinePredictor(model, ActiveSet())
        engine.stats.requests = 5
        engine.stats.requests += 2
        assert engine.stats.requests == 7
        assert isinstance(engine.stats.requests, int)
        engine.stats.total_time_s = 1.5
        assert engine.stats.total_time_s == pytest.approx(1.5)


class TestServeBenchHarness:
    def test_small_run_agrees_and_reports(self):
        result = run_serve_bench(
            n_active=300, n_requests=40, n_endpoints=8, seed=0
        )
        assert result.max_abs_diff < 1e-6
        assert result.batch_time_s > 0 and result.loop_time_s > 0
        text = result.render()
        assert "speedup" in text and "engine stats" in text

    def test_latency_percentiles_and_overhead(self):
        import math

        result = run_serve_bench(
            n_active=200, n_requests=30, n_endpoints=8, seed=0, repeats=3
        )
        assert result.repeats == 3
        assert result.instrumented_time_s > 0
        assert math.isfinite(result.overhead_pct)
        # Percentiles come from the latency histogram and are ordered.
        assert 0 < result.latency_p50_s <= result.latency_p95_s \
            <= result.latency_p99_s
        text = result.render()
        assert "batch latency p50/p95/p99" in text
        assert "overhead" in text

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            run_serve_bench(n_active=10, n_requests=2, repeats=0)


class TestMergedEndpointIndex:
    """EndpointState.merged must answer all five roles bit-identically."""

    def test_window_sums_match_separate_indexes(self, population):
        from repro.serve.active_set import (
            _M_IN_RATE,
            _M_IN_STREAMS,
            _M_OUT_RATE,
            _M_OUT_STREAMS,
            _M_TOUCH,
        )

        active = ActiveSet.from_views(population)
        b = np.array([100.0, 1500.0, 3600.0])
        for endpoint in ("EP000", "EP005", "EP011"):
            merged = active.endpoint_state(endpoint).merged.window_sums(0.0, b)
            columns = endpoint_columns(active, endpoint)
            out = columns.outgoing.overlap_sum(0.0, b)
            inc = columns.incoming.overlap_sum(0.0, b)
            touch = columns.touch_instances.overlap_sum(0.0, b)
            assert np.array_equal(merged[:, _M_OUT_RATE], out[:, 0])
            assert np.array_equal(merged[:, _M_OUT_STREAMS], out[:, 1])
            assert np.array_equal(merged[:, _M_IN_RATE], inc[:, 0])
            assert np.array_equal(merged[:, _M_IN_STREAMS], inc[:, 1])
            assert np.array_equal(merged[:, _M_TOUCH], touch)

    def test_window_sums_matches_overlap_sum(self, population):
        active = ActiveSet.from_views(population)
        state = active.endpoint_state("EP003")
        b = np.array([50.0, 777.0, 5000.0])
        assert np.array_equal(
            state.merged.window_sums(0.0, b),
            state.merged.overlap_sum(0.0, b),
        )

    def test_window_sums_validation(self, population):
        active = ActiveSet.from_views(population)
        state = active.endpoint_state("EP000")
        with pytest.raises(ValueError):
            state.merged.window_sums(10.0, np.array([5.0]))

    def test_self_loop_counts_both_roles_once(self):
        views = [
            ActiveTransferView(
                src="A", dst="A", rate=100.0, started_at=-10.0,
                expected_end=100.0, concurrency=2, parallelism=2, n_files=8,
            )
        ]
        active = ActiveSet.from_views(views)
        state = active.endpoint_state("A")
        b = np.array([50.0])
        merged = state.merged.window_sums(0.0, b)
        # rate appears in both the outgoing and incoming columns...
        assert merged[0, 0] == pytest.approx(100.0 * 50.0)
        assert merged[0, 2] == pytest.approx(100.0 * 50.0)
        # ...but the instance (G) column counts the transfer once.
        assert merged[0, 4] == pytest.approx(min(2, 8) * 50.0)


class TestForestCountersAndStats:
    def test_forest_counters_attributed_to_gbt_predictions(self, population):
        from repro.core.features import build_feature_matrix
        from repro.core.pipeline import fit_edge_model, select_heavy_edges
        from tests.core.conftest import make_random_store

        store = make_random_store(n=600, n_endpoints=4, seed=0)
        features = build_feature_matrix(store)
        src, dst = select_heavy_edges(store, min_samples=40, threshold=0.0)[0]
        result = fit_edge_model(
            features, src, dst, model="gbt", threshold=0.0, seed=0
        )
        # Fitting computes train/test errors, which already triggers the
        # lazy flatten; drop the snapshot so the serve call rebuilds it and
        # the delta attribution has a build to observe.
        result.model._forest = None
        engine = BatchOnlinePredictor(result, ActiveSet.from_views(population))
        requests = make_synthetic_requests(6, n_endpoints=12, seed=21)
        engine.predict_batch(requests, now=0.0)
        assert engine.stats.forest_builds >= 1
        assert engine.stats.forest_predict_time_s > 0.0
        d = engine.stats.as_dict()
        assert d["forest_builds"] == engine.stats.forest_builds

    def test_linear_model_leaves_forest_counters_zero(self, model, population):
        engine = BatchOnlinePredictor(model, ActiveSet.from_views(population))
        engine.predict_batch(
            make_synthetic_requests(4, n_endpoints=12, seed=22), now=0.0
        )
        assert engine.stats.forest_builds == 0
        assert engine.stats.forest_predict_time_s == 0.0

    def test_mean_feature_rows_alias(self, model, population):
        engine = BatchOnlinePredictor(model, ActiveSet.from_views(population))
        engine.predict_batch(
            make_synthetic_requests(10, n_endpoints=12, seed=23), now=0.0
        )
        assert engine.stats.mean_feature_rows_per_request >= 1.0
        assert engine.stats.mean_iterations_per_request == (
            engine.stats.mean_feature_rows_per_request
        )


class TestSingleRequestLatencyHarness:
    def test_measures_and_reports(self):
        from repro.serve.bench import measure_single_request_latency

        out = measure_single_request_latency(
            n_active=200, n_probe=12, n_endpoints=8, seed=0
        )
        assert out["n_active"] == 200 and out["n_probe"] == 12
        assert 0.0 < out["p50_s"] <= out["p95_s"] <= out["p99_s"] <= out["max_s"]
        assert out["sub_ms_p99"] == (out["p99_s"] < 1e-3)
