"""Tests for the model-driven transfer advisor."""

import numpy as np
import pytest

from repro.core.advisor import (
    DEFAULT_TUNABLE_GRID,
    AdmissionPlanner,
    SourceSelector,
)
from repro.core.features import FEATURE_NAMES
from repro.core.online import OnlineFeatureEstimator
from repro.core.pipeline import EdgeModelResult, GlobalModelResult
from repro.ml.gbt import GradientBoostingRegressor
from repro.ml.scaler import StandardScaler
from repro.reference import TunableAdvisor
from repro.sim.gridftp import TransferRequest


def _synthetic_edge_model(src="A", dst="B", seed=0):
    """A model whose ground truth rewards streams and punishes K_sout."""
    rng = np.random.default_rng(seed)
    n = 2000
    names = FEATURE_NAMES
    X = np.zeros((n, len(names)))
    idx = {name: i for i, name in enumerate(names)}
    X[:, idx["K_sout"]] = rng.uniform(0, 1e9, n)
    X[:, idx["S_sout"]] = rng.uniform(0, 64, n)
    X[:, idx["C"]] = rng.integers(1, 17, n)
    X[:, idx["P"]] = rng.integers(1, 9, n)
    X[:, idx["Nb"]] = rng.uniform(1e8, 1e12, n)
    # Mixture with a point mass at Nf=1 so the model can learn the
    # min(C, Nf) interaction at the single-file corner.
    X[:, idx["Nf"]] = np.where(
        rng.uniform(size=n) < 0.3, 1, rng.integers(2, 1000, n)
    )
    streams = np.minimum(X[:, idx["C"]], X[:, idx["Nf"]]) * X[:, idx["P"]]
    y = (30e6 * np.minimum(streams, 32)) / (1.0 + X[:, idx["K_sout"]] / 3e8)
    scaler = StandardScaler().fit(X)
    model = GradientBoostingRegressor(
        n_estimators=120, max_depth=4, random_state=0
    ).fit(scaler.transform(X), y)
    return EdgeModelResult(
        src=src, dst=dst, model_kind="gbt", feature_names=names,
        kept=np.ones(len(names), dtype=bool),
        significance=np.zeros(len(names)),
        n_train=n, n_test=0, test_errors=np.array([0.0]), mdape=0.0,
        model=model, scaler=scaler,
    )


def _request(src="A", dst="B", **kw):
    defaults = dict(total_bytes=100e9, n_files=200, n_dirs=5,
                    concurrency=2, parallelism=4)
    defaults.update(kw)
    return TransferRequest(src=src, dst=dst, **defaults)


class TestTunableAdvisor:
    def test_recommends_higher_parallelism_when_it_pays(self):
        advisor = TunableAdvisor(_synthetic_edge_model(), OnlineFeatureEstimator([]))
        rec = advisor.recommend(_request())
        # Ground truth rewards streams up to 32: best candidates have
        # min(C, Nf) * P >= 32.
        assert min(rec.concurrency, 200) * rec.parallelism >= 16
        assert rec.predicted_rate > 0
        assert rec.gain_over_worst > 1.5

    def test_alternatives_sorted(self):
        advisor = TunableAdvisor(_synthetic_edge_model(), OnlineFeatureEstimator([]))
        rec = advisor.recommend(_request())
        rates = [alt[2] for alt in rec.alternatives]
        assert rates == sorted(rates, reverse=True)
        assert len(rec.alternatives) == len(DEFAULT_TUNABLE_GRID)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TunableAdvisor(_synthetic_edge_model(), OnlineFeatureEstimator([]), grid=())
        with pytest.raises(ValueError):
            TunableAdvisor(
                _synthetic_edge_model(), OnlineFeatureEstimator([]),
                grid=((0, 4),),
            )

    def test_single_file_dataset_ignores_concurrency(self):
        """With Nf=1, min(C, Nf)=1 always: recommendations with different C
        but same P predict the same rate."""
        advisor = TunableAdvisor(
            _synthetic_edge_model(), OnlineFeatureEstimator([]),
            grid=((1, 4), (8, 4)),
        )
        rec = advisor.recommend(_request(n_files=1))
        r1 = rec.alternatives[0][2]
        r2 = rec.alternatives[1][2]
        # GBT may pick up incidental splits on the raw C column, so the
        # tie is approximate rather than exact.
        assert r1 == pytest.approx(r2, rel=0.35)


class TestTunableRecommendationDegenerate:
    def _rec(self, rates):
        from repro.reference import TunableRecommendation

        alts = tuple(
            (c, p, r) for (c, p), r in zip(DEFAULT_TUNABLE_GRID, rates)
        )
        best = alts[0]
        return TunableRecommendation(
            concurrency=best[0], parallelism=best[1],
            predicted_rate=best[2], alternatives=alts,
        )

    def test_zero_worst_rate_is_not_infinite_gain(self):
        """A worst candidate at rate 0 used to make gain_over_worst inf;
        the sweep must instead read as degenerate with gain 1.0."""
        rates = [2e8] * (len(DEFAULT_TUNABLE_GRID) - 1) + [0.0]
        rec = self._rec(rates)
        assert rec.degenerate
        assert rec.gain_over_worst == 1.0
        assert np.isfinite(rec.gain_over_worst)
        assert not rec.confident

    def test_all_zero_sweep_not_confident(self):
        rec = self._rec([0.0] * len(DEFAULT_TUNABLE_GRID))
        assert rec.degenerate
        assert rec.gain_over_worst == 1.0
        assert not rec.confident

    def test_negative_rate_is_degenerate(self):
        rates = [2e8] * (len(DEFAULT_TUNABLE_GRID) - 1) + [-1.0]
        rec = self._rec(rates)
        assert rec.degenerate and rec.gain_over_worst == 1.0

    def test_nonfinite_rate_is_degenerate(self):
        rates = [2e8] * (len(DEFAULT_TUNABLE_GRID) - 1) + [np.nan]
        rec = self._rec(rates)
        assert rec.degenerate and not rec.confident

    def test_healthy_sweep_unchanged(self):
        rates = list(np.linspace(4e8, 1e8, len(DEFAULT_TUNABLE_GRID)))
        rec = self._rec(rates)
        assert not rec.degenerate
        assert rec.gain_over_worst == pytest.approx(4.0)
        assert rec.confident


class TestSourceSelector:
    def _global_model(self):
        rng = np.random.default_rng(1)
        n = 1500
        names = FEATURE_NAMES + ("ROmax_src", "RImax_dst")
        X = np.zeros((n, len(names)))
        idx = {name: i for i, name in enumerate(names)}
        X[:, idx["Nb"]] = rng.uniform(1e8, 1e12, n)
        X[:, idx["ROmax_src"]] = rng.uniform(1e7, 2e9, n)
        X[:, idx["RImax_dst"]] = rng.uniform(1e7, 2e9, n)
        y = np.minimum(X[:, idx["ROmax_src"]], X[:, idx["RImax_dst"]]) * 0.5
        scaler = StandardScaler().fit(X)
        model = GradientBoostingRegressor(
            n_estimators=80, max_depth=3, random_state=0
        ).fit(scaler.transform(X), y)
        return GlobalModelResult(
            model_kind="gbt", feature_names=names, n_train=n, n_test=0,
            test_errors=np.array([0.0]), mdape=0.0, model=model, scaler=scaler,
        )

    def test_ranks_stronger_source_first(self):
        caps = {"fast": (1.5e9, 1.5e9), "slow": (5e7, 5e7), "dst": (1e9, 1e9)}
        selector = SourceSelector(
            self._global_model(), OnlineFeatureEstimator([]),
            capability_lookup=lambda ep: caps[ep],
        )
        ranked = selector.rank(["slow", "fast"], "dst", _request(src="slow", dst="dst"))
        assert ranked[0][0] == "fast"
        assert ranked[0][1] > ranked[1][1]

    def test_destination_excluded_from_sources(self):
        caps = {"a": (1e9, 1e9), "dst": (1e9, 1e9)}
        selector = SourceSelector(
            self._global_model(), OnlineFeatureEstimator([]),
            capability_lookup=lambda ep: caps[ep],
        )
        ranked = selector.rank(["a", "dst"], "dst", _request(src="a", dst="dst"))
        assert [s for s, _ in ranked] == ["a"]
        with pytest.raises(ValueError):
            selector.rank(["dst"], "dst", _request(src="a", dst="dst"))

    def test_every_source_equal_to_destination_rejected(self):
        """A replica list that only contains the destination itself must
        raise cleanly, not return an empty ranking."""
        caps = {"dst": (1e9, 1e9)}
        selector = SourceSelector(
            self._global_model(), OnlineFeatureEstimator([]),
            capability_lookup=lambda ep: caps[ep],
        )
        with pytest.raises(ValueError, match="destination"):
            selector.rank(["dst", "dst", "dst"], "dst",
                          _request(src="dst", dst="dst"))
        with pytest.raises(ValueError, match="no candidate sources"):
            selector.rank([], "dst", _request(src="a", dst="dst"))

    def test_rtt_model_requires_distance_fn(self):
        res = self._global_model()
        res.feature_names = res.feature_names + ("distance_km",)
        with pytest.raises(ValueError):
            SourceSelector(
                res, OnlineFeatureEstimator([]), capability_lookup=lambda e: (1, 1)
            )


class TestAdmissionPlanner:
    def test_plans_whole_backlog_once_each(self):
        models = {
            ("A", "B"): _synthetic_edge_model("A", "B"),
            ("A", "C"): _synthetic_edge_model("A", "C", seed=1),
        }
        backlog = [
            _request(src="A", dst="B", total_bytes=50e9),
            _request(src="A", dst="C", total_bytes=20e9),
            _request(src="A", dst="B", total_bytes=80e9),
        ]
        plan = AdmissionPlanner(models, max_active_per_endpoint=2).plan(backlog)
        assert len(plan) == 3
        assert {id(p.request) for p in plan} == {id(r) for r in backlog}
        for p in plan:
            assert p.predicted_end > p.start_at
            assert p.predicted_rate > 0

    def test_endpoint_cap_staggers_starts(self):
        models = {("A", "B"): _synthetic_edge_model("A", "B")}
        backlog = [
            _request(src="A", dst="B", total_bytes=50e9) for _ in range(4)
        ]
        plan = AdmissionPlanner(models, max_active_per_endpoint=2).plan(backlog)
        starts = sorted(p.start_at for p in plan)
        # Only two may start immediately; the rest wait for completions.
        assert starts[0] == starts[1] == 0.0
        assert starts[2] > 0.0 and starts[3] > 0.0

    def test_unmodeled_edge_rejected(self):
        planner = AdmissionPlanner({("A", "B"): _synthetic_edge_model()})
        with pytest.raises(KeyError):
            planner.plan([_request(src="X", dst="Y")])

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            AdmissionPlanner({}, max_active_per_endpoint=0)
