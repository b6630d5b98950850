"""Tests for the vectorized advisory layer (repro.serve.advise)."""

import numpy as np
import pytest

from repro.core.advisor import DEFAULT_TUNABLE_GRID
from repro.core.analytical import EndpointMaxima
from repro.core.features import FEATURE_NAMES
from repro.core.online import ActiveTransferView, OnlineFeatureEstimator
from repro.core.pipeline import EdgeModelResult
from repro.ml.gbt import GradientBoostingRegressor
from repro.ml.scaler import StandardScaler
from repro.obs import Observability
from repro.reference import TunableAdvisor
from repro.serve import (
    ActiveSet,
    FallbackChain,
    FleetScheduler,
    ModelTier,
    SweepAdvisor,
    SweepCandidate,
    SweepRecommendation,
)
from repro.sim.gridftp import TransferRequest


def _edge_model(src="A", dst="B", seed=0):
    """A fitted model whose ground truth rewards streams, punishes K_sout."""
    rng = np.random.default_rng(seed)
    n = 900
    names = FEATURE_NAMES
    X = np.zeros((n, len(names)))
    idx = {name: i for i, name in enumerate(names)}
    X[:, idx["K_sout"]] = rng.uniform(0, 1e9, n)
    X[:, idx["C"]] = rng.integers(1, 17, n)
    X[:, idx["P"]] = rng.integers(1, 9, n)
    X[:, idx["Nb"]] = rng.uniform(1e8, 1e12, n)
    X[:, idx["Nf"]] = rng.integers(1, 1000, n)
    streams = np.minimum(X[:, idx["C"]], X[:, idx["Nf"]]) * X[:, idx["P"]]
    y = (30e6 * np.minimum(streams, 32)) / (1.0 + X[:, idx["K_sout"]] / 3e8)
    scaler = StandardScaler().fit(X)
    model = GradientBoostingRegressor(
        n_estimators=60, max_depth=3, random_state=0
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


def _views(n=6, seed=0):
    rng = np.random.default_rng(seed)
    eps = ["A", "B", "C", "D"]
    out = []
    for _ in range(n):
        src, dst = rng.choice(eps, size=2, replace=False)
        out.append(ActiveTransferView(
            src=str(src), dst=str(dst),
            rate=float(rng.uniform(1e7, 1e9)),
            started_at=float(rng.uniform(0, 50)),
            expected_end=float(rng.uniform(200, 800)),
        ))
    return out


class TestSweepAdvisorParity:
    def test_bit_identical_to_scalar_sweep(self):
        """The single-batch vectorized sweep must rank (C, P, rate)
        exactly as the scalar per-candidate reference path."""
        model = _edge_model()
        views = _views(8, seed=3)
        scalar = TunableAdvisor(model, OnlineFeatureEstimator(views))
        vector = SweepAdvisor(model, ActiveSet.from_views(views), clip=False)
        req = _request()
        r1 = scalar.recommend(req, now=100.0)
        r2 = vector.recommend(req, now=100.0)
        scalar_ranked = [
            (c, p, float(rate).hex()) for c, p, rate in r1.alternatives
        ]
        vector_ranked = [
            (a.concurrency, a.parallelism, float(a.predicted_rate).hex())
            for a in r2.alternatives
        ]
        assert scalar_ranked == vector_ranked
        assert r2.gain_over_worst == r1.gain_over_worst
        assert r2.confident == r1.confident

    def test_tie_break_matches_grid_order(self):
        """A constant-rate tier predicts identical rates for every
        candidate; the stable sort must preserve grid order, exactly as
        the scalar stable sort does."""
        chain = FallbackChain(global_median=2e8)
        adv = SweepAdvisor(chain, ActiveSet())
        rec = adv.recommend(_request(src="X", dst="Y"))
        pairs = [(a.concurrency, a.parallelism) for a in rec.alternatives]
        assert pairs == list(DEFAULT_TUNABLE_GRID)


class TestSweepAdvisorChain:
    def test_unmodeled_edge_degrades_with_provenance(self):
        chain = FallbackChain(
            edge_models={("A", "B"): _edge_model()},
            edge_medians={("X", "Y"): 1.5e8},
            global_median=1e8,
        )
        adv = SweepAdvisor(chain, ActiveSet())
        rec = adv.recommend(_request(src="X", dst="Y"))
        assert rec.tier is ModelTier.MEDIAN
        assert all(a.tier is ModelTier.MEDIAN for a in rec.alternatives)
        assert rec.predicted_rate == pytest.approx(1.5e8)

    def test_eq1_bound_clips_predictions(self):
        bound = 5e7  # far below what the model predicts
        chain = FallbackChain(
            edge_models={("A", "B"): _edge_model()},
            endpoint_maxima={
                "A": EndpointMaxima("A", dr_max=bound, dw_max=bound),
                "B": EndpointMaxima("B", dr_max=bound, dw_max=bound),
            },
        )
        adv = SweepAdvisor(chain, ActiveSet())
        rec = adv.recommend(_request())
        assert rec.bound == pytest.approx(bound)
        assert rec.predicted_rate <= bound
        clipped = [a for a in rec.alternatives if a.clipped]
        assert clipped
        for a in clipped:
            assert a.predicted_rate == pytest.approx(bound)
            assert a.raw_rate > bound

    def test_no_clip_disables_bound(self):
        bound = 5e7
        chain = FallbackChain(
            edge_models={("A", "B"): _edge_model()},
            endpoint_maxima={
                "A": EndpointMaxima("A", dr_max=bound, dw_max=bound),
                "B": EndpointMaxima("B", dr_max=bound, dw_max=bound),
            },
        )
        adv = SweepAdvisor(chain, ActiveSet(), clip=False)
        rec = adv.recommend(_request())
        assert rec.bound is None
        assert not any(a.clipped for a in rec.alternatives)
        assert rec.predicted_rate > bound

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepAdvisor(_edge_model(), ActiveSet(), grid=())
        with pytest.raises(ValueError):
            SweepAdvisor(_edge_model(), ActiveSet(), grid=((0, 4),))

    def test_metrics_and_span(self):
        obs = Observability.create()
        adv = SweepAdvisor(FallbackChain(global_median=1e8), ActiveSet(),
                           obs=obs)
        adv.recommend(_request(src="X", dst="Y"))
        flat = obs.registry.flat()
        assert flat["advise_sweeps_total"] == 1.0
        assert flat["advise_candidates_total"] == len(DEFAULT_TUNABLE_GRID)
        assert any(s.name == "advise.sweep" for s in obs.tracer.spans())


class TestSweepRecommendationDegenerate:
    def _candidates(self, rates):
        return tuple(
            SweepCandidate(concurrency=c, parallelism=p, predicted_rate=r,
                           raw_rate=r, tier=ModelTier.EDGE)
            for (c, p), r in zip(DEFAULT_TUNABLE_GRID, rates)
        )

    def test_zero_worst_rate_is_not_infinite_gain(self):
        rates = [2e8] * (len(DEFAULT_TUNABLE_GRID) - 1) + [0.0]
        rec = SweepRecommendation("A", "B", self._candidates(rates))
        assert rec.degenerate
        assert rec.gain_over_worst == 1.0
        assert not rec.confident

    def test_all_zero_sweep(self):
        rec = SweepRecommendation(
            "A", "B", self._candidates([0.0] * len(DEFAULT_TUNABLE_GRID))
        )
        assert rec.degenerate
        assert rec.gain_over_worst == 1.0
        assert not rec.confident

    def test_negative_rate_is_degenerate(self):
        rates = [2e8] * (len(DEFAULT_TUNABLE_GRID) - 1) + [-5.0]
        rec = SweepRecommendation("A", "B", self._candidates(rates))
        assert rec.degenerate and rec.gain_over_worst == 1.0

    def test_healthy_sweep_keeps_real_gain(self):
        rates = sorted(
            np.linspace(1e8, 4e8, len(DEFAULT_TUNABLE_GRID)), reverse=True
        )
        rec = SweepRecommendation("A", "B", self._candidates(rates))
        assert not rec.degenerate
        assert rec.gain_over_worst == pytest.approx(4.0)
        assert rec.confident

    def test_empty_alternatives_rejected(self):
        with pytest.raises(ValueError):
            SweepRecommendation("A", "B", ())

    def test_as_dict_round_trips_tiers(self):
        rec = SweepRecommendation(
            "A", "B",
            self._candidates([2e8] * len(DEFAULT_TUNABLE_GRID)), bound=3e8,
        )
        d = rec.as_dict()
        assert d["tier"] == "edge"
        assert d["bound"] == 3e8
        assert len(d["alternatives"]) == len(DEFAULT_TUNABLE_GRID)


class TestFleetScheduler:
    def _chain(self):
        return FallbackChain(
            edge_models={("A", "B"): _edge_model()},
            edge_medians={("C", "D"): 2e8},
            global_median=1e8,
        )

    def test_plans_whole_backlog_with_mixed_tiers(self):
        sched = FleetScheduler(self._chain(), max_active_per_endpoint=2)
        backlog = [
            _request(src="A", dst="B", total_bytes=50e9),
            _request(src="C", dst="D", total_bytes=20e9),
            _request(src="X", dst="Y", total_bytes=10e9),
        ]
        plan = sched.plan(backlog)
        assert len(plan.entries) == 3
        assert {id(e.request) for e in plan.entries} == {id(r) for r in backlog}
        tiers = {e.tier for e in plan.entries}
        assert ModelTier.EDGE in tiers
        assert ModelTier.MEDIAN in tiers
        for e in plan.entries:
            assert e.predicted_end > e.start_at
            assert e.predicted_rate > 0

    def test_planner_never_worse_than_fifo(self):
        sched = FleetScheduler(self._chain(), max_active_per_endpoint=2)
        backlog = (
            [_request(src="A", dst="B", total_bytes=40e9) for _ in range(5)]
            + [_request(src="C", dst="D", total_bytes=15e9) for _ in range(3)]
        )
        bench = sched.benchmark(backlog)
        assert bench.planner_no_worse_than_fifo
        assert bench.plans["planner"].makespan <= bench.plans["fifo"].makespan
        assert "planner" in bench.render()

    def test_endpoint_cap_staggers_starts(self):
        sched = FleetScheduler(self._chain(), max_active_per_endpoint=2)
        backlog = [_request(src="A", dst="B", total_bytes=50e9)
                   for _ in range(4)]
        plan = sched.plan(backlog)
        starts = sorted(e.start_at for e in plan.entries)
        assert starts[0] == starts[1] == 0.0
        assert starts[2] > 0.0 and starts[3] > 0.0

    def test_live_actives_occupy_slots(self):
        active = ActiveSet.from_views([
            ActiveTransferView(src="A", dst="B", rate=1e8, started_at=0.0,
                               expected_end=500.0),
        ])
        sched = FleetScheduler(self._chain(), max_active_per_endpoint=1)
        plan = sched.plan([_request(src="A", dst="B")], active=active)
        # The single slot at both endpoints is taken until t=500.
        assert plan.entries[0].start_at >= 500.0

    def test_saturated_endpoints_raise(self):
        """Every slot held by in-flight transfers with unknown completion:
        the backlog can never be admitted and the planner must say so."""
        active = ActiveSet.from_views([
            ActiveTransferView(src="A", dst="B", rate=1e8, started_at=0.0,
                               expected_end=np.inf),
        ])
        sched = FleetScheduler(self._chain(), max_active_per_endpoint=1)
        with pytest.raises(ValueError, match="cannot be scheduled"):
            sched.plan([_request(src="A", dst="B")], active=active)

    def test_callers_active_set_not_mutated(self):
        views = _views(5, seed=7)
        active = ActiveSet.from_views(views)
        before = len(active)
        sched = FleetScheduler(self._chain(), max_active_per_endpoint=4)
        sched.plan([_request(src="A", dst="B") for _ in range(6)],
                   active=active)
        assert len(active) == before
        assert active.views() == views

    def test_eq1_bound_caps_planned_rates(self):
        bound = 4e7
        chain = FallbackChain(
            edge_models={("A", "B"): _edge_model()},
            endpoint_maxima={
                "A": EndpointMaxima("A", dr_max=bound, dw_max=bound),
                "B": EndpointMaxima("B", dr_max=bound, dw_max=bound),
            },
        )
        sched = FleetScheduler(chain, max_active_per_endpoint=4)
        plan = sched.plan([_request(src="A", dst="B")])
        assert plan.entries[0].predicted_rate <= bound
        assert plan.entries[0].clipped

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            FleetScheduler(self._chain(), max_active_per_endpoint=0)
        with pytest.raises(TypeError):
            FleetScheduler(_edge_model())
        sched = FleetScheduler(self._chain())
        with pytest.raises(ValueError):
            sched.plan([_request()], policy="random")

    def test_plain_mapping_accepted(self):
        sched = FleetScheduler({("A", "B"): _edge_model()})
        plan = sched.plan([_request(src="A", dst="B")])
        assert plan.entries[0].tier is ModelTier.EDGE

    def test_metrics_and_span(self):
        obs = Observability.create()
        sched = FleetScheduler(self._chain(), obs=obs)
        sched.plan([_request(src="A", dst="B"),
                    _request(src="C", dst="D")])
        flat = obs.registry.flat()
        assert flat["advise_plans_total"] == 1.0
        assert flat["advise_planned_transfers_total"] == 2.0
        assert flat["advise_plan_rounds_total"] >= 2.0
        assert any(s.name == "advise.plan" for s in obs.tracer.spans())

    def test_plan_as_dict_json_ready(self):
        import json

        sched = FleetScheduler(self._chain())
        bench = sched.benchmark([_request(src="A", dst="B")])
        payload = json.dumps(bench.as_dict())
        assert "planner_no_worse_than_fifo" in payload
        plan = sched.plan([_request(src="A", dst="B")])
        d = plan.as_dict()
        assert d["entries"][0]["tier"] == "edge"
        assert d["makespan_s"] > 0
