"""Tests for the chaos-replay fault-injection harness (repro.serve.chaos)."""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.serve import ModelTier
from repro.serve.chaos import (
    ChaosConfig,
    Verdict,
    make_chaos_chain,
    make_chaos_log,
    make_mutation_stream,
    run_chaos_replay,
)


class TestConfig:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            ChaosConfig(p_bad_progress=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(n_endpoints=2)
        with pytest.raises(ValueError):
            ChaosConfig(predict_every=0)

    def test_quick_is_small(self):
        quick = ChaosConfig.quick()
        assert quick.n_transfers < ChaosConfig().n_transfers


class TestLogAndChain:
    def test_log_reproducible(self):
        cfg = ChaosConfig.quick(seed=5)
        a, b = make_chaos_log(cfg), make_chaos_log(cfg)
        assert np.array_equal(a.raw(), b.raw())
        assert len(a) == cfg.n_transfers

    def test_chain_has_all_tiers(self):
        cfg = ChaosConfig.quick()
        chain = make_chaos_chain(make_chaos_log(cfg), cfg)
        assert len(chain.edge_models) == cfg.n_edge_models
        assert chain.global_model is not None
        assert chain.endpoint_maxima and chain.edge_medians
        assert chain.global_median > 0


class TestReplay:
    def test_lenient_run_is_clean(self):
        """Acceptance: all injectors enabled, zero crashes, zero NaN
        predictions, consistent active population."""
        report = run_chaos_replay(ChaosConfig.quick())
        facts = report.facts
        assert report.ok, report.render()
        assert facts["bad_predictions"] == 0
        assert report.failed == []
        assert facts["final_active"] == facts["expected_active"]
        assert facts["predictions"] > 0
        # Faults were actually injected and absorbed.
        assert sum(facts["injected_faults"].values()) > 0
        assert sum(
            facts["active_set_stats"][k]
            for k in ("ignored_adds", "ignored_completes", "rejected_progress")
        ) > 0
        # Fallback routing happened: at least edge + one degraded tier.
        assert ModelTier.EDGE.value in facts["prediction_tiers"]
        assert len(facts["prediction_tiers"]) >= 2

    def test_strict_active_survives_via_rejections(self):
        cfg = dataclasses.replace(ChaosConfig.quick(), lenient=False)
        report = run_chaos_replay(cfg)
        assert report.ok, report.render()
        assert report.facts["rejected_strict"] > 0
        assert report.facts["active_set_stats"]["ignored_completes"] == 0

    def test_no_global_model_exercises_analytical_tier(self):
        cfg = dataclasses.replace(
            ChaosConfig.quick(), use_global_model=False, seed=3
        )
        report = run_chaos_replay(cfg)
        assert report.ok, report.render()
        assert ModelTier.GLOBAL.value not in report.facts["prediction_tiers"]
        assert ModelTier.ANALYTICAL.value in report.facts["prediction_tiers"]

    def test_deterministic_given_seed(self):
        cfg = ChaosConfig.quick(seed=11)
        a, b = run_chaos_replay(cfg).facts, run_chaos_replay(cfg).facts
        assert a["injected_faults"] == b["injected_faults"]
        assert a["prediction_tiers"] == b["prediction_tiers"]
        assert a["predictions"] == b["predictions"]
        assert a["final_active"] == b["final_active"]

    def test_render_summarises(self):
        report = run_chaos_replay(ChaosConfig.quick())
        text = report.render()
        assert "verdict" in text and "OK" in text
        assert "prediction tiers" in text and "injected faults" in text

    def test_replay_without_predictions_fails(self):
        """Five transfers never reach the 25-mutation prediction cadence:
        a proof over zero predictions must not pass."""
        report = run_chaos_replay(ChaosConfig(n_transfers=5, n_endpoints=4))
        assert report.facts["predictions"] == 0
        assert not report.passed("every prediction finite and positive")
        assert not report.ok


class TestMutationStream:
    def test_wire_pairs_in_data_time_order(self):
        stream = make_mutation_stream(ChaosConfig.quick(seed=2))
        times = [t for t, _ in stream]
        assert times == sorted(times)
        assert {m[0] for _, m in stream} == {
            "add", "progress", "complete", "drift"}
        # Strict JSON, as a shard frame requires: non-finite rates ride
        # as strings.
        json.dumps([m for _, m in stream], allow_nan=False)
        bad = {m[2] for _, m in stream
               if m[0] == "progress" and isinstance(m[2], str)}
        assert bad and all(not math.isfinite(float(v)) for v in bad)

    def test_counts_every_injected_fault(self):
        cfg = ChaosConfig.quick(seed=4)
        stream = make_mutation_stream(cfg)
        ops = [m for _, m in stream]
        adds = [m[1] for m in ops if m[0] == "add"]
        assert len(adds) - len(set(adds)) == stream.injected["duplicate_add"]
        unknown = [m for m in ops if m[0] == "complete" and m[1] >= 10**9]
        assert len(unknown) == stream.injected["unknown_complete"]
        completes = [m[1] for m in ops if m[0] == "complete"
                     and m[1] < 10**9]
        assert len(set(completes)) == (
            cfg.n_transfers - stream.injected.get("never_complete", 0))

    def test_same_log_same_stream(self):
        cfg = ChaosConfig.quick(seed=6)
        log = make_chaos_log(cfg)
        assert make_mutation_stream(cfg, log).mutations == \
            make_mutation_stream(cfg).mutations


class TestVerdict:
    def test_ok_needs_a_check(self):
        assert not Verdict().ok
        v = Verdict(title="t")
        v.check("a", True)
        assert v.ok and v.passed("a") and not v.passed("missing")
        v.check("b", False, "why")
        assert not v.ok and v.failed == [("b", False, "why")]

    def test_render_and_as_dict(self):
        v = Verdict(title="demo", facts={"count": 3, "tiers": {"edge": 2},
                                         "nested": {"x": {"y": 1}}})
        v.check("first check", True, "detail")
        text = v.render()
        assert text.splitlines()[0] == "demo"
        assert "verdict                   OK" in text
        assert "first check               OK  (detail)" in text
        assert "count                     3" in text and "tiers:" in text
        assert "nested" not in text
        d = v.as_dict()
        assert d["ok"] is True and d["count"] == 3
        assert d["checks"] == [["first check", True, "detail"]]
