"""End-to-end: corrupt JSONL -> lenient ingest -> instrumented chaos
replay -> one registry export carrying every layer's metrics."""

import json
import math

import pytest

from repro.obs import Observability
from repro.serve.chaos import (
    ChaosConfig,
    make_chaos_log,
    run_chaos_replay,
    run_observed_replay,
    write_corrupt_jsonl,
)


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    path = tmp_path_factory.mktemp("obs") / "chaos.jsonl"
    return run_observed_replay(ChaosConfig.quick(), path=path)


class TestWriteCorruptJsonl:
    def test_deterministic_and_counted(self, tmp_path):
        log = make_chaos_log(ChaosConfig.quick())
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        n_a = write_corrupt_jsonl(log, a, every=5)
        n_b = write_corrupt_jsonl(log, b, every=5)
        assert n_a == n_b == len(log) // 5
        assert a.read_text() == b.read_text()
        with pytest.raises(ValueError):
            write_corrupt_jsonl(log, a, every=0)

    def test_corruption_spans_reason_categories(self, tmp_path, observed):
        reasons = observed.quarantine.reason_counts()
        assert set(reasons) >= {
            "invalid_json", "not_object", "missing_field", "invariant_te",
        }
        assert all(n > 0 for n in reasons.values())


class TestObservedReplay:
    def test_replay_survives_on_kept_rows(self, observed):
        assert observed.report.ok
        assert observed.report.facts["predictions"] > 0
        assert observed.quarantine.quarantined_rows > 0
        assert observed.quarantine.kept_rows > 0

    def test_registry_has_every_layer(self, observed):
        flat = observed.registry.flat()
        # serving: latency histogram + tier counters
        assert flat["serve_predict_batch_latency_seconds_count"] > 0
        assert any(k.startswith("serve_tier_predictions_total") and v > 0
                   for k, v in flat.items())
        # ingestion: quarantine counts per reason
        assert any(k.startswith("ingest_quarantined_total") and v > 0
                   for k, v in flat.items())
        assert flat['ingest_rows_total{format="jsonl"}'] == \
            observed.quarantine.total_rows
        # drift: per-edge rolling MdAPE gauges
        assert any(k.startswith("drift_mdape{key=") and 'scope="edge"' in k
                   for k in flat)
        assert flat["drift_observations_total"] > 0
        # tracing: span series from the serving path
        assert any(k.startswith("trace_spans_total") for k in flat)

    def test_drift_summary_in_report(self, observed):
        drift = observed.report.facts["drift"]
        assert drift["observations"] > 0
        assert math.isfinite(drift["overall"]["mdape"])
        assert drift["edges"]
        assert "prediction drift" in observed.report.render()

    def test_exports_parse(self, observed):
        data = json.loads(observed.registry.to_json())
        assert data["histograms"] and data["counters"] and data["gauges"]
        prom = observed.registry.to_prometheus()
        assert "serve_predict_batch_latency_seconds_bucket" in prom
        assert "ingest_quarantined_total" in prom
        assert "drift_mdape" in prom
        # every non-comment line is "<series> <value>"
        for line in prom.splitlines():
            if line.startswith("#") or not line:
                continue
            name, value = line.rsplit(" ", 1)
            assert name
            float(value.replace("+Inf", "inf"))


class TestInstrumentedVsPlainReplay:
    def test_fault_injection_identical_with_obs(self):
        """Drift-scoring probes must not consume replay randomness."""
        cfg = ChaosConfig.quick(seed=7)
        plain = run_chaos_replay(cfg)
        instrumented = run_chaos_replay(cfg, obs=Observability.create())
        assert instrumented.facts["injected_faults"] == \
            plain.facts["injected_faults"]
        assert instrumented.facts["events"] == plain.facts["events"]
        assert instrumented.facts["final_active"] == plain.facts["final_active"]
        assert instrumented.passed("active population consistent")
        assert plain.passed("active population consistent")
        assert instrumented.facts["drift"]["observations"] > 0
        assert "drift" not in plain.facts

    def test_progress_hook_fires(self):
        seen = []
        run_chaos_replay(
            ChaosConfig.quick(),
            progress=lambda report: seen.append(report.facts["events"]),
            progress_every=50,
        )
        assert seen and all(e % 50 == 0 for e in seen)
