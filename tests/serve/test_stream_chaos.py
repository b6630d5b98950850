"""The streaming chaos harness is itself the acceptance proof — these
tests run it and hold it to its own verdicts."""

import pytest

from repro.obs import Observability
from repro.serve.fallback import ModelTier
from repro.serve.stream import StreamChaosConfig, run_stream_chaos


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    work = tmp_path_factory.mktemp("stream-chaos")
    obs = Observability.create(trace=False)
    out = run_stream_chaos(StreamChaosConfig.quick(), work_dir=work, obs=obs)
    out.facts["registry_flat"] = obs.registry.flat()
    return out


class TestExactlyOnce:
    def test_every_kept_record_applied_exactly_once(self, report):
        facts = report.facts
        assert facts["reference_records"] > 50
        assert facts["applied_records"] == facts["reference_records"]
        assert facts["applied_digest"] == facts["reference_digest"]
        assert report.passed("exactly-once ingestion")

    def test_crashes_actually_happened(self, report):
        assert report.facts["crashes_injected"] >= 2
        assert report.facts["incarnations"] > report.facts["crashes_injected"]

    def test_corruption_actually_happened(self, report):
        assert report.facts["quarantined_rows"] > 0


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self, report):
        assert report.facts["breaker_state"] == "OPEN"
        assert report.facts["breaker_opens"] >= 1
        assert report.facts["poisoned_refit_failures"] >= 2

    def test_open_edge_is_descheduled(self, report):
        assert not report.facts["poisoned_still_scheduled"]

    def test_serving_falls_back_with_provenance(self, report):
        assert report.facts["poisoned_rate"] > 0
        assert report.facts["poisoned_tier"] in {
            ModelTier.GLOBAL.value, ModelTier.ANALYTICAL.value,
            ModelTier.MEDIAN.value, ModelTier.DEFAULT.value}


class TestNeverUnseated:
    def test_live_model_survives_corrupt_publishes(self, report):
        facts = report.facts
        assert facts["corrupt_artifacts_published"] >= 1
        assert facts["rollbacks"] >= facts["corrupt_artifacts_published"]
        assert facts["live_model_preserved"]


class TestResets:
    def test_truncation_and_rotation_reingest_exactly(self, report):
        facts = report.facts
        assert facts["truncation_resets"] >= 1
        assert facts["rotation_resets"] >= 1
        assert facts["reset_applied_records"] == \
            facts["reset_reference_records"]
        assert facts["reset_digest_equal"]


class TestAlertDeterminism:
    """Satellite of the exactly-once guarantee: burn-rate alerts must
    fire identically on a crash-riddled run and its uninterrupted
    reference — same transitions, same engine-local sequence numbers."""

    def test_at_least_one_alert_fired(self, report):
        # A proof over zero alerts proves nothing.
        assert report.facts["alerts_fired"] >= 1

    def test_crash_run_matches_reference_ledger(self, report):
        assert report.facts["alert_transitions"] == \
            report.facts["reference_alert_transitions"]
        assert report.facts["alerts_match"]

    def test_slo_sample_windows_converge(self, report):
        assert report.facts["slo_samples_match"]

    def test_event_sink_has_no_duplicate_or_phantom_seqs(self, report):
        assert report.facts["event_seqs_unique"]

    def test_every_alert_transition_is_durable_in_the_sink(self, report):
        assert report.facts["alert_events_durable"]

    def test_folded_into_overall_verdict(self, report):
        assert report.passed("alert determinism")


class TestVerdict:
    def test_overall_ok_and_renders(self, report):
        assert report.ok
        text = report.render()
        assert "verdict" in text and "OK" in text
        assert report.facts["poisoned_edge"] in text

    def test_stream_metrics_exported(self, report):
        flat = report.facts["registry_flat"]
        assert flat["stream_checkpoints_total"] > 0
        assert flat["stream_recoveries_total"] > 0
        assert flat["stream_applied_records_total"] > 0
        # (Tail-reset counters live in scenario B's own registry.)
        assert any(k.startswith("stream_refits_total") for k in flat)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="phases"):
            StreamChaosConfig(phases=1)
        with pytest.raises(ValueError, match="transfers"):
            StreamChaosConfig(n_transfers=10)
