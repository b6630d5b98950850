"""The crash-injection acceptance property (repro.serve.chaos crash mode).

For any kill point and any journal-tail tear offset, recovery plus
re-delivery of the unacknowledged suffix must reproduce — bit for bit —
the active population, the drift windows and gauges, and the predictions
of an uninterrupted run over the same event stream.
"""

import pytest

from repro.serve.chaos import (
    ChaosConfig,
    make_mutation_stream,
    run_crash_replay,
)


@pytest.fixture(scope="module")
def quick():
    return ChaosConfig.quick(seed=11)


class TestEventStream:
    def test_deterministic(self, quick):
        # Plain equality holds: NaN rates ride in wire form ("nan").
        a, b = make_mutation_stream(quick), make_mutation_stream(quick)
        assert a.mutations == b.mutations and a.injected == b.injected

    def test_covers_all_ops(self, quick):
        ops = {m[0] for _, m in make_mutation_stream(quick)}
        assert ops == {"add", "progress", "complete", "drift"}


class TestCrashProperty:
    def test_default_kill_is_equivalent(self, quick):
        report = run_crash_replay(quick)
        assert report.ok, report.render()
        assert report.facts["recovery"]["snapshot_generation"] >= 1
        assert report.facts["resumed_events"] > 0
        assert report.facts["max_prediction_delta"] == 0.0

    @pytest.mark.parametrize("fraction", [0.0, 0.15, 0.5, 0.85, 1.0])
    def test_kill_anywhere(self, quick, fraction):
        n = len(make_mutation_stream(quick))
        report = run_crash_replay(
            quick, kill_after_events=int(n * fraction))
        assert report.ok, report.render()

    @pytest.mark.parametrize("cut", [0, 1, 3, 4, 9, 64])
    def test_tear_at_any_byte_offset(self, quick, cut):
        """Cut sizes straddle header (8B) and payload boundaries."""
        report = run_crash_replay(quick, cut_bytes=cut)
        assert report.ok, report.render()
        if cut:
            assert report.facts["recovery"]["truncated_bytes"] >= cut

    def test_corrupt_snapshot_falls_back(self, quick):
        report = run_crash_replay(quick, corrupt_snapshot=True)
        assert report.ok, report.render()
        assert report.facts["recovery"]["snapshot_fallbacks"] == 1

    def test_sparse_snapshots_long_replay(self, quick):
        report = run_crash_replay(quick, snapshot_every=10_000)
        assert report.ok, report.render()
        # No snapshot ever happened: pure journal replay.
        assert report.facts["recovery"]["snapshot_generation"] == 0
        assert report.facts["recovery"]["replayed_records"] > 0

    def test_negative_tear_rejected(self, quick, tmp_path):
        """A negative cut would grow the journal, not tear it."""
        with pytest.raises(ValueError, match="cut_bytes"):
            run_crash_replay(quick, state_dir=tmp_path, cut_bytes=-40)
        assert not any(tmp_path.iterdir())

    def test_report_renders(self, quick):
        report = run_crash_replay(quick)
        text = report.render()
        assert "verdict" in text and "OK" in text
