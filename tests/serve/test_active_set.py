"""Tests for the incremental in-flight population (repro.serve.ActiveSet)."""

import numpy as np
import pytest

from repro.core.online import ActiveTransferView, OnlineFeatureEstimator
from repro.serve import ActiveSet
from repro.serve.active_set import _M_OUT_RATE
from tests.core.conftest import make_random_store


def _view(src="A", dst="B", rate=1e8, started=0.0, end=1000.0, c=2, p=4, nf=50):
    return ActiveTransferView(
        src=src, dst=dst, rate=rate, started_at=started,
        expected_end=end, concurrency=c, parallelism=p, n_files=nf,
    )


class TestLifecycle:
    def test_add_complete(self):
        active = ActiveSet()
        active.add(1, _view())
        active.add(2, _view(src="B", dst="C"))
        assert len(active) == 2 and 1 in active
        gone = active.complete(1)
        assert gone.src == "A"
        assert len(active) == 1 and 1 not in active
        assert active.endpoints() == {"B", "C"}

    def test_duplicate_add_raises(self):
        active = ActiveSet()
        active.add(1, _view())
        with pytest.raises(KeyError):
            active.add(1, _view())

    def test_complete_unknown_raises(self):
        with pytest.raises(KeyError):
            ActiveSet().complete(99)

    def test_progress_updates_view(self):
        active = ActiveSet()
        active.add(7, _view(rate=1e8, end=500.0))
        updated = active.progress(7, rate=2e8, expected_end=800.0)
        assert updated.rate == 2e8 and updated.expected_end == 800.0
        assert active.get(7).rate == 2e8

    def test_progress_requires_a_change(self):
        active = ActiveSet()
        active.add(7, _view())
        with pytest.raises(ValueError):
            active.progress(7)
        with pytest.raises(KeyError):
            active.progress(8, rate=1.0)

    def test_stats_counters(self):
        active = ActiveSet.from_views([_view(), _view(src="C", dst="D")])
        assert active.stats.adds == 0  # construction doesn't count
        active.add(10, _view(src="A", dst="D"))
        active.progress(10, rate=5e7)
        active.complete(10)
        s = active.stats.as_dict()
        assert s["adds"] == 1 and s["progress_updates"] == 1
        assert s["completes"] == 1


class TestStrictRejectsBadValues:
    def test_nan_progress_raises(self):
        active = ActiveSet()
        active.add(1, _view())
        with pytest.raises(ValueError):
            active.progress(1, rate=float("nan"))
        with pytest.raises(ValueError):
            active.progress(1, rate=-1.0)
        with pytest.raises(ValueError):
            active.progress(1, rate=float("inf"))
        with pytest.raises(ValueError):
            active.progress(1, expected_end=float("nan"))
        assert active.get(1).rate == 1e8  # untouched

    def test_nan_view_rejected_at_construction(self):
        with pytest.raises(ValueError):
            _view(rate=float("nan"))


class TestLenientMode:
    """Regression: malformed mutations must neither raise nor corrupt the
    endpoint counters — they are dropped and counted."""

    def test_duplicate_complete_ignored(self):
        active = ActiveSet(lenient=True)
        active.add(1, _view())
        assert active.complete(1) is not None
        assert active.complete(1) is None  # duplicate: idempotent
        s = active.stats
        assert s.completes == 1 and s.ignored_completes == 1
        assert len(active) == 0

    def test_unknown_complete_and_progress_ignored(self):
        active = ActiveSet(lenient=True)
        active.add(1, _view())
        assert active.complete(99) is None
        assert active.progress(99, rate=2e8) is None
        s = active.stats
        assert s.ignored_completes == 1 and s.ignored_progress == 1
        assert s.completes == 0 and s.progress_updates == 0
        assert len(active) == 1

    def test_duplicate_add_keeps_original_view(self):
        active = ActiveSet(lenient=True)
        active.add(1, _view(rate=1e8))
        active.add(1, _view(rate=9e9, src="X", dst="Y"))
        assert active.stats.ignored_adds == 1 and active.stats.adds == 1
        assert active.get(1).rate == 1e8
        assert active.endpoints() == {"A", "B"}

    def test_bad_progress_values_rejected_not_applied(self):
        active = ActiveSet(lenient=True)
        active.add(1, _view(rate=1e8, end=500.0))
        for bad in (float("nan"), -5.0, float("inf")):
            returned = active.progress(1, rate=bad)
            assert returned is active.get(1)
        assert active.stats.rejected_progress == 3
        assert active.get(1).rate == 1e8 and active.get(1).expected_end == 500.0

    def test_ignored_mutations_leave_features_intact(self):
        """The actual corruption regression: after a storm of malformed
        mutations, endpoint overlap sums must be exactly what the one real
        transfer implies."""
        active = ActiveSet(lenient=True)
        active.add(1, _view(src="A", dst="B", rate=1e8, end=float("inf")))
        active.complete(42)                       # unknown
        active.complete(1); active.add(1, _view(src="A", dst="B",
                                                rate=1e8, end=float("inf")))
        active.complete(1)                        # re-add/re-complete cycle
        active.add(2, _view(src="A", dst="B", rate=3e8, end=float("inf")))
        active.add(2, _view(src="A", dst="B", rate=7e8, end=float("inf")))
        active.progress(2, rate=float("nan"))
        active.progress(77, rate=1e6)
        out = active.endpoint_state("A").merged.overlap_sum(
            0.0, np.array([10.0])
        )
        assert out[0, _M_OUT_RATE] == pytest.approx(3e8 * 10.0)
        assert len(active) == 1
        assert active.stats.ignored_total == 4

    def test_strict_default_unchanged(self):
        assert ActiveSet().lenient is False


class TestIncrementalState:
    def test_mutation_only_invalidates_touched_endpoints(self):
        active = ActiveSet()
        active.add(1, _view(src="A", dst="B"))
        active.add(2, _view(src="C", dst="D"))
        sa, sc = active.endpoint_state("A"), active.endpoint_state("C")
        rebuilds = active.stats.state_rebuilds
        # Touch only C<->D: A's and B's state must survive by identity.
        active.add(3, _view(src="C", dst="D", rate=5e7))
        assert active.endpoint_state("A") is sa
        assert active.endpoint_state("C") is not sc
        assert active.stats.state_rebuilds == rebuilds + 1

    def test_updates_are_visible_in_queries(self):
        active = ActiveSet()
        active.add(1, _view(src="A", dst="B", rate=1e8, end=float("inf")))
        out = active.endpoint_state("A").merged.overlap_sum(0.0, np.array([10.0]))
        assert out[0, _M_OUT_RATE] == pytest.approx(1e9)  # rate * 10s
        active.progress(1, rate=2e8)
        out = active.endpoint_state("A").merged.overlap_sum(0.0, np.array([10.0]))
        assert out[0, _M_OUT_RATE] == pytest.approx(2e9)
        active.complete(1)
        out = active.endpoint_state("A").merged.overlap_sum(0.0, np.array([10.0]))
        assert out[0, _M_OUT_RATE] == 0.0


class TestFromLogWindow:
    def test_matches_estimator_view(self):
        store = make_random_store(n=150, seed=4, horizon=2000.0)
        now = 900.0
        active = ActiveSet.from_log_window(store, now=now)
        est = OnlineFeatureEstimator.from_log_window(store, now=now)
        assert len(active) == len(est.active)
        assert sorted(v.started_at for v in active.views()) == sorted(
            v.started_at for v in est.active
        )

    def test_keyed_by_transfer_id(self):
        store = make_random_store(n=80, seed=1, horizon=1000.0)
        now = 500.0
        data = store.raw()
        expected = set(
            data["transfer_id"][(data["ts"] <= now) & (data["te"] > now)]
        )
        active = ActiveSet.from_log_window(store, now=now)
        assert set(active.ids()) == {int(t) for t in expected}
