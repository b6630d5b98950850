"""The sharded serving tier: parity, failover, drain, rebalance, chaos.

Each test wires a small :class:`ShardCluster` against the same
single-process :class:`BatchOnlinePredictor` reference the chaos harness
uses, so "correct" always means *bit-identical to the unsharded code*.
"""

import numpy as np
import pytest

from repro.obs import Observability
from repro.serve.active_set import ActiveSet, view_to_dict
from repro.serve.batch import BatchOnlinePredictor
from repro.serve.bench import make_synthetic_requests, make_synthetic_views
from repro.serve.fallback import ModelTier
from repro.serve.shard import (
    ClusterConfig,
    ShardChaosConfig,
    ShardCluster,
    ShardState,
    run_shard_bench,
    run_shard_chaos,
)
from repro.serve.shard.chaos import make_full_coverage_chain

N_ENDPOINTS = 6


def _fixture_data(n_views=60, n_requests=24, seed=0):
    chain = make_full_coverage_chain(N_ENDPOINTS, seed=seed)
    views = make_synthetic_views(
        n_views, n_endpoints=N_ENDPOINTS, seed=seed, now=0.0)
    requests = make_synthetic_requests(
        n_requests, n_endpoints=N_ENDPOINTS, seed=seed + 1)
    return chain, views, requests


def _reference(chain, views, obs=None):
    obs = obs or Observability.create(trace=False)
    return BatchOnlinePredictor(
        chain, ActiveSet.from_views(views, obs=obs), obs=obs)


@pytest.fixture
def cluster3(tmp_path):
    chain, views, requests = _fixture_data()
    with ShardCluster(chain, tmp_path / "state", shards=3,
                      obs=Observability.create(trace=False)) as cluster:
        cluster.add_views(views)
        yield cluster, chain, views, requests


class TestParity:
    def test_bit_identical_to_reference(self, cluster3):
        cluster, chain, views, requests = cluster3
        detail = cluster.predict_batch_detailed(requests, now=0.0)
        ref = _reference(chain, views).predict_batch_detailed(
            requests, now=0.0)
        assert np.array_equal(np.asarray(detail.rates),
                              np.asarray(ref.rates))
        assert list(detail.tiers) == list(ref.tiers)
        assert ModelTier.DEGRADED not in detail.tiers

    def test_mutations_visible_on_every_shard(self, cluster3):
        cluster, chain, views, requests = cluster3
        # Complete half the population; the reference twin sees the same
        # stream, so any shard that missed a broadcast diverges.
        reference = _reference(chain, views)
        for tid in range(0, len(views), 2):
            cluster.complete(tid)
            reference.active.complete(tid)
        detail = cluster.predict_batch_detailed(requests, now=0.0)
        ref = reference.predict_batch_detailed(requests, now=0.0)
        assert np.array_equal(np.asarray(detail.rates),
                              np.asarray(ref.rates))

    def test_single_shard_cluster_matches_too(self, tmp_path):
        chain, views, requests = _fixture_data()
        with ShardCluster(chain, tmp_path / "s1", shards=1) as cluster:
            cluster.add_views(views)
            rates = cluster.predict_batch(requests, now=0.0)
        ref = _reference(chain, views).predict_batch(requests, now=0.0)
        assert np.array_equal(rates, ref)


class TestFailover:
    def test_sigkill_is_survived_bit_exactly(self, cluster3):
        cluster, chain, views, requests = cluster3
        seq_before = cluster.seq
        cluster.kill("shard-1")
        # The router doesn't know yet; the next interaction discovers the
        # corpse, respawns it, and replays the journal tail.
        detail = cluster.predict_batch_detailed(requests, now=0.0)
        ref = _reference(chain, views).predict_batch_detailed(
            requests, now=0.0)
        assert np.array_equal(np.asarray(detail.rates),
                              np.asarray(ref.rates))
        assert ModelTier.DEGRADED not in detail.tiers
        rows = {r["shard"]: r for r in cluster.status()}
        assert rows["shard-1"]["restarts"] == 1
        assert rows["shard-1"]["state"] == "up"
        assert cluster.seq == seq_before

    def test_restarted_shard_fingerprint_matches_reference(self, cluster3):
        from repro.serve.durability import ServingState

        cluster, chain, views, requests = cluster3
        twin = ServingState()
        for i, v in enumerate(views):
            twin.apply(["add", i, view_to_dict(v)])
        cluster.kill("shard-0")
        cluster.restart("shard-0")
        fps = cluster.fingerprints()
        # Full replication: every shard holds the whole population, so
        # all fingerprints agree — with each other and with the twin.
        assert set(fps.values()) == {twin.fingerprint_digest()}

    def test_kill_between_mutations_loses_nothing(self, cluster3):
        cluster, chain, views, requests = cluster3
        reference = _reference(chain, views)
        cluster.complete(0)
        reference.active.complete(0)
        cluster.kill("shard-2")
        cluster.complete(1)  # broadcast discovers + replays shard-2
        reference.active.complete(1)
        detail = cluster.predict_batch_detailed(requests, now=0.0)
        ref = reference.predict_batch_detailed(requests, now=0.0)
        assert np.array_equal(np.asarray(detail.rates),
                              np.asarray(ref.rates))
        assert len(set(cluster.fingerprints().values())) == 1


class TestDrainAndDegraded:
    def test_drained_shard_answers_degraded_never_errors(self, cluster3):
        cluster, chain, views, requests = cluster3
        cluster.drain("shard-1")
        rows = {r["shard"]: r for r in cluster.status()}
        assert rows["shard-1"]["state"] in ("down", "draining")

        detail = cluster.predict_batch_detailed(requests, now=0.0)
        ref = _reference(chain, views).predict_batch_detailed(
            requests, now=0.0)
        # Every request is answered; shard-1's slice is degraded with
        # explicit provenance, everyone else's is still bit-exact.
        assert len(detail.rates) == len(requests)
        degraded = [i for i, t in enumerate(detail.tiers)
                    if t is ModelTier.DEGRADED]
        assert degraded  # the workload hits all 3 shards
        for i in range(len(requests)):
            if i not in degraded:
                assert detail.rates[i] == ref.rates[i]
                assert detail.tiers[i] == ref.tiers[i]

    def test_drained_shard_comes_back_via_restart(self, cluster3):
        cluster, chain, views, requests = cluster3
        cluster.drain("shard-1")
        cluster.restart("shard-1")
        detail = cluster.predict_batch_detailed(requests, now=0.0)
        assert ModelTier.DEGRADED not in detail.tiers
        rows = {r["shard"]: r for r in cluster.status()}
        assert rows["shard-1"]["state"] == "up"


class TestRebalance:
    def test_snapshot_handoff_preserves_state(self, cluster3):
        cluster, chain, views, requests = cluster3
        before = cluster.fingerprints()["shard-0"]
        info = cluster.rebalance("shard-0")
        assert info["fingerprint"] == before
        assert info["seq"] == cluster.seq
        rows = {r["shard"]: r for r in cluster.status()}
        assert rows["shard-0"]["state"] == "up"
        assert rows["shard-0"]["incarnation"] >= 1
        # The recruit serves bit-exact answers immediately.
        detail = cluster.predict_batch_detailed(requests, now=0.0)
        ref = _reference(chain, views).predict_batch_detailed(
            requests, now=0.0)
        assert np.array_equal(np.asarray(detail.rates),
                              np.asarray(ref.rates))
        assert cluster.fingerprints()["shard-0"] == before

    def test_mutations_after_rebalance_keep_replicating(self, cluster3):
        cluster, chain, views, requests = cluster3
        cluster.rebalance("shard-2")
        cluster.complete(3)
        assert len(set(cluster.fingerprints().values())) == 1


class TestLifecycleAndMetrics:
    def test_status_shape(self, cluster3):
        cluster, *_ = cluster3
        rows = cluster.status()
        assert [r["shard"] for r in rows] == \
            ["shard-0", "shard-1", "shard-2"]
        for row in rows:
            assert row["state"] == "up"
            assert isinstance(row["pid"], int)
            assert row["acked_seq"] == cluster.seq

    def test_checkpoint_reports_generations(self, cluster3):
        cluster, *_ = cluster3
        gens = cluster.checkpoint()
        assert set(gens) == {"shard-0", "shard-1", "shard-2"}
        assert all(g >= 1 for g in gens.values())

    def test_collect_metrics_merges_worker_registries(self, cluster3):
        cluster, chain, views, requests = cluster3
        cluster.predict_batch(requests, now=0.0)
        flat = cluster.collect_metrics().flat()
        routed = {k: v for k, v in flat.items()
                  if k.startswith("shard_requests_total")}
        assert sum(routed.values()) == len(requests)
        assert flat["serve_requests_total"] == len(requests)

    def test_rejects_bad_config(self, tmp_path):
        chain, *_ = _fixture_data()
        with pytest.raises(ValueError):
            ShardCluster(chain, tmp_path, shards=0)
        with pytest.raises(ValueError):
            ClusterConfig(request_timeout_s=0)


class TestChaosAndBench:
    def test_chaos_quick_is_clean(self, tmp_path):
        report = run_shard_chaos(
            ShardChaosConfig.quick(), state_root=tmp_path / "chaos")
        assert report.ok, report.render()
        assert report.as_dict()["restarts"] >= 1
        # The script itself ran: every kill, drain, rebalance, checkpoint.
        for name in ("every scripted kill delivered", "configured drain ran",
                     "configured rebalance ran", "configured checkpoint ran"):
            assert report.passed(name), report.render()

    @pytest.mark.parametrize("field", [
        "drain_round", "rebalance_round", "checkpoint_round"])
    def test_fault_rounds_outside_the_run_rejected(self, field):
        inside = dict(rounds=5, drain_round=2, rebalance_round=4,
                      checkpoint_round=3)
        for bad in (5, -1):
            with pytest.raises(ValueError, match=field):
                ShardChaosConfig(**{**inside, field: bad})
        ShardChaosConfig(**{**inside, field: None})

    def test_cli_default_rounds_reject_out_of_run_rebalance(self):
        """`shard chaos --rounds 5` used to pass without ever
        rebalancing (the default rebalance round 5 is past the run)."""
        with pytest.raises(ValueError, match="rebalance_round"):
            ShardChaosConfig(rounds=5, shards=2, kill_rounds=(1, 3, 4))

    def test_undelivered_kill_fails_the_verdict(self, tmp_path):
        """A repeated kill round can kill only once: the kill-count
        check must catch the script promising more than it delivered."""
        config = ShardChaosConfig(
            shards=2, rounds=2, n_seed_views=20, n_requests=8,
            mutations_per_round=8, kill_rounds=(1, 1), drain_round=None,
            rebalance_round=None, checkpoint_round=None)
        report = run_shard_chaos(config, state_root=tmp_path / "chaos")
        assert not report.passed("every scripted kill delivered")
        assert not report.ok
        assert report.facts["kills"] == 1

    def test_bench_parity_small(self, tmp_path):
        result = run_shard_bench(
            shards=2, n_active=80, n_requests=32, n_endpoints=6,
            seed=0, repeats=1, state_root=tmp_path / "bench")
        assert result.parity_ok, result.render()
        assert result.max_abs_diff == 0.0
        assert result.counts_ok


class TestShardStateEnum:
    def test_states_render_as_lowercase(self):
        assert str(ShardState.UP) == "up"
        assert str(ShardState.DOWN) == "down"
        assert str(ShardState.DRAINING) == "draining"
