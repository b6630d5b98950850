"""Chaos proof for the sharded serving tier.

:func:`run_shard_chaos` drives a :class:`~repro.serve.shard.ShardCluster`
and its single-process twin (a journal-free
:class:`~repro.serve.durability.ServingState` behind a
:class:`~repro.serve.batch.BatchOnlinePredictor`) through the same
seeded fault stream (:func:`~repro.serve.chaos.make_mutation_stream`),
cut into rounds — each round's mutations, a predict batch at the data
time of its last mutation, SIGKILLs at varying points (before a mutation
batch, between two halves of one, after mutations but before the
predict), a drain, a rebalance, a checkpoint — and asserts the tier's
three contracts after every round:

1. **Every request is answered.**  The router never raises; every rate
   is finite and positive, even while a shard is down or draining.
2. **Answers match the reference bit-exactly, modulo degraded tags.**
   Non-degraded entries equal the single-process
   :class:`~repro.serve.batch.BatchOnlinePredictor` answer with zero
   tolerance; degraded entries appear only when the script made a shard
   unavailable, carry :attr:`~repro.serve.fallback.ModelTier.DEGRADED`,
   and equal the chain's model-free constant answer.
3. **Restarts recover bit-identical state.**  After every round in which
   all shards are up again, every shard's state fingerprint equals every
   other's *and* the reference's — a restarted worker is
   indistinguishable from one that never crashed.

The kill points are script positions rather than asynchronous timers, so
a failing check replays exactly; they still exercise the full failure
surface (crash discovered during mutate broadcast, during predict
dispatch, during checkpoint).  Closing checks prove the script itself
ran: every configured kill, drain, rebalance and checkpoint happened.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.obs import Observability
from repro.serve.batch import BatchOnlinePredictor
from repro.serve.bench import make_synthetic_model, make_synthetic_requests
from repro.serve.chaos import ChaosConfig, Verdict, make_mutation_stream
from repro.serve.durability import ServingState
from repro.serve.fallback import FallbackChain, ModelTier
from repro.serve.shard.supervisor import ClusterConfig, ShardCluster

__all__ = ["ShardChaosConfig", "run_shard_chaos", "make_full_coverage_chain"]


@dataclass(frozen=True)
class ShardChaosConfig:
    """The scripted history one chaos run replays."""

    shards: int = 3
    rounds: int = 6
    n_seed_views: int = 200          # stream prefix applied before round 0
    n_requests: int = 64             # predict batch per round
    n_endpoints: int = 12
    mutations_per_round: int = 40
    kill_rounds: tuple[int, ...] = (1, 3, 4)
    drain_round: int | None = 2      # drain -> degraded predict -> restart
    rebalance_round: int | None = 5  # snapshot-handoff replacement
    checkpoint_round: int | None = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shards < 1 or self.rounds < 1:
            raise ValueError("shards and rounds must be >= 1")
        for r in self.kill_rounds:
            if not 0 <= r < self.rounds:
                raise ValueError(f"kill round {r} outside 0..{self.rounds - 1}")
        for name in ("drain_round", "rebalance_round", "checkpoint_round"):
            r = getattr(self, name)
            if r is not None and not 0 <= r < self.rounds:
                raise ValueError(
                    f"{name} {r} outside 0..{self.rounds - 1}")

    @classmethod
    def quick(cls) -> "ShardChaosConfig":
        """The CI smoke variant: 2 shards, 4 rounds, one of each fault."""
        return cls(
            shards=2, rounds=4, n_seed_views=80, n_requests=32,
            mutations_per_round=16, kill_rounds=(1,), drain_round=2,
            rebalance_round=3, checkpoint_round=3,
        )


def make_full_coverage_chain(n_endpoints: int, seed: int = 0) -> FallbackChain:
    """A chain whose edge tier covers *every* edge of the endpoint
    universe (one shared synthetic model), with a median floor so
    degraded answers have a deterministic model-free value."""
    model = make_synthetic_model(seed)
    eps = [f"EP{i:03d}" for i in range(n_endpoints)]
    return FallbackChain(
        edge_models={
            (s, d): model for s in eps for d in eps if s != d
        },
        global_median=2.5e8,
        default_rate=50e6,
    )


def run_shard_chaos(
    config: ShardChaosConfig | None = None,
    state_root: str | Path | None = None,
    obs: Observability | None = None,
    cluster_config: ClusterConfig | None = None,
) -> Verdict:
    """Run the scripted chaos history; see the module docstring for the
    contracts asserted.  ``obs`` receives the router's ``shard_*``
    metrics and lifecycle events (for the CI artifact upload)."""
    config = config or ShardChaosConfig()
    cluster_config = cluster_config or ClusterConfig()
    verdict = Verdict(
        title=f"shard chaos: {config.shards} shards, {config.rounds} rounds",
        facts=dict(shards=config.shards, rounds=config.rounds, kills=0,
                   restarts=0, degraded_answers=0))
    chain = make_full_coverage_chain(config.n_endpoints, seed=config.seed)

    tmp = None
    if state_root is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-shard-chaos-")
        state_root = tmp.name
    try:
        cluster = ShardCluster(
            chain, state_root, shards=config.shards, obs=obs,
            config=cluster_config,
        ).start()
        try:
            _run_rounds(config, cluster, chain,
                        ServingState(lenient=cluster_config.lenient), verdict)
        finally:
            verdict.facts["restarts"] = sum(
                row["restarts"] for row in cluster.status())
            cluster.stop()
    finally:
        if tmp is not None:
            tmp.cleanup()
    return verdict


def _run_rounds(config: ShardChaosConfig, cluster: ShardCluster,
                chain: FallbackChain, twin: ServingState,
                verdict: Verdict) -> None:
    rng = random.Random(config.seed)
    twin_predictor = BatchOnlinePredictor(chain, twin.active, obs=twin.obs)
    need = config.n_seed_views + config.rounds * config.mutations_per_round
    # Every transfer contributes at least its add, so ``need`` transfers
    # always yield ``need`` mutations.
    stream = make_mutation_stream(ChaosConfig(
        n_transfers=need, n_endpoints=config.n_endpoints,
        seed=config.seed)).mutations[:need]
    facts = verdict.facts
    ran: set[str] = set()

    def feed(pairs: list) -> None:
        batch = [m for _, m in pairs]
        for mutation in batch:
            twin.apply(mutation)
        cluster.apply_mutations(batch)

    def kill(victim: str) -> None:
        cluster.kill(victim)
        facts["kills"] += 1

    feed(stream[:config.n_seed_views])
    now = stream[config.n_seed_views - 1][0] if config.n_seed_views else 0.0
    for r in range(config.rounds):
        start = config.n_seed_views + r * config.mutations_per_round
        pairs = stream[start:start + config.mutations_per_round]
        now = pairs[-1][0] if pairs else now
        requests = make_synthetic_requests(
            config.n_requests, n_endpoints=config.n_endpoints,
            seed=config.seed + 100 + r)
        half = len(pairs) // 2
        kill_point = r % 3 if r in config.kill_rounds else None
        victim = rng.choice(list(cluster.ring.shards))

        if kill_point == 0:
            kill(victim)
        feed(pairs[:half])
        if kill_point == 1:
            kill(victim)
        feed(pairs[half:])
        if kill_point == 2:
            kill(victim)

        draining = None
        if r == config.drain_round:
            draining = victim
            cluster.drain(draining)
            ran.add("drain")

        if r == config.rebalance_round:
            handoff = cluster.rebalance(victim if draining is None
                                        else _other(cluster, draining, rng))
            ran.add("rebalance")
            verdict.check(
                f"round {r}: rebalance handoff verified",
                bool(handoff["fingerprint"]),
                f"shard {handoff['shard']} seq {handoff['seq']}")

        result = cluster.predict_batch_detailed(requests, now)
        expected = twin_predictor.predict_batch_detailed(requests, now)
        _check_round(r, cluster, chain, requests, result, expected,
                     draining, verdict)

        if draining is not None:
            cluster.restart(draining)

        if r == config.checkpoint_round:
            generations = cluster.checkpoint()
            ran.add("checkpoint")
            verdict.check(
                f"round {r}: checkpoint + log compaction",
                len(generations) == config.shards,
                f"generations {generations}, log base {cluster._base}")

        prints = cluster.fingerprints()
        want = twin.fingerprint_digest()
        verdict.check(
            f"round {r}: state fingerprints bit-identical across "
            f"{len(prints)} shards + reference",
            len(prints) == config.shards
            and all(d == want for d in prints.values()),
            f"reference {want[:12]}…")

    verdict.check(
        "every scripted kill delivered",
        facts["kills"] == len(config.kill_rounds),
        f"{facts['kills']} of {len(config.kill_rounds)}")
    for name in ("drain", "rebalance", "checkpoint"):
        r = getattr(config, f"{name}_round")
        if r is not None:
            verdict.check(f"configured {name} ran", name in ran,
                          f"round {r}")


def _other(cluster: ShardCluster, not_this: str, rng: random.Random) -> str:
    candidates = [s for s in cluster.ring.shards if s != not_this]
    return rng.choice(candidates) if candidates else not_this


def _check_round(r: int, cluster: ShardCluster, chain: FallbackChain,
                 requests, result, expected, draining: str | None,
                 verdict: Verdict) -> None:
    rates = np.asarray(result.rates)
    verdict.check(
        f"round {r}: every request answered",
        len(rates) == len(requests)
        and bool(np.all(np.isfinite(rates)) and np.all(rates > 0)),
        f"{len(rates)} answers")

    degraded_idx = [i for i, t in enumerate(result.tiers)
                    if t is ModelTier.DEGRADED]
    verdict.facts["degraded_answers"] += len(degraded_idx)
    clean = [i for i in range(len(requests)) if i not in set(degraded_idx)]

    diffs = np.abs(rates[clean] - np.asarray(expected.rates)[clean]) \
        if clean else np.zeros(0)
    max_diff = float(diffs.max()) if len(diffs) else 0.0
    verdict.check(
        f"round {r}: non-degraded answers bit-equal the single-process "
        f"reference",
        max_diff == 0.0
        and all(result.tiers[i] is expected.tiers[i] for i in clean)
        and all(bool(result.nonconverged[i]) == bool(expected.nonconverged[i])
                for i in clean),
        f"{len(clean)} compared, max |diff| {max_diff:g}")

    if draining is None:
        verdict.check(
            f"round {r}: no degraded answers while all shards serve",
            not degraded_idx, f"{len(degraded_idx)} degraded")
    else:
        own = [i for i in range(len(requests))
               if cluster.ring.lookup(
                   f"{requests[i].src}->{requests[i].dst}") == draining]
        tags_ok = sorted(degraded_idx) == sorted(own)
        values_ok = all(
            rates[i] == chain.constant_rate(requests[i].src,
                                            requests[i].dst)[1]
            for i in degraded_idx)
        verdict.check(
            f"round {r}: draining shard's requests degrade with explicit "
            f"provenance",
            tags_ok and values_ok,
            f"{len(degraded_idx)} degraded on {draining}")
