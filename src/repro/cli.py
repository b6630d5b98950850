"""Operational command-line tools: simulate, train, predict, advise, bench.

These commands form a file-based workflow mirroring how the paper's models
would be operated against real logs::

    repro-tools simulate --days 2 --seed 7 --out log.csv
    repro-tools train --log log.csv --src JLAB-DTN --dst NERSC-DTN \\
                      --model gbt --out model.json
    repro-tools predict --model model.json --log log.csv \\
                        --bytes 50e9 --files 100 --at 86400
    repro-tools advise --model model.json --log log.csv \\
                       --bytes 50e9 --files 100 --at 86400
    repro-tools advise plan --log log.csv --model model.json \\
                            --count 12 --at 86400 --json plan.json
    repro-tools serve-bench --actives 10000 --requests 1000
    repro-tools logs validate --log log.csv --report quarantine.json
    repro-tools chaos --quick --metrics-out metrics.json
    repro-tools metrics --quick --json metrics.json --prom metrics.prom
    repro-tools state verify --quick --corrupt-snapshot
    repro-tools state recover --dir state/ --json recovery.json
    repro-tools state snapshot --dir state/
    repro-tools top --metrics metrics.json --events events.jsonl --once
    repro-tools events tail --file events.jsonl -n 20
    repro-tools events query --file events.jsonl --category slo --json
    repro-tools slo check --metrics metrics.json --p99-target 0.25

``train`` writes a bundle (model + scaler + feature bookkeeping) as JSON;
``predict`` replays the log to reconstruct the active-transfer view at the
requested instant and runs the online predictor; ``advise`` sweeps tunables
in one vectorized batch call through the fallback chain (unmodeled edges
degrade to coarser tiers instead of failing; predictions are capped at the
Eq. 1 analytical bound) and ``advise plan`` schedules a backlog against the
live active set, benchmarking the fleet planner against FIFO and greedy;
``serve-bench`` measures batch-serving throughput (vectorized
:class:`repro.serve.BatchOnlinePredictor` vs the looped scalar predictor)
on a synthetic active population, optionally with a trained model bundle;
``logs validate`` runs lenient ingestion over a CSV/JSONL log and prints
the quarantine report; ``chaos`` replays a synthetic log through the
serving engine under fault injection (duplicate/unknown completions, bad
progress values, never-completing transfers, clock skew) and fails if the
engine loses consistency or emits a non-finite prediction; ``metrics``
runs the full observed-replay pipeline (corrupt JSONL -> lenient ingest
-> instrumented chaos replay with drift scoring) and exports the unified
metrics registry as JSON and/or Prometheus text, with ``--watch``-style
in-flight replay summaries; ``state`` operates the durability layer —
``verify`` runs the crash-injection property check (kill mid-stream, tear
the journal tail, recover, prove equivalence to an uninterrupted run),
``recover`` loads a state directory and prints the recovery report, and
``snapshot`` forces a fresh snapshot generation and rotates the journal.

The diagnosis layer rides on the same files: ``top`` renders a live (or
``--once``) ASCII dashboard over any subset of a metrics JSON export, a
structured event-log JSONL sink, and a stream state directory; ``events
tail``/``events query`` filter the event sink; ``slo check`` gates on
service-level objectives — instantaneous registry evaluation with
``--metrics`` (the CI gate), or the checkpointed burn-rate alert state
with ``--state-dir`` — exiting non-zero on any breach or firing alert.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from repro.atomicio import atomic_write_text
from repro.core.features import build_feature_matrix
from repro.core.online import OnlineFeatureEstimator, OnlinePredictor
from repro.core.pipeline import EdgeModelResult, GBTSettings, fit_edge_model
from repro.logs.io import read_csv, write_csv
from repro.ml.persistence import model_from_dict, model_to_dict
from repro.sim.fleet import build_production_fleet, production_background_loads
from repro.sim.gridftp import TransferRequest
from repro.sim.service import TransferService
from repro.sim.units import DAY, to_mbyte_per_s
from repro.workload.datasets import production_workload

__all__ = ["main"]


def _cmd_simulate(args: argparse.Namespace) -> int:
    fabric = build_production_fleet()
    duration = args.days * DAY
    requests = production_workload(fabric, duration_s=duration, seed=args.seed)
    service = TransferService(
        fabric, seed=args.seed + 1, stop_background_after=duration * 1.25
    )
    for load in production_background_loads(fabric):
        service.add_onoff_load(load)
    for req in requests:
        service.submit(req)
    log = service.run()
    write_csv(log, args.out)
    totals = log.totals()
    print(
        f"wrote {args.out}: {int(totals['transfers'])} transfers, "
        f"{totals['bytes'] / 1e12:.1f} TB over {args.days:g} days"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    log = read_csv(args.log)
    features = build_feature_matrix(log)
    result = fit_edge_model(
        features,
        args.src,
        args.dst,
        model=args.model,
        threshold=args.threshold,
        seed=args.seed,
        gbt=GBTSettings(),
    )
    bundle = {
        "bundle_version": 1,
        "src": result.src,
        "dst": result.dst,
        "model_kind": result.model_kind,
        "feature_names": list(result.feature_names),
        "kept": result.kept.tolist(),
        "mdape": result.mdape,
        "n_train": result.n_train,
        "n_test": result.n_test,
        "model": model_to_dict(result.model),
        "scaler": model_to_dict(result.scaler),
    }
    atomic_write_text(args.out, json.dumps(bundle))
    print(
        f"wrote {args.out}: {args.model} model for {args.src} -> {args.dst}, "
        f"test MdAPE {result.mdape:.2f}% "
        f"({result.n_train} train / {result.n_test} test)"
    )
    return 0


def _load_bundle(path: str) -> EdgeModelResult:
    bundle = json.loads(Path(path).read_text())
    if bundle.get("bundle_version") != 1:
        raise ValueError(f"unsupported bundle_version in {path}")
    return EdgeModelResult(
        src=bundle["src"],
        dst=bundle["dst"],
        model_kind=bundle["model_kind"],
        feature_names=tuple(bundle["feature_names"]),
        kept=np.array(bundle["kept"], dtype=bool),
        significance=np.full(len(bundle["feature_names"]), np.nan),
        n_train=bundle["n_train"],
        n_test=bundle["n_test"],
        test_errors=np.array([0.0]),
        mdape=bundle["mdape"],
        model=model_from_dict(bundle["model"]),
        scaler=model_from_dict(bundle["scaler"]),
    )


def _request_from_args(result: EdgeModelResult, args: argparse.Namespace) -> TransferRequest:
    return TransferRequest(
        src=result.src,
        dst=result.dst,
        total_bytes=float(args.bytes),
        n_files=args.files,
        n_dirs=args.dirs,
        concurrency=args.concurrency,
        parallelism=args.parallelism,
    )


def _cmd_predict(args: argparse.Namespace) -> int:
    result = _load_bundle(args.model)
    log = read_csv(args.log)
    estimator = OnlineFeatureEstimator.from_log_window(log, now=args.at)
    predictor = OnlinePredictor(result, estimator)
    req = _request_from_args(result, args)
    rate = predictor.predict(req, now=args.at)
    duration = req.total_bytes / rate
    print(
        f"{result.src} -> {result.dst}: predicted {to_mbyte_per_s(rate):.1f} "
        f"MB/s (~{duration:.0f}s for {req.total_bytes / 1e9:.1f} GB) with "
        f"{len(estimator.active)} transfers active at t={args.at:g}"
    )
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.obs import Observability
    from repro.serve import ActiveSet, FallbackChain, SweepAdvisor

    if not (args.model and args.log and args.bytes is not None):
        raise ValueError(
            "advise requires --model, --log and --bytes "
            "(or use 'advise plan' to schedule a backlog)"
        )
    result = _load_bundle(args.model)
    log = read_csv(args.log)
    src = args.src or result.src
    dst = args.dst or result.dst
    obs = Observability.create()
    # Route through the fallback chain: an edge without a fitted model
    # degrades to the global/analytical/median tiers instead of raising.
    chain = FallbackChain.from_log(
        log, edge_models={(result.src, result.dst): result}
    )
    active = ActiveSet.from_log_window(log, now=args.at)
    advisor = SweepAdvisor(chain, active, clip=not args.no_clip, obs=obs)
    req = TransferRequest(
        src=src,
        dst=dst,
        total_bytes=float(args.bytes),
        n_files=args.files,
        n_dirs=args.dirs,
        concurrency=args.concurrency,
        parallelism=args.parallelism,
    )
    rec = advisor.recommend(req, now=args.at)
    print(f"recommended tunables for {src} -> {dst}: "
          f"C={rec.concurrency} P={rec.parallelism} "
          f"(predicted {to_mbyte_per_s(rec.predicted_rate):.1f} MB/s)")
    print(f"model provenance: {chain.describe(src, dst)}")
    if rec.degenerate:
        print("warning: degenerate sweep (a candidate predicted a "
              "non-positive rate); recommendation carries no preference")
    elif not rec.confident:
        print(f"note: low confidence — best/worst gain only "
              f"{rec.gain_over_worst:.2f}x")
    print(f"{'C':>4} {'P':>4} {'predicted MB/s':>15} {'tier':>11} {'':<7}")
    for alt in rec.alternatives:
        mark = "clipped" if alt.clipped else ""
        print(f"{alt.concurrency:>4} {alt.parallelism:>4} "
              f"{to_mbyte_per_s(alt.predicted_rate):>15.1f} "
              f"{alt.tier.value:>11} {mark:<7}")
    if args.json:
        atomic_write_text(args.json, json.dumps(rec.as_dict(), indent=2))
        print(f"wrote recommendation JSON to {args.json}")
    if args.metrics_out:
        atomic_write_text(args.metrics_out, obs.registry.to_json(indent=2))
        print(f"wrote metrics JSON to {args.metrics_out}")
    return 0


def _backlog_from_args(args: argparse.Namespace, log) -> list[TransferRequest]:
    """The backlog ``advise plan`` schedules: an explicit JSON file, or a
    synthetic one round-robined over the log's busiest edges."""
    if args.backlog:
        rows = json.loads(Path(args.backlog).read_text())
        if not isinstance(rows, list) or not rows:
            raise ValueError(f"{args.backlog}: expected a non-empty JSON list")
        return [
            TransferRequest(
                src=str(row["src"]),
                dst=str(row["dst"]),
                total_bytes=float(row["bytes"]),
                n_files=int(row.get("files", 1)),
                n_dirs=int(row.get("dirs", 1)),
                concurrency=int(row.get("concurrency", args.concurrency)),
                parallelism=int(row.get("parallelism", args.parallelism)),
            )
            for row in rows
        ]
    edges = log.heavy_edges(min_transfers=1)
    if not edges:
        raise ValueError("empty log: cannot synthesise a backlog "
                         "(pass --backlog)")
    edges = edges[:max(1, args.edges)]
    per_transfer = float(args.bytes) if args.bytes is not None else 10e9
    return [
        TransferRequest(
            src=edges[i % len(edges)][0],
            dst=edges[i % len(edges)][1],
            total_bytes=per_transfer,
            n_files=args.files,
            n_dirs=args.dirs,
            concurrency=args.concurrency,
            parallelism=args.parallelism,
        )
        for i in range(args.count)
    ]


def _cmd_advise_plan(args: argparse.Namespace) -> int:
    from repro.obs import Observability
    from repro.serve import ActiveSet, FallbackChain, FleetScheduler

    log = read_csv(args.log)
    edge_models = {}
    for path in args.models or []:
        bundle = _load_bundle(path)
        edge_models[(bundle.src, bundle.dst)] = bundle
    chain = FallbackChain.from_log(log, edge_models=edge_models)
    active = ActiveSet.from_log_window(log, now=args.at)
    backlog = _backlog_from_args(args, log)
    obs = Observability.create()
    scheduler = FleetScheduler(
        chain,
        max_active_per_endpoint=args.max_active,
        clip=not args.no_clip,
        obs=obs,
    )
    print(f"planning {len(backlog)} transfers over {len(active)} active, "
          f"{len(edge_models)} fitted edge model(s), t={args.at:g}")
    if args.policy == "benchmark":
        bench = scheduler.benchmark(backlog, active=active, now=args.at)
        print(bench.render())
        payload = bench.as_dict()
        ok = bench.planner_no_worse_than_fifo
    else:
        plan = scheduler.plan(
            backlog, active=active, now=args.at, policy=args.policy
        )
        print(f"{args.policy}: makespan {plan.makespan:.1f}s, aggregate "
              f"{to_mbyte_per_s(plan.aggregate_throughput):.1f} MB/s")
        tiers = sorted({e.tier.value for e in plan.entries})
        print(f"provenance tiers used: {', '.join(tiers) or 'none'}")
        payload = plan.as_dict()
        ok = True
    if args.json:
        atomic_write_text(args.json, json.dumps(payload, indent=2))
        print(f"wrote plan JSON to {args.json}")
    if args.metrics_out:
        atomic_write_text(args.metrics_out, obs.registry.to_json(indent=2))
        print(f"wrote metrics JSON to {args.metrics_out}")
    return 0 if ok else 1


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.exec.engine import resolve_workers
    from repro.obs import Observability
    from repro.serve.bench import run_serve_bench

    if args.shards is not None:
        return _serve_bench_shards(args)
    result = _load_bundle(args.model) if args.model else None
    obs = Observability.create(
        events_path=args.events_out,
        flight_latency_s=args.flight_threshold,
    )
    bench = run_serve_bench(
        n_active=args.actives,
        n_requests=args.requests,
        n_endpoints=args.endpoints,
        seed=args.seed,
        result=result,
        repeats=args.repeats,
        obs=obs,
        workers=resolve_workers(args.workers),
    )
    print(bench.render())
    if obs.flight is not None and len(obs.flight):
        print(f"flight recorder captured {len(obs.flight)} exemplar(s) "
              f"(threshold {args.flight_threshold:g}s)")
        for brief in obs.flight.recent_briefs(3):
            print(f"  {brief['reason']:<8}{brief['latency_s'] * 1e3:>9.2f}ms"
                  f"  hot={brief['hottest_span'] or 'n/a'}")
    if args.events_out:
        print(f"wrote event log to {args.events_out}")
    if args.metrics_out:
        atomic_write_text(args.metrics_out, obs.registry.to_json(indent=2))
        print(f"wrote metrics JSON to {args.metrics_out}")
    if bench.max_abs_diff > 1e-6:
        print("error: batch and scalar paths disagree", file=sys.stderr)
        return 1
    return 0


def _serve_bench_shards(args: argparse.Namespace) -> int:
    """``serve-bench --shards N``: the sharded tier against the
    single-process reference (bit parity + exact count merge)."""
    from repro.obs import MetricsRegistry, Observability
    from repro.serve.shard import run_shard_bench

    if args.shards < 1:
        raise ValueError("--shards must be >= 1")
    if args.model:
        raise ValueError("--shards uses the synthetic chain; drop --model")
    n_active, n_requests, repeats = args.actives, args.requests, args.repeats
    if args.quick:
        n_active = min(n_active, 500)
        n_requests = min(n_requests, 128)
        repeats = min(repeats if repeats > 1 else 2, 2)
    obs = Observability.create(trace=False, events_path=args.events_out)
    result = run_shard_bench(
        shards=args.shards,
        n_active=n_active,
        n_requests=n_requests,
        n_endpoints=args.endpoints,
        seed=args.seed,
        repeats=repeats,
        obs=obs,
    )
    print(result.render())
    if args.events_out:
        print(f"wrote event log to {args.events_out}")
    if args.metrics_out:
        merged = MetricsRegistry()
        if result.merged_snapshot is not None:
            merged.load_snapshot(result.merged_snapshot)
        atomic_write_text(args.metrics_out, merged.to_json(indent=2))
        print(f"wrote merged cluster metrics JSON to {args.metrics_out}")
    if not result.parity_ok:
        print("error: sharded and single-process answers disagree "
              "(or counts failed to merge exactly)", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.exec.bench import run_bench, write_report

    report = run_bench(
        quick=args.quick, workers=args.workers, rounds=args.rounds,
        seed=args.seed,
    )
    print(report.render())
    if args.out:
        write_report(report, args.out)
        print(f"\nwrote {args.out}")
    if not report.parity_ok:
        print(
            "error: workers=1 and workers=N runs disagree "
            "(see fit_all_edge_models / feature_cache in the report)",
            file=sys.stderr,
        )
        return 1
    return 0


def _open_cache(args: argparse.Namespace):
    from repro.exec.cache import ArtifactCache, default_cache_root

    return ArtifactCache(args.dir if args.dir else default_cache_root())


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    cache = _open_cache(args)
    stats = cache.stats()
    print(f"cache root: {stats['root']}")
    if not stats["kinds"]:
        print("(empty)")
        return 0
    print(f"{'kind':<20}{'entries':>10}{'bytes':>14}{'corrupt':>10}")
    for kind in sorted(stats["kinds"]):
        s = stats["kinds"][kind]
        print(f"{kind:<20}{s['files']:>10}{s['bytes']:>14,}{s['corrupt']:>10}")
    print(f"{'total':<20}{stats['total_files']:>10}"
          f"{stats['total_bytes']:>14,}")
    return 0


def _cmd_cache_clear(args: argparse.Namespace) -> int:
    cache = _open_cache(args)
    removed = cache.clear()
    print(f"cache root: {cache.root}")
    print(f"removed {removed} files")
    return 0


def _cmd_logs_validate(args: argparse.Namespace) -> int:
    from repro.logs.io import read_jsonl

    path = Path(args.log)
    fmt = args.format
    if fmt == "auto":
        fmt = "jsonl" if path.suffix in (".jsonl", ".ndjson", ".json") else "csv"
    reader = read_jsonl if fmt == "jsonl" else read_csv
    store, report = reader(path, strict=False)
    print(report.summary() if not report.ok else
          f"{path}: {report.kept_rows}/{report.total_rows} rows kept, clean")
    if args.report:
        atomic_write_text(args.report, json.dumps(report.as_dict(), indent=2))
        print(f"wrote quarantine report to {args.report}")
    if args.max_quarantine_rate is not None:
        rate = (report.quarantined_rows / report.total_rows
                if report.total_rows else 0.0)
        budget = args.max_quarantine_rate
        verdict = "within" if rate <= budget else "EXCEEDS"
        print(f"quarantine rate {rate:.4f} {verdict} budget {budget:.4f} "
              f"({report.quarantined_rows}/{report.total_rows} rows)")
        return 0 if rate <= budget else 1
    return 0 if report.ok else 1


def _chaos_config(args: argparse.Namespace):
    from repro.serve.chaos import ChaosConfig

    if args.quick:
        config = ChaosConfig.quick(seed=args.seed)
    else:
        config = ChaosConfig(seed=args.seed, n_transfers=args.transfers)
    if getattr(args, "strict_active", False):
        config = dataclasses.replace(config, lenient=False)
    return config


def _write_metric_exports(registry, json_path, prom_path) -> None:
    if json_path:
        atomic_write_text(json_path, registry.to_json(indent=2))
        print(f"wrote metrics JSON to {json_path}")
    if prom_path:
        atomic_write_text(prom_path, registry.to_prometheus())
        print(f"wrote Prometheus text to {prom_path}")


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.obs import Observability
    from repro.serve.chaos import run_chaos_replay

    config = _chaos_config(args)
    want_metrics = bool(args.metrics_out or args.metrics_prom)
    obs = Observability.create() if want_metrics else None
    report = run_chaos_replay(config, obs=obs)
    print(report.render())
    if obs is not None:
        _write_metric_exports(obs.registry, args.metrics_out, args.metrics_prom)
    return 0 if report.ok else 1


def _cmd_shard_chaos(args: argparse.Namespace) -> int:
    from repro.obs import Observability
    from repro.serve.shard import ShardChaosConfig, run_shard_chaos

    if args.quick:
        config = ShardChaosConfig.quick()
        if args.seed:
            config = dataclasses.replace(config, seed=args.seed)
    else:
        config = ShardChaosConfig(
            seed=args.seed, shards=args.shards, rounds=args.rounds)
    obs = Observability.create(trace=False, events_path=args.events_out)
    report = run_shard_chaos(config, obs=obs)
    print(report.render())
    if args.events_out:
        print(f"wrote event log to {args.events_out}")
    _write_metric_exports(obs.registry, args.metrics_out, args.metrics_prom)
    if args.json:
        atomic_write_text(args.json, json.dumps(report.as_dict(), indent=2))
        print(f"wrote chaos report to {args.json}")
    return 0 if report.ok else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import Observability
    from repro.serve.chaos import run_observed_replay

    if args.watch and args.watch_every <= 0:
        raise ValueError(
            f"--watch-every must be a positive event count, "
            f"got {args.watch_every}"
        )
    config = _chaos_config(args)
    obs = Observability.create()

    # Each --watch line reports the delta since the previous line (the
    # interval's own activity), alongside the running totals — a stalled
    # replay shows +0s instead of a quietly frozen cumulative count.
    prev = {"events": 0, "predictions": 0, "scored": 0}

    def watch(verdict) -> None:
        facts = verdict.facts
        drift = obs.drift.overall()
        mdape = f"{drift.mdape:.1f}%" if drift.n else "n/a"
        d_events = facts["events"] - prev["events"]
        d_predictions = facts["predictions"] - prev["predictions"]
        d_scored = drift.n - prev["scored"]
        prev.update(events=facts["events"], predictions=facts["predictions"],
                    scored=drift.n)
        print(
            f"[{facts['events']:>5} events +{d_events:<4}] "
            f"active={facts['final_active']:<4} "
            f"predictions={facts['predictions']:<5} (+{d_predictions}) "
            f"drift MdAPE={mdape} ({drift.n} scored, +{d_scored})"
        )

    observed = run_observed_replay(
        config,
        obs=obs,
        progress=watch if args.watch else None,
        progress_every=args.watch_every if args.watch else 0,
    )
    print(observed.quarantine.summary().splitlines()[0])
    print(observed.report.render())

    latency = obs.registry.histogram("serve_predict_batch_latency_seconds")
    if latency.count:
        print(
            f"predict latency p50/p95/p99 "
            f"{latency.quantile(0.5) * 1e3:.2f} / "
            f"{latency.quantile(0.95) * 1e3:.2f} / "
            f"{latency.quantile(0.99) * 1e3:.2f} ms "
            f"over {latency.count} batches"
        )
    if obs.tracer is not None:
        spans = obs.tracer.summary()
        if spans:
            hottest = sorted(
                spans.items(), key=lambda kv: -kv[1]["total_s"])[:8]
            print(f"{'span':<34}{'count':>7}{'p50 ms':>9}"
                  f"{'p95 ms':>9}{'max ms':>9}")
            for name, s in hottest:
                print(f"{name:<34}{s['count']:>7.0f}"
                      f"{s['p50_s'] * 1e3:>9.3f}"
                      f"{s['p95_s'] * 1e3:>9.3f}"
                      f"{s['max_s'] * 1e3:>9.3f}")
    print(f"registry: {len(obs.registry)} series")
    _write_metric_exports(obs.registry, args.json, args.prom)
    return 0 if observed.report.ok else 1


def _cmd_stream_run(args: argparse.Namespace) -> int:
    from repro.logs.io import read_csv as _read_csv, read_jsonl as _read_jsonl
    from repro.obs import Observability, stream_slos
    from repro.serve.fallback import FallbackChain
    from repro.serve.stream import (
        RetrainController,
        RetrainPolicy,
        StreamConfig,
        StreamSupervisor,
        TailIngester,
    )

    path = Path(args.log)
    fmt = "jsonl" if path.suffix in (".jsonl", ".ndjson") else "csv"
    reader = _read_jsonl if fmt == "jsonl" else _read_csv
    store, _ = reader(path, strict=False)
    if not len(store):
        raise ValueError(
            f"{path}: no parseable rows yet — the stream bootstraps its "
            f"fallback chain from the log's current contents")

    state_dir = Path(args.state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    obs = Observability.create(
        events_path=state_dir / "events.jsonl",
        slos=stream_slos(),
    )
    tail = TailIngester(path, fmt=fmt, registry=obs.registry, seed=args.seed)
    policy = RetrainPolicy(workers=args.workers,
                           fit_timeout_s=args.fit_timeout)
    controller = RetrainController(
        FallbackChain.from_log(store),
        obs.drift,
        args.artifacts or Path(args.state_dir) / "artifacts",
        policy=policy,
        registry=obs.registry,
        tracer=obs.tracer,
        seed=args.seed,
    )
    supervisor = StreamSupervisor(
        tail, controller, args.state_dir, obs=obs,
        config=StreamConfig(poll_interval_s=args.poll_interval),
    )
    supervisor.run(max_cycles=args.cycles, max_seconds=args.max_seconds)
    print(json.dumps(supervisor.status(), indent=2, default=str))
    _write_metric_exports(obs.registry, args.metrics_out, args.metrics_prom)
    return 0


def _cmd_stream_status(args: argparse.Namespace) -> int:
    from repro.serve.stream import read_stream_status

    print(json.dumps(read_stream_status(args.state_dir), indent=2,
                     default=str))
    return 0


def _cmd_stream_chaos(args: argparse.Namespace) -> int:
    from repro.obs import Observability
    from repro.serve.stream import StreamChaosConfig, run_stream_chaos

    config = (StreamChaosConfig.quick(seed=args.seed) if args.quick
              else StreamChaosConfig(seed=args.seed))
    obs = Observability.create(trace=False)
    report = run_stream_chaos(config, obs=obs)
    print(report.render())
    _write_metric_exports(obs.registry, args.metrics_out, args.metrics_prom)
    return 0 if report.ok else 1


def _load_registry_json(path: str):
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    registry.load_snapshot(json.loads(Path(path).read_text()))
    return registry


def _stream_status_for_top(state_dir: str) -> tuple[dict, dict]:
    """(stream section, slo section) for :func:`health_snapshot`, read
    from the newest stream checkpoint."""
    from repro.serve.stream import read_stream_status

    status = read_stream_status(state_dir)
    breakers = {
        edge: (payload.get("state", str(payload))
               if isinstance(payload, dict) else str(payload))
        for edge, payload in (status.get("breakers") or {}).items()
    }
    stream = {
        "applied_records": status.get("applied_records", 0),
        "generation": status.get("checkpoint_generation", 0),
        "backlog": status.get("backlog_records", 0),
        "recoveries": len(status.get("rejected_generations") or ()),
        "breakers": breakers,
    }
    return stream, dict(status.get("slo") or {})


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs.events import _json_safe, read_events
    from repro.obs.health import health_snapshot, render_top

    if args.interval <= 0:
        raise ValueError(
            f"--interval must be a positive number of seconds, "
            f"got {args.interval:g}"
        )
    if not (args.metrics or args.events or args.state_dir):
        raise ValueError(
            "top needs at least one source: --metrics METRICS.json, "
            "--events EVENTS.jsonl, and/or --state-dir STATE_DIR"
        )

    def gather() -> dict:
        registry = _load_registry_json(args.metrics) if args.metrics else None
        events = list(read_events(args.events)) if args.events else None
        stream_status = slo_status = None
        if args.state_dir:
            stream_status, slo_status = _stream_status_for_top(args.state_dir)
        return health_snapshot(
            registry=registry,
            events=events,
            slo_status=slo_status,
            stream_status=stream_status,
        )

    history: list[float] = []
    prev_requests: float | None = None
    iterations = 1 if args.once else args.iterations
    rendered = 0
    while True:
        snap = gather()
        total = float(snap.get("requests_total", 0.0))
        if prev_requests is not None:
            history.append(max(total - prev_requests, 0.0))
        prev_requests = total
        if args.json:
            print(json.dumps(_json_safe(snap), indent=2, sort_keys=True))
        else:
            print(render_top(
                snap, history=history if len(history) >= 2 else None))
        rendered += 1
        if iterations is not None and rendered >= iterations:
            return 0
        _time.sleep(args.interval)


def _cmd_events(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs.events import read_events

    def emit(event) -> None:
        print(json.dumps(event.as_dict(), sort_keys=True) if args.json
              else event.render(), flush=True)

    events = list(read_events(
        args.file,
        category=args.category,
        severity=args.severity,
        name=args.name,
        since_seq=args.since_seq,
        limit=getattr(args, "limit", None),
    ))
    if args.events_command == "tail":
        events = events[-args.lines:]
    for event in events:
        emit(event)
    if args.events_command == "query" and not args.json:
        print(f"{len(events)} event(s) matched", file=sys.stderr)

    if args.events_command == "tail" and args.follow:
        if args.poll_interval <= 0:
            raise ValueError("--poll-interval must be > 0")
        last_seq = events[-1].seq if events else args.since_seq
        deadline = (None if args.max_seconds is None
                    else _time.monotonic() + args.max_seconds)
        while deadline is None or _time.monotonic() < deadline:
            _time.sleep(args.poll_interval)
            fresh = list(read_events(
                args.file,
                category=args.category,
                severity=args.severity,
                name=args.name,
                since_seq=last_seq,
            ))
            for event in fresh:
                emit(event)
                last_seq = max(last_seq, event.seq)
    return 0


def _cmd_slo_check(args: argparse.Namespace) -> int:
    import math

    from repro.obs import default_slos
    from repro.obs.slo import evaluate_registry

    if bool(args.metrics) == bool(args.state_dir):
        raise ValueError(
            "slo check needs exactly one of --metrics (instantaneous "
            "registry evaluation) or --state-dir (checkpointed burn-rate "
            "alert state)"
        )

    if args.metrics:
        registry = _load_registry_json(args.metrics)
        results = evaluate_registry(registry, default_slos(
            p99_latency_s=args.p99_target,
            tier0_ratio=args.tier0_target,
            mdape_ceiling=args.mdape_target,
            quarantine_rate=args.quarantine_target,
        ))
        breached = [r for r in results if not r["ok"]]
        for r in results:
            value = ("n/a" if not math.isfinite(r["value"])
                     else f"{r['value']:.6g}")
            op = "<=" if r["mode"] == "max" else ">="
            mark = "ok" if r["ok"] else "BREACH"
            print(f"{r['slo']:<24}{value:>12} {op} {r['target']:<12g}{mark}")
        if args.json:
            payload = [
                {**r, "value": None if not math.isfinite(r["value"])
                 else r["value"]}
                for r in results
            ]
            atomic_write_text(args.json, json.dumps(payload, indent=2))
            print(f"wrote SLO results to {args.json}")
        if breached:
            print(f"error: {len(breached)} SLO(s) breached: "
                  + ", ".join(r["slo"] for r in breached), file=sys.stderr)
            return 1
        return 0

    _, slo = _stream_status_for_top(args.state_dir)
    firing = list(slo.get("firing") or ())
    print(f"checkpoint alert_seq {slo.get('alert_seq', 0)}; "
          f"firing: {', '.join(firing) or 'none'}")
    for entry in slo.get("alert_log") or ():
        print(f"  #{entry.get('alert_seq')} {entry.get('slo')} -> "
              f"{entry.get('state')} at t={entry.get('t')}")
    if firing:
        print(f"error: {len(firing)} alert(s) firing in the newest "
              f"checkpoint", file=sys.stderr)
        return 1
    return 0


def _cmd_state_snapshot(args: argparse.Namespace) -> int:
    from repro.serve.durability import recover_serving_state

    state, report = recover_serving_state(args.dir)
    generation = state.snapshot()
    state.close()
    print(report.render())
    print(f"wrote snapshot generation {generation} to {args.dir} "
          f"(journal rotated, last_seq {state.last_seq})")
    return 0


def _cmd_state_recover(args: argparse.Namespace) -> int:
    from repro.serve.durability import recover_serving_state

    state, report = recover_serving_state(args.dir)
    state.close()
    print(report.render())
    if args.json:
        atomic_write_text(args.json, json.dumps(report.as_dict(), indent=2))
        print(f"wrote recovery report to {args.json}")
    return 0


def _cmd_state_verify(args: argparse.Namespace) -> int:
    from repro.obs import Observability
    from repro.serve.chaos import run_crash_replay

    config = _chaos_config(args)
    obs = Observability.create()
    report = run_crash_replay(
        config,
        state_dir=args.dir,
        kill_after_events=args.kill_event,
        cut_bytes=args.cut_bytes,
        corrupt_snapshot=args.corrupt_snapshot,
        snapshot_every=args.snapshot_every,
        obs=obs,
    )
    print(report.render())
    _write_metric_exports(obs.registry, args.metrics_out, args.metrics_prom)
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-tools",
        description="Simulate transfer logs, train rate models, predict and "
        "tune transfers (HPDC'17 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a production workload to CSV")
    p.add_argument("--days", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="train a per-edge model from a log CSV")
    p.add_argument("--log", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--model", choices=("linear", "gbt"), default="gbt")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "predict", help="predict a transfer's rate at a time point"
    )
    p.add_argument("--model", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--bytes", type=float, required=True)
    p.add_argument("--files", type=int, default=1)
    p.add_argument("--dirs", type=int, default=1)
    p.add_argument("--concurrency", type=int, default=2)
    p.add_argument("--parallelism", type=int, default=4)
    p.add_argument("--at", type=float, default=0.0)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser(
        "advise",
        help="recommend tunables for a transfer (vectorized sweep through "
             "the fallback chain), or schedule a backlog with 'advise plan'",
    )
    p.add_argument("--model", default=None, help="trained bundle JSON")
    p.add_argument("--log", default=None)
    p.add_argument("--bytes", type=float, default=None)
    p.add_argument("--files", type=int, default=1)
    p.add_argument("--dirs", type=int, default=1)
    p.add_argument("--concurrency", type=int, default=2)
    p.add_argument("--parallelism", type=int, default=4)
    p.add_argument("--at", type=float, default=0.0)
    p.add_argument("--src", default=None,
                   help="override the bundle's source endpoint (edges "
                        "without a fitted model degrade through the "
                        "fallback chain)")
    p.add_argument("--dst", default=None,
                   help="override the bundle's destination endpoint")
    p.add_argument("--no-clip", action="store_true",
                   help="do not cap predictions at the Eq. 1 analytical "
                        "bound")
    p.add_argument("--json", default=None,
                   help="write the recommendation (with provenance tiers) "
                        "as JSON here")
    p.add_argument("--metrics-out", default=None,
                   help="write the advise_* metrics registry as JSON here")
    p.set_defaults(func=_cmd_advise)
    advise_sub = p.add_subparsers(dest="advise_command", required=False)
    a = advise_sub.add_parser(
        "plan",
        help="schedule a backlog of transfers against the live active set; "
             "benchmarks the planner against FIFO and naive-greedy",
    )
    a.add_argument("--log", required=True)
    a.add_argument("--model", action="append", dest="models", default=None,
                   help="trained bundle JSON (repeatable; unmodeled edges "
                        "fall through the chain)")
    a.add_argument("--backlog", default=None,
                   help="JSON list of {src, dst, bytes, ...} transfer "
                        "requests (default: synthesise from the log's "
                        "busiest edges)")
    a.add_argument("--count", type=int, default=12,
                   help="synthetic backlog size (ignored with --backlog)")
    a.add_argument("--edges", type=int, default=4,
                   help="busiest edges to round-robin the synthetic "
                        "backlog over")
    a.add_argument("--bytes", type=float, default=None,
                   help="bytes per synthetic transfer (default 10e9)")
    a.add_argument("--files", type=int, default=1)
    a.add_argument("--dirs", type=int, default=1)
    a.add_argument("--concurrency", type=int, default=2)
    a.add_argument("--parallelism", type=int, default=4)
    a.add_argument("--at", type=float, default=0.0)
    a.add_argument("--max-active", type=int, default=4,
                   help="admission cap per endpoint")
    a.add_argument("--policy", choices=("benchmark", "planner", "greedy",
                                        "fifo"),
                   default="benchmark",
                   help="'benchmark' compares all policies and fails if "
                        "the planner predicts worse than FIFO")
    a.add_argument("--no-clip", action="store_true")
    a.add_argument("--json", default=None,
                   help="write the plan/benchmark as JSON here")
    a.add_argument("--metrics-out", default=None,
                   help="write the advise_* metrics registry as JSON here")
    a.set_defaults(func=_cmd_advise_plan)

    p = sub.add_parser(
        "serve-bench",
        help="benchmark batch online prediction against the scalar loop",
    )
    p.add_argument("--actives", type=int, default=10_000)
    p.add_argument("--requests", type=int, default=1_000)
    p.add_argument("--endpoints", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", default=None,
                   help="optional trained bundle (default: synthetic model)")
    p.add_argument("--repeats", type=int, default=1,
                   help="timed repetitions; >1 averages timings and fills "
                        "the latency percentiles")
    p.add_argument("--metrics-out", default=None,
                   help="write the instrumented run's metrics registry "
                        "as JSON here")
    p.add_argument("--workers", type=int, default=None,
                   help="fan --repeats cells out over this many worker "
                        "processes (default: REPRO_WORKERS, else 1; needs "
                        "--repeats > 1 and no --model bundle)")
    p.add_argument("--events-out", default=None,
                   help="write the structured event log (JSONL) here")
    p.add_argument("--flight-threshold", type=float, default=None,
                   help="arm the flight recorder: capture an exemplar "
                        "(request, tiers, per-span timings) for every "
                        "batch slower than this many seconds")
    p.add_argument("--shards", type=int, default=None,
                   help="benchmark the sharded serving tier with this many "
                        "worker processes against the single-process "
                        "reference (bit parity + exact count merge; "
                        "incompatible with --model/--workers)")
    p.add_argument("--quick", action="store_true",
                   help="with --shards: small inputs for CI smoke runs")
    p.set_defaults(func=_cmd_serve_bench)

    p = sub.add_parser(
        "bench",
        help="run the performance suite (hot paths, parallel fit parity, "
             "artifact cache, serve-bench) and write BENCH_perf.json",
    )
    p.add_argument("--quick", action="store_true",
                   help="smaller inputs for CI smoke runs")
    p.add_argument("--workers", type=int, default=None,
                   help="worker count for the parallel sections (default: "
                        "REPRO_WORKERS, else 4)")
    p.add_argument("--rounds", type=int, default=None,
                   help="timing rounds per hot path (default: 3 quick / "
                        "5 full)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="BENCH_perf.json",
                   help="report path (default: BENCH_perf.json)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "cache",
        help="inspect or clear the content-addressed artifact cache",
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    for name, fn, help_text in [
        ("stats", _cmd_cache_stats,
         "per-kind entry counts, sizes, and quarantined files"),
        ("clear", _cmd_cache_clear, "delete every cache entry"),
    ]:
        c = cache_sub.add_parser(name, help=help_text)
        c.add_argument("--dir", default=None,
                       help="cache root (default: REPRO_CACHE_DIR, else "
                            ".cache/artifacts next to the repository)")
        c.set_defaults(func=fn)

    p = sub.add_parser("logs", help="log ingestion utilities")
    logs_sub = p.add_subparsers(dest="logs_command", required=True)
    v = logs_sub.add_parser(
        "validate",
        help="lenient-read a log, quarantining malformed rows",
    )
    v.add_argument("--log", required=True)
    v.add_argument("--format", choices=("auto", "csv", "jsonl"), default="auto")
    v.add_argument("--max-quarantine-rate", type=float, default=None,
                   help="fail (exit 1) when the quarantined fraction of "
                        "rows exceeds this, even in lenient mode")
    v.add_argument("--report", default=None,
                   help="also write the quarantine report as JSON here")
    v.set_defaults(func=_cmd_logs_validate)

    p = sub.add_parser(
        "chaos",
        help="fault-injection replay against the serving engine",
    )
    p.add_argument("--quick", action="store_true",
                   help="seconds-scale configuration for CI smoke runs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transfers", type=int, default=400)
    p.add_argument("--strict-active", action="store_true",
                   help="strict ActiveSet: injected faults raise and are "
                        "counted as rejections instead of being absorbed")
    p.add_argument("--metrics-out", default=None,
                   help="instrument the replay and write the metrics "
                        "registry as JSON here")
    p.add_argument("--metrics-prom", default=None,
                   help="instrument the replay and write Prometheus "
                        "exposition text here")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "shard",
        help="the fault-tolerant sharded serving tier",
    )
    shard_sub = p.add_subparsers(dest="shard_command", required=True)
    s = shard_sub.add_parser(
        "chaos",
        help="SIGKILL/drain/rebalance workers mid-workload and prove "
             "every request is answered, answers match the single-process "
             "reference bit-exactly (modulo degraded tags), and restarted "
             "shards recover bit-identical state",
    )
    s.add_argument("--quick", action="store_true",
                   help="2 shards, 4 rounds, one fault of each kind — the "
                        "CI smoke configuration")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--shards", type=int, default=3)
    s.add_argument("--rounds", type=int, default=6)
    s.add_argument("--metrics-out", default=None,
                   help="write the router's shard_* metrics as JSON here")
    s.add_argument("--metrics-prom", default=None,
                   help="write the router's metrics as Prometheus text")
    s.add_argument("--events-out", default=None,
                   help="write the lifecycle event log (worker_crash, "
                        "restarted, degraded_answer, rebalance, ...) here")
    s.add_argument("--json", default=None,
                   help="write the chaos report (per-check verdicts) here")
    s.set_defaults(func=_cmd_shard_chaos)

    p = sub.add_parser(
        "metrics",
        help="observed replay: corrupt JSONL -> lenient ingest -> "
             "instrumented chaos replay; export the metrics registry",
    )
    p.add_argument("--quick", action="store_true",
                   help="seconds-scale configuration for CI smoke runs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transfers", type=int, default=400)
    p.add_argument("--json", default=None,
                   help="write the registry snapshot as JSON here")
    p.add_argument("--prom", default=None,
                   help="write Prometheus exposition text here")
    p.add_argument("--watch", action="store_true",
                   help="print in-flight replay summaries (active "
                        "population, predictions, live drift MdAPE)")
    p.add_argument("--watch-every", type=int, default=50,
                   help="events between --watch summaries")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "stream",
        help="self-healing streaming loop: tail a growing log, retrain on "
             "drift behind circuit breakers, checkpoint crash-safely",
    )
    stream_sub = p.add_subparsers(dest="stream_command", required=True)

    s = stream_sub.add_parser(
        "run",
        help="supervise one log file: tail, predict, score drift, retrain",
    )
    s.add_argument("--log", required=True,
                   help="growing CSV/JSONL transfer log to follow")
    s.add_argument("--state-dir", required=True,
                   help="checkpoint directory (resumed if it exists)")
    s.add_argument("--artifacts", default=None,
                   help="model artifact root (default: STATE_DIR/artifacts)")
    s.add_argument("--cycles", type=int, default=None,
                   help="stop after this many supervision cycles")
    s.add_argument("--max-seconds", type=float, default=None,
                   help="stop after this much wall-clock time")
    s.add_argument("--poll-interval", type=float, default=1.0,
                   help="seconds between polls when the file is idle")
    s.add_argument("--fit-timeout", type=float, default=30.0,
                   help="per-edge refit deadline in seconds")
    s.add_argument("--workers", type=int, default=1,
                   help="parallel refit workers")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--metrics-out", default=None,
                   help="write the metrics registry as JSON here")
    s.add_argument("--metrics-prom", default=None,
                   help="write Prometheus exposition text here")
    s.set_defaults(func=_cmd_stream_run)

    s = stream_sub.add_parser(
        "status",
        help="summarize the newest valid checkpoint without running",
    )
    s.add_argument("--state-dir", required=True)
    s.set_defaults(func=_cmd_stream_status)

    s = stream_sub.add_parser(
        "chaos",
        help="fault-injection proof: crashes, poisoned refits, corrupt "
             "artifacts, truncation/rotation — exits non-zero on any "
             "violated guarantee",
    )
    s.add_argument("--quick", action="store_true",
                   help="seconds-scale configuration for CI smoke runs")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--metrics-out", default=None,
                   help="write the metrics registry as JSON here")
    s.add_argument("--metrics-prom", default=None,
                   help="write Prometheus exposition text here")
    s.set_defaults(func=_cmd_stream_chaos)

    p = sub.add_parser(
        "state",
        help="durable serving state: snapshots, recovery, crash verification",
    )
    state_sub = p.add_subparsers(dest="state_command", required=True)

    s = state_sub.add_parser(
        "snapshot",
        help="recover a state directory, then force a fresh snapshot "
             "(rotates the journal)",
    )
    s.add_argument("--dir", required=True,
                   help="durable state directory (journal + snapshots)")
    s.set_defaults(func=_cmd_state_snapshot)

    s = state_sub.add_parser(
        "recover",
        help="recover a state directory and print the recovery report",
    )
    s.add_argument("--dir", required=True,
                   help="durable state directory (journal + snapshots)")
    s.add_argument("--json", default=None,
                   help="also write the recovery report as JSON here")
    s.set_defaults(func=_cmd_state_recover)

    s = state_sub.add_parser(
        "verify",
        help="crash-injection property check: kill mid-stream, tear the "
             "journal tail, recover, and prove state equivalence",
    )
    s.add_argument("--quick", action="store_true",
                   help="seconds-scale configuration for CI smoke runs")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--transfers", type=int, default=400)
    s.add_argument("--dir", default=None,
                   help="state directory to use (default: a temporary one, "
                        "removed afterwards)")
    s.add_argument("--kill-event", type=int, default=None,
                   help="kill after this many events (default: ~60%% of "
                        "the stream)")
    s.add_argument("--cut-bytes", type=int, default=17,
                   help="bytes to tear off the journal tail after the kill")
    s.add_argument("--corrupt-snapshot", action="store_true",
                   help="also flip a byte in the newest snapshot so "
                        "recovery must fall back a generation")
    s.add_argument("--snapshot-every", type=int, default=64,
                   help="journal records between automatic snapshots")
    s.add_argument("--metrics-out", default=None,
                   help="write the recovered run's metrics registry as "
                        "JSON here")
    s.add_argument("--metrics-prom", default=None,
                   help="write Prometheus exposition text here")
    s.set_defaults(func=_cmd_state_verify)

    p = sub.add_parser(
        "top",
        help="ASCII ops dashboard over the obs stack: latency, tier mix, "
             "drift, SLO burn, flight exemplars, recent events",
    )
    p.add_argument("--metrics", default=None,
                   help="metrics registry JSON (any --metrics-out / "
                        "metrics --json export)")
    p.add_argument("--events", default=None,
                   help="structured event log JSONL sink")
    p.add_argument("--state-dir", default=None,
                   help="stream supervisor state directory (checkpointed "
                        "stream + SLO alert state)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between refreshes (must be > 0)")
    p.add_argument("--iterations", type=int, default=None,
                   help="stop after this many refreshes (default: forever)")
    p.add_argument("--once", action="store_true",
                   help="render a single frame and exit")
    p.add_argument("--json", action="store_true",
                   help="emit the health snapshot as strict JSON instead "
                        "of the dashboard")
    p.set_defaults(func=_cmd_top)

    p = sub.add_parser(
        "events",
        help="inspect a structured event log (JSONL sink)",
    )
    events_sub = p.add_subparsers(dest="events_command", required=True)
    for name, help_text in [
        ("tail", "print the last N matching events"),
        ("query", "print every matching event"),
    ]:
        e = events_sub.add_parser(name, help=help_text)
        e.add_argument("--file", required=True,
                       help="event log JSONL path")
        e.add_argument("--category", default=None,
                       help="filter: event category (serve, stream, slo, "
                            "ingest, exec, durability, flight, ...)")
        e.add_argument("--severity", default=None,
                       choices=("info", "warning", "error", "critical"))
        e.add_argument("--name", default=None,
                       help="filter: event name within its category")
        e.add_argument("--since-seq", type=int, default=0,
                       help="only events with seq strictly greater")
        e.add_argument("--json", action="store_true",
                       help="one JSON object per line instead of rendered "
                            "text")
        if name == "tail":
            e.add_argument("-n", "--lines", "--last", dest="lines",
                           type=int, default=10,
                           help="print the last N matching events "
                                "(--last is an alias)")
            e.add_argument("-f", "--follow", action="store_true",
                           help="after printing, poll the file and print "
                                "new matching events as they are appended")
            e.add_argument("--poll-interval", type=float, default=0.5,
                           help="seconds between --follow polls")
            e.add_argument("--max-seconds", type=float, default=None,
                           help="stop --follow after this many seconds "
                                "(default: forever)")
        else:
            e.add_argument("--limit", type=int, default=None,
                           help="stop after this many matches")
        e.set_defaults(func=_cmd_events)

    p = sub.add_parser(
        "slo",
        help="service-level objectives: instantaneous gate and "
             "checkpointed burn-rate alerts",
    )
    slo_sub = p.add_subparsers(dest="slo_command", required=True)
    c = slo_sub.add_parser(
        "check",
        help="evaluate SLOs and exit non-zero on any breach / firing "
             "alert (the CI gate)",
    )
    c.add_argument("--metrics", default=None,
                   help="metrics registry JSON to evaluate the default "
                        "serving SLOs against")
    c.add_argument("--state-dir", default=None,
                   help="stream state directory: check the checkpointed "
                        "burn-rate alert state instead")
    c.add_argument("--p99-target", type=float, default=0.25,
                   help="predict_p99_latency budget in seconds")
    c.add_argument("--tier0-target", type=float, default=0.5,
                   help="minimum edge-tier serve ratio")
    c.add_argument("--mdape-target", type=float, default=60.0,
                   help="worst per-tier MdAPE ceiling (%%)")
    c.add_argument("--quarantine-target", type=float, default=0.10,
                   help="maximum quarantined row fraction")
    c.add_argument("--json", default=None,
                   help="write the evaluation results as JSON here")
    c.set_defaults(func=_cmd_slo_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
