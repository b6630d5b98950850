"""End-to-end tests for the repro-tools CLI workflow."""

import json

import pytest

from repro.cli import main
from repro.logs.io import read_csv


@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    """simulate -> train once for the whole module (the slow part)."""
    root = tmp_path_factory.mktemp("cli")
    log_path = root / "log.csv"
    model_path = root / "model.json"
    rc = main(["simulate", "--days", "0.6", "--seed", "3", "--out", str(log_path)])
    assert rc == 0
    log = read_csv(log_path)
    # Pick the busiest edge so training has samples.
    src, dst = log.heavy_edges(1)[0]
    rc = main(
        [
            "train", "--log", str(log_path), "--src", src, "--dst", dst,
            "--model", "gbt", "--threshold", "0.0", "--out", str(model_path),
        ]
    )
    assert rc == 0
    return log_path, model_path, src, dst


class TestSimulate:
    def test_log_written_and_readable(self, workflow):
        log_path, *_ = workflow
        log = read_csv(log_path)
        assert len(log) > 50


class TestTrain:
    def test_bundle_contents(self, workflow):
        _, model_path, src, dst = workflow
        bundle = json.loads(model_path.read_text())
        assert bundle["src"] == src and bundle["dst"] == dst
        assert bundle["model_kind"] == "gbt"
        assert bundle["mdape"] >= 0.0
        assert len(bundle["feature_names"]) == 15

    def test_train_unknown_edge_fails_cleanly(self, workflow, capsys):
        log_path, model_path, *_ = workflow
        rc = main(
            [
                "train", "--log", str(log_path), "--src", "GHOST-DTN",
                "--dst", "NERSC-DTN", "--out", str(model_path) + ".tmp",
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestPredictAndAdvise:
    def test_predict_prints_rate(self, workflow, capsys):
        log_path, model_path, *_ = workflow
        rc = main(
            [
                "predict", "--model", str(model_path), "--log", str(log_path),
                "--bytes", "5e10", "--files", "100", "--at", "20000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted" in out and "MB/s" in out

    def test_advise_prints_grid(self, workflow, capsys):
        log_path, model_path, *_ = workflow
        rc = main(
            [
                "advise", "--model", str(model_path), "--log", str(log_path),
                "--bytes", "5e10", "--files", "100", "--at", "20000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "recommended tunables" in out
        assert "C=" in out

    def test_advise_prints_provenance_tier(self, workflow, capsys):
        log_path, model_path, *_ = workflow
        rc = main(
            [
                "advise", "--model", str(model_path), "--log", str(log_path),
                "--bytes", "5e10", "--at", "20000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tier=edge" in out

    def test_advise_unmodeled_edge_falls_back(self, workflow, capsys):
        """An edge with no fitted model must degrade through the fallback
        chain and print its provenance tier, not crash with KeyError."""
        log_path, model_path, src, dst = workflow
        log = read_csv(log_path)
        other = next(e for e in log.heavy_edges(1) if e != (src, dst))
        rc = main(
            [
                "advise", "--model", str(model_path), "--log", str(log_path),
                "--bytes", "5e10", "--at", "20000",
                "--src", other[0], "--dst", other[1],
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "recommended tunables" in out
        assert f"{other[0]} -> {other[1]}" in out
        assert "tier=edge" not in out  # some coarser tier served it
        assert "tier=" in out

    def test_advise_json_and_metrics_outputs(self, workflow, tmp_path):
        log_path, model_path, *_ = workflow
        rec_path = tmp_path / "rec.json"
        metrics_path = tmp_path / "metrics.json"
        rc = main(
            [
                "advise", "--model", str(model_path), "--log", str(log_path),
                "--bytes", "5e10", "--at", "20000",
                "--json", str(rec_path), "--metrics-out", str(metrics_path),
            ]
        )
        assert rc == 0
        rec = json.loads(rec_path.read_text())
        assert rec["tier"] == "edge"
        assert rec["gain_over_worst"] >= 1.0
        assert all("tier" in alt for alt in rec["alternatives"])
        metrics = json.loads(metrics_path.read_text())
        names = {c["name"] for c in metrics["counters"]}
        assert "advise_sweeps_total" in names
        assert "advise_candidates_total" in names

    def test_advise_without_required_args_errors(self, workflow, capsys):
        _, model_path, *_ = workflow
        rc = main(["advise", "--model", str(model_path)])
        assert rc == 2
        assert "advise requires" in capsys.readouterr().err

    def test_missing_model_file(self, workflow, capsys):
        log_path, *_ = workflow
        rc = main(
            [
                "predict", "--model", "/nonexistent.json", "--log",
                str(log_path), "--bytes", "1e9",
            ]
        )
        assert rc == 2


class TestAdvisePlan:
    def test_benchmark_table_and_json(self, workflow, tmp_path, capsys):
        log_path, model_path, *_ = workflow
        plan_path = tmp_path / "plan.json"
        metrics_path = tmp_path / "metrics.json"
        rc = main(
            [
                "advise", "plan", "--log", str(log_path),
                "--model", str(model_path), "--count", "6", "--at", "20000",
                "--json", str(plan_path), "--metrics-out", str(metrics_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "planner" in out and "fifo" in out and "greedy" in out
        plan = json.loads(plan_path.read_text())
        assert plan["planner_no_worse_than_fifo"] is True
        assert plan["policies"]["planner"]["makespan_s"] <= (
            plan["policies"]["fifo"]["makespan_s"] * (1 + 1e-9)
        )
        metrics = json.loads(metrics_path.read_text())
        names = {c["name"] for c in metrics["counters"]}
        assert "advise_plans_total" in names

    def test_single_policy_plan(self, workflow, capsys):
        log_path, model_path, *_ = workflow
        rc = main(
            [
                "advise", "plan", "--log", str(log_path),
                "--model", str(model_path), "--count", "4",
                "--at", "20000", "--policy", "planner",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "provenance tiers used" in out

    def test_explicit_backlog_file(self, workflow, tmp_path, capsys):
        log_path, model_path, src, dst = workflow
        backlog_path = tmp_path / "backlog.json"
        backlog_path.write_text(json.dumps([
            {"src": src, "dst": dst, "bytes": 10e9},
            {"src": src, "dst": dst, "bytes": 5e9, "concurrency": 4},
        ]))
        rc = main(
            [
                "advise", "plan", "--log", str(log_path),
                "--model", str(model_path),
                "--backlog", str(backlog_path), "--at", "20000",
            ]
        )
        assert rc == 0
        assert "planning 2 transfers" in capsys.readouterr().out

    def test_bad_backlog_rejected(self, workflow, tmp_path, capsys):
        log_path, *_ = workflow
        backlog_path = tmp_path / "empty.json"
        backlog_path.write_text("[]")
        rc = main(
            [
                "advise", "plan", "--log", str(log_path),
                "--backlog", str(backlog_path),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestLogsValidate:
    def test_clean_log_returns_zero(self, workflow, capsys):
        log_path, *_ = workflow
        rc = main(["logs", "validate", "--log", str(log_path)])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_corrupted_log_returns_one_and_writes_report(
        self, workflow, tmp_path, capsys
    ):
        log_path, *_ = workflow
        lines = log_path.read_text().splitlines()
        lines[3] = "garbage,row"
        lines[5] = lines[5].replace("GCS", "WAT")
        bad_path = tmp_path / "bad.csv"
        bad_path.write_text("\n".join(lines) + "\n")
        report_path = tmp_path / "report.json"
        rc = main(
            [
                "logs", "validate", "--log", str(bad_path),
                "--report", str(report_path),
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "quarantined" in out
        report = json.loads(report_path.read_text())
        assert report["kept_rows"] == report["total_rows"] - 2
        assert len(report["rows"]) == 2

    def test_jsonl_format_autodetected(self, workflow, tmp_path):
        from repro.logs.io import write_jsonl

        log_path, *_ = workflow
        jsonl_path = tmp_path / "log.jsonl"
        write_jsonl(read_csv(log_path), jsonl_path)
        rc = main(["logs", "validate", "--log", str(jsonl_path)])
        assert rc == 0

    @pytest.fixture
    def slightly_corrupt(self, workflow, tmp_path):
        log_path, *_ = workflow
        lines = log_path.read_text().splitlines()
        lines[3] = "garbage,row"
        bad_path = tmp_path / "bad.csv"
        bad_path.write_text("\n".join(lines) + "\n")
        return bad_path, 1 / (len(lines) - 1)    # quarantined fraction

    def test_quarantine_rate_within_budget_passes(
        self, slightly_corrupt, capsys
    ):
        bad_path, rate = slightly_corrupt
        rc = main([
            "logs", "validate", "--log", str(bad_path),
            "--max-quarantine-rate", str(rate * 2),
        ])
        assert rc == 0                           # corrupt, but within budget
        assert "within budget" in capsys.readouterr().out

    def test_quarantine_rate_over_budget_fails(
        self, slightly_corrupt, capsys
    ):
        bad_path, rate = slightly_corrupt
        rc = main([
            "logs", "validate", "--log", str(bad_path),
            "--max-quarantine-rate", str(rate / 2),
        ])
        assert rc == 1
        assert "EXCEEDS budget" in capsys.readouterr().out

    def test_zero_budget_on_clean_log_passes(self, workflow, capsys):
        log_path, *_ = workflow
        rc = main(["logs", "validate", "--log", str(log_path),
                   "--max-quarantine-rate", "0.0"])
        assert rc == 0


class TestChaos:
    def test_quick_run_is_clean(self, capsys):
        rc = main(["chaos", "--quick", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict" in out and "OK" in out


class TestFailingVerdicts:
    """Every proof command turns a failing Verdict into exit code 1 and
    names the failed check."""

    @pytest.mark.parametrize("module, harness, argv", [
        ("repro.serve.chaos", "run_chaos_replay", ["chaos", "--quick"]),
        ("repro.serve.chaos", "run_crash_replay",
         ["state", "verify", "--quick"]),
        ("repro.serve.stream", "run_stream_chaos",
         ["stream", "chaos", "--quick"]),
        ("repro.serve.shard", "run_shard_chaos",
         ["shard", "chaos", "--quick"]),
    ])
    def test_failed_check_exits_1(self, monkeypatch, capsys, tmp_path,
                                  module, harness, argv):
        import importlib

        from repro.serve.chaos import Verdict

        def failing(*args, **kwargs):
            verdict = Verdict(title="forced")
            verdict.check("a passing check", True)
            verdict.check("a forced failure", False, "injected by the test")
            return verdict

        monkeypatch.setattr(importlib.import_module(module), harness, failing)
        if argv[0] == "shard":
            argv = argv + ["--json", str(tmp_path / "report.json")]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "verdict                   FAILED" in out
        assert "a forced failure          FAILED  (injected by the test)" \
            in out
        if argv[0] == "shard":
            report = json.loads((tmp_path / "report.json").read_text())
            assert report["ok"] is False
            assert ["a forced failure", False, "injected by the test"] \
                in report["checks"]


class TestServeBench:
    def test_synthetic_bench_runs_and_agrees(self, capsys):
        rc = main(
            [
                "serve-bench", "--actives", "200", "--requests", "40",
                "--endpoints", "8", "--seed", "0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "engine stats" in out

    def test_with_trained_model_bundle(self, workflow, capsys):
        _, model_path, *_ = workflow
        rc = main(
            [
                "serve-bench", "--actives", "150", "--requests", "30",
                "--endpoints", "6", "--model", str(model_path),
            ]
        )
        assert rc == 0
        assert "requests" in capsys.readouterr().out


class TestState:
    def test_verify_quick_passes(self, capsys, tmp_path):
        metrics_json = tmp_path / "m.json"
        metrics_prom = tmp_path / "m.prom"
        rc = main([
            "state", "verify", "--quick", "--seed", "2",
            "--metrics-out", str(metrics_json),
            "--metrics-prom", str(metrics_prom),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict" in out and "OK" in out
        data = json.loads(metrics_json.read_text())
        names = {c["name"] for c in data["counters"]}
        assert "durability_journal_records_total" in names
        assert "durability_recoveries_total" in names
        assert "durability_journal_records_total" in metrics_prom.read_text()

    def test_verify_with_corrupt_snapshot(self, capsys):
        rc = main([
            "state", "verify", "--quick", "--seed", "3", "--corrupt-snapshot",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "newest snapshot corrupted" in out

    def test_recover_cold_start_and_snapshot_cycle(self, capsys, tmp_path):
        state_dir = tmp_path / "state"
        rc = main(["state", "recover", "--dir", str(state_dir),
                   "--json", str(tmp_path / "report.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cold start" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["snapshot_generation"] == 0

        rc = main(["state", "snapshot", "--dir", str(state_dir)])
        assert rc == 0
        assert "wrote snapshot generation 1" in capsys.readouterr().out

        rc = main(["state", "recover", "--dir", str(state_dir)])
        assert rc == 0
        assert "snapshot generation 1" in capsys.readouterr().out

    def test_verify_rejects_negative_tear(self, capsys, tmp_path):
        rc = main(["state", "verify", "--quick", "--cut-bytes", "-40",
                   "--dir", str(tmp_path / "sd")])
        assert rc == 2
        assert "cut_bytes must be >= 0" in capsys.readouterr().err

    def test_verify_populates_state_dir(self, tmp_path):
        state_dir = tmp_path / "crash-state"
        rc = main(["state", "verify", "--quick", "--dir", str(state_dir)])
        assert rc == 0
        assert any(p.name.startswith("snapshot-")
                   for p in state_dir.iterdir())


class TestStream:
    @pytest.fixture
    def live_jsonl(self, tmp_path):
        from repro.logs.io import write_jsonl
        from tests.core.conftest import make_random_store

        path = tmp_path / "live.jsonl"
        write_jsonl(make_random_store(n=40, n_endpoints=4, seed=9), path)
        return path

    def test_run_then_status(self, live_jsonl, tmp_path, capsys):
        state_dir = tmp_path / "state"
        rc = main([
            "stream", "run", "--log", str(live_jsonl),
            "--state-dir", str(state_dir),
            "--cycles", "6", "--poll-interval", "0",
            "--metrics-out", str(tmp_path / "metrics.json"),
        ])
        assert rc == 0
        status = json.loads(
            capsys.readouterr().out.split("wrote metrics JSON")[0])
        assert status["applied_records"] == 40
        assert (tmp_path / "metrics.json").exists()

        rc = main(["stream", "status", "--state-dir", str(state_dir)])
        assert rc == 0
        offline = json.loads(capsys.readouterr().out)
        assert offline["recovered"] is True
        assert offline["applied_records"] == 40
        assert offline["applied_digest"] == status["applied_digest"]

    def test_status_without_state(self, tmp_path, capsys):
        rc = main(["stream", "status", "--state-dir", str(tmp_path / "no")])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["recovered"] is False

    def test_run_refuses_empty_log(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(["stream", "run", "--log", str(empty),
                   "--state-dir", str(tmp_path / "state"), "--cycles", "1"])
        assert rc == 2
        assert "no parseable rows" in capsys.readouterr().err

    def test_chaos_quick_is_clean(self, tmp_path, capsys):
        rc = main(["stream", "chaos", "--quick",
                   "--metrics-out", str(tmp_path / "chaos-metrics.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict                   OK" in out
        assert "exactly-once ingestion    OK" in out
        assert (tmp_path / "chaos-metrics.json").exists()


class TestDiagnosisCLI:
    """`top`, `events`, `slo check`, and the metrics-watch validation —
    the diagnosis layer's operator surface."""

    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        """One instrumented serve-bench run: metrics + event sink."""
        root = tmp_path_factory.mktemp("diag")
        metrics = root / "m.json"
        events = root / "events.jsonl"
        rc = main([
            "serve-bench", "--actives", "200", "--requests", "60",
            "--endpoints", "8", "--repeats", "2",
            "--flight-threshold", "0",
            "--metrics-out", str(metrics), "--events-out", str(events),
        ])
        assert rc == 0
        return metrics, events

    @pytest.fixture(scope="class")
    def stream_state(self, tmp_path_factory):
        from repro.logs.io import write_jsonl
        from tests.core.conftest import make_random_store

        root = tmp_path_factory.mktemp("diag-stream")
        log = root / "live.jsonl"
        write_jsonl(make_random_store(n=40, n_endpoints=4, seed=9), log)
        state_dir = root / "state"
        rc = main([
            "stream", "run", "--log", str(log),
            "--state-dir", str(state_dir),
            "--cycles", "6", "--poll-interval", "0",
        ])
        assert rc == 0
        return state_dir

    def test_top_once_json_is_strict_and_complete(self, artifacts, capsys):
        metrics, events = artifacts
        rc = main(["top", "--once", "--json",
                   "--metrics", str(metrics), "--events", str(events)])
        assert rc == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["requests_total"] > 0
        assert snap["latency"]["count"] > 0
        assert snap["events"], snap
        assert snap["events"][-1]["v"] == 1

    def test_top_once_renders_dashboard(self, artifacts, capsys):
        metrics, events = artifacts
        rc = main(["top", "--once",
                   "--metrics", str(metrics), "--events", str(events)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro-tools top" in out
        assert "tier mix" in out
        assert "recent events" in out

    def test_top_reads_stream_state(self, stream_state, capsys):
        rc = main(["top", "--once", "--json",
                   "--state-dir", str(stream_state)])
        assert rc == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["stream"]["applied_records"] == 40
        assert "firing" in snap["slo"]

    def test_top_requires_a_source(self, capsys):
        rc = main(["top", "--once"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_top_rejects_nonpositive_interval(self, artifacts, capsys):
        metrics, _ = artifacts
        rc = main(["top", "--metrics", str(metrics), "--interval", "0"])
        assert rc == 2
        assert "--interval" in capsys.readouterr().err

    def test_events_tail_lines_and_json(self, artifacts, capsys):
        _, events = artifacts
        rc = main(["events", "tail", "--file", str(events), "-n", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all("flight/exemplar" in line for line in lines)

        rc = main(["events", "tail", "--file", str(events),
                   "-n", "3", "--json"])
        assert rc == 0
        parsed = [json.loads(line)
                  for line in capsys.readouterr().out.strip().splitlines()]
        assert all(e["category"] == "flight" for e in parsed)

    def test_events_query_filters(self, artifacts, capsys):
        _, events = artifacts
        rc = main(["events", "query", "--file", str(events),
                   "--category", "flight", "--severity", "warning",
                   "--json"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out
        rc = main(["events", "query", "--file", str(events),
                   "--category", "no-such-category", "--json"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == ""

    def test_slo_check_passes_healthy_metrics(self, artifacts, capsys,
                                              tmp_path):
        metrics, _ = artifacts
        out_json = tmp_path / "slo.json"
        rc = main(["slo", "check", "--metrics", str(metrics),
                   "--json", str(out_json)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "predict_p99_latency" in out and "BREACH" not in out
        results = json.loads(out_json.read_text())
        assert all(r["ok"] for r in results)

    def test_slo_check_gates_impossible_budget(self, artifacts, capsys):
        metrics, _ = artifacts
        rc = main(["slo", "check", "--metrics", str(metrics),
                   "--p99-target", "1e-9"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "BREACH" in captured.out
        assert "breached" in captured.err

    def test_slo_check_reads_checkpointed_state(self, stream_state, capsys):
        rc = main(["slo", "check", "--state-dir", str(stream_state)])
        assert rc == 0
        assert "alert" in capsys.readouterr().out

    def test_slo_check_requires_exactly_one_source(self, artifacts, capsys):
        metrics, _ = artifacts
        assert main(["slo", "check"]) == 2
        capsys.readouterr()
        rc = main(["slo", "check", "--metrics", str(metrics),
                   "--state-dir", "/nope"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_metrics_watch_rejects_nonpositive_interval(self, capsys):
        rc = main(["metrics", "--quick", "--watch", "--watch-every", "0"])
        assert rc == 2
        assert "--watch-every" in capsys.readouterr().err


class TestShardCLI:
    """`shard chaos`, `serve-bench --shards`, and the events tail
    follow/last flags — the sharded tier's operator surface."""

    @pytest.fixture(scope="class")
    def shard_artifacts(self, tmp_path_factory):
        """One quick shard-chaos run with metrics + events exported."""
        root = tmp_path_factory.mktemp("shard")
        metrics = root / "m.json"
        events = root / "events.jsonl"
        report = root / "report.json"
        rc = main([
            "shard", "chaos", "--quick",
            "--metrics-out", str(metrics), "--events-out", str(events),
            "--json", str(report),
        ])
        assert rc == 0
        return metrics, events, report

    def test_chaos_quick_is_clean(self, shard_artifacts, capsys):
        metrics, events, report = shard_artifacts
        data = json.loads(report.read_text())
        assert data["ok"] is True
        assert data["restarts"] >= 1
        assert metrics.exists() and events.exists()

    def test_chaos_events_include_lifecycle(self, shard_artifacts):
        _, events, _ = shard_artifacts
        names = {json.loads(line)["name"]
                 for line in events.read_text().splitlines()}
        assert "worker_crash" in names
        assert "restarted" in names
        assert "rebalance" in names

    def test_chaos_metrics_export_has_shard_counters(self, shard_artifacts):
        metrics, *_ = shard_artifacts
        names = {c["name"]
                 for c in json.loads(metrics.read_text())["counters"]}
        assert "shard_requests_total" in names
        assert "shard_restarts_total" in names

    def test_serve_bench_shards_parity(self, tmp_path, capsys):
        metrics = tmp_path / "merged.json"
        rc = main([
            "serve-bench", "--shards", "2", "--quick",
            "--actives", "120", "--requests", "48", "--endpoints", "6",
            "--metrics-out", str(metrics),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "parity                    OK" in out
        merged = json.loads(metrics.read_text())
        assert any(c["name"] == "shard_requests_total"
                   for c in merged["counters"])

    def test_serve_bench_shards_rejects_model(self, tmp_path, capsys):
        rc = main(["serve-bench", "--shards", "2",
                   "--model", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "--shards" in capsys.readouterr().err

    def test_events_tail_last_alias(self, shard_artifacts, capsys):
        _, events, _ = shard_artifacts
        rc = main(["events", "tail", "--file", str(events), "--last", "3"])
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_events_tail_follow_exits_at_deadline(self, shard_artifacts,
                                                  capsys):
        _, events, _ = shard_artifacts
        rc = main(["events", "tail", "--file", str(events),
                   "--last", "1", "--follow",
                   "--poll-interval", "0.05", "--max-seconds", "0.3"])
        assert rc == 0
        assert capsys.readouterr().out.strip()

    def test_events_tail_follow_picks_up_new_events(self, tmp_path, capsys):
        import threading
        import time

        from repro.obs.events import EventLog

        path = tmp_path / "live.jsonl"
        log = EventLog(path=path)
        log.emit("shard", "restarted", shard="shard-0")

        def append_later():
            time.sleep(0.15)
            log.emit("shard", "rebalance", shard="shard-1")

        t = threading.Thread(target=append_later)
        t.start()
        rc = main(["events", "tail", "--file", str(path),
                   "--last", "1", "--follow",
                   "--poll-interval", "0.05", "--max-seconds", "1.0"])
        t.join()
        assert rc == 0
        out = capsys.readouterr().out
        assert "shard/restarted" in out
        assert "shard/rebalance" in out

    def test_events_tail_follow_rejects_bad_poll(self, tmp_path, capsys):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        rc = main(["events", "tail", "--file", str(path),
                   "--follow", "--poll-interval", "0"])
        assert rc == 2
        assert "--poll-interval" in capsys.readouterr().err
