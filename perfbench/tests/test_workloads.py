"""Every workload emits every metric with its unit, and every output check
fails when the answer, digest or row count it guards is perturbed."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from pbench import catalog, wl_fit, wl_serve, wl_stream

# A layer each workload must exercise in the traced run.
OWN_LAYER = {
    "fit": "core.pipeline.edges",
    "serve": "serve.batch.fixpoint_rounds",
    "stream": "serve.durability.checkpoints",
}

# Layers only the traced serve run's churn and shard sections exercise.
SECTION_LAYERS = ("serve.active_set.mutations", "serve.active_set.rebuilds",
                  "serve.shard.router_busy_s", "serve.shard.worker_busy_s")


def _failed(record: dict) -> list[str]:
    return [c["name"] for c in record["checks"] if not c["ok"]]


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_end_to_end_metrics(runner, run_tiny, workload):
    record = run_tiny(workload)
    result = record["result"]
    assert result["correct"], _failed(record)
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} \
        == runner.metric_units("end_to_end")
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, name


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_per_layer_metrics(runner, run_tiny, workload):
    record = run_tiny(workload, trace=True)
    result = record["result"]
    assert result["correct"], _failed(record)
    assert {n: m["unit"] for n, m in result["metrics"].items()} \
        == runner.metric_units("per_layer")
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
    assert result["metrics"][OWN_LAYER[workload]]["value"] > 0
    if workload == "serve":
        for name in SECTION_LAYERS:
            assert result["metrics"][name]["value"] > 0, name
    assert record["layer_table"]


# -- serve: perturbed answers ----------------------------------------------------


def _perturb_server(monkeypatch, factory: str, how: str) -> None:
    """Make the servers ``wl_serve.<factory>`` builds answer wrongly: the
    last request of every call gets the next float up, or ``DEGRADED``."""
    from repro.serve import BatchPrediction, ModelTier

    build = getattr(wl_serve, factory)

    def perturbed(*args, **kwargs):
        server = build(*args, **kwargs)
        inner = server.predict

        def predict(requests, now):
            out = inner(requests, now)
            rates, tiers = out.rates.copy(), list(out.tiers)
            if how == "rate":
                rates[-1] = np.nextafter(rates[-1], np.inf)
            else:
                tiers[-1] = ModelTier.DEGRADED
            return BatchPrediction(rates, tuple(tiers), out.nonconverged)

        server.predict = predict
        return server

    monkeypatch.setattr(wl_serve, factory, perturbed)


def test_perturbed_answer_fails_serve(run_tiny, monkeypatch):
    _perturb_server(monkeypatch, "build_server", "rate")
    record = run_tiny("serve")
    assert not record["result"]["correct"]
    assert "answers bit-equal to batch-of-one answers" in _failed(record)


def test_perturbed_live_set_fails_churn_parity(run_tiny, monkeypatch):
    _perturb_server(monkeypatch, "build_server", "rate")
    record = run_tiny("serve", trace=True)
    assert any(n.startswith("churn parity") for n in _failed(record))


@pytest.mark.parametrize("how,check", [
    ("rate", "sharded answers bit-equal to the in-process reference"),
    ("tier", "zero DEGRADED answers through the cluster"),
])
def test_perturbed_cluster_fails(run_tiny, monkeypatch, how, check):
    _perturb_server(monkeypatch, "start_cluster", how)
    record = run_tiny("serve", trace=True)
    failed = _failed(record)
    assert not record["result"]["correct"] and check in failed
    assert "answers bit-equal to batch-of-one answers" not in failed


# -- stream: lost rows, wrong digest ---------------------------------------------


def test_lost_row_fails_stream(run_tiny, monkeypatch):
    cycle = wl_stream.StreamRig.append_and_cycle

    def lossy(self, text, n_rows):
        if not getattr(self, "_dropped", False):
            self._dropped = True
            text = "".join(text.splitlines(keepends=True)[:-1])
        return cycle(self, text, n_rows)

    monkeypatch.setattr(wl_stream.StreamRig, "append_and_cycle", lossy)
    record = run_tiny("stream")
    assert not record["result"]["correct"]
    assert any("applied + shed + quarantined" in n for n in _failed(record))


def test_wrong_digest_fails_stream(run_tiny, monkeypatch):
    cycle = wl_stream.StreamRig.append_and_cycle

    def tampered(self, text, n_rows):
        cycle(self, text, n_rows)
        self.sup.applied_digest = "0" * 64

    monkeypatch.setattr(wl_stream.StreamRig, "append_and_cycle", tampered)
    record = run_tiny("stream")
    assert not record["result"]["correct"]
    assert any("applied_digest" in n for n in _failed(record))


# -- fit: edge set, row counts, MdAPE ------------------------------------------------


@pytest.mark.parametrize("how,check", [
    ("drop", "fitted edge set matches the selection"),
    ("rows", "per-edge row counts match the selection"),
    ("nan", "held-out MdAPE finite"),
])
def test_perturbed_fit_fails(run_tiny, monkeypatch, how, check):
    one_pass = wl_fit.one_pass

    def perturbed(ctx, log_path, clock=None):
        store, edges, results = one_pass(ctx, log_path, clock)
        results = list(results)
        if how == "drop":
            results.pop()
        elif how == "rows":
            results[0] = dataclasses.replace(
                results[0], n_test=results[0].n_test + 1)
        else:
            results[0] = dataclasses.replace(results[0], mdape=float("nan"))
        return store, edges, results

    monkeypatch.setattr(wl_fit, "one_pass", perturbed)
    record = run_tiny("fit")
    assert not record["result"]["correct"]
    assert check in _failed(record)
