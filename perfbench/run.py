#!/usr/bin/env python3
"""Run one benchmark workload against the program in ``src/``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 7 --seconds 10 --trace 0

Workloads: ``fit``, ``serve``, ``stream`` (see ``perfbench/README.md``).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
workload runs once untraced and once traced on the same seed, and the
metrics are the per-layer ones (``trace.overhead_pct`` compares the two;
the traced ``serve`` run adds its churn and shard sections).

Exit status: 0 when every output check passed, 1 when one failed (the
JSON line is still printed), 2 when the program or inputs are missing.
Run records (environment, phases, checks, layer table) are written to
``.perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pbench import catalog  # noqa: E402
from pbench.inputs import FULL, Workspace  # noqa: E402

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def metric_units(kind: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics, in
    the order ``BENCHMARK.json`` lists them."""
    spec = json.loads(SPEC_PATH.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _run_once(ws, workload: str, seed: int, seconds: float, trace: bool,
              scale):
    from pbench.common import RunContext

    ctx = RunContext(ws=ws, seed=seed, seconds=seconds, trace=trace,
                     scale=scale)
    if workload == "fit":
        from pbench import wl_fit

        wl_fit.run(ctx)
    elif workload == "stream":
        from pbench import wl_stream

        wl_stream.run(ctx)
    else:
        from pbench import wl_serve

        wl_serve.run(ctx)
    return ctx


def _finite(value: float) -> float:
    value = float(value)
    return value if math.isfinite(value) else 0.0


def run(ws: Workspace, workload: str, seed: int, seconds: float, trace: bool,
        scale=FULL) -> dict:
    """Run a workload; returns the full run record (``result`` is the
    JSON object printed last)."""
    from pbench.common import environment

    env = environment(ws)
    end_to_end = metric_units("end_to_end")
    if not trace:
        ctx = _run_once(ws, workload, seed, seconds, False, scale)
        runs = [ctx]
        metrics = {name: {"value": _finite(ctx.e2e.get(name, 0.0)),
                          "unit": unit}
                   for name, unit in end_to_end.items()}
    else:
        # Paired: the same seed untraced, then traced.  Set-up is not
        # reported here, so each side sets up once.
        from dataclasses import replace

        one = replace(scale, setup_rounds=1)
        plain = _run_once(ws, workload, seed, seconds, False, one)
        ctx = _run_once(ws, workload, seed, seconds, True, one)
        runs = [plain, ctx]
        base = plain.e2e.get("latency_ms", 0.0)
        ctx.layers["trace.overhead_pct"] = (
            (ctx.e2e.get("latency_ms", 0.0) - base) / base * 100.0
            if base else 0.0)
        metrics = {name: {"value": _finite(ctx.layers.get(name, 0.0)),
                          "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    if trace:
        metrics["error_pct"]["value"] = (
            100.0 * failed / attempted if attempted else 0.0)
    correct = all(r.correct for r in runs) and failed == 0
    result = {"correct": correct, "attempted": max(attempted, 1),
              "failed": failed, "metrics": metrics}
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": env,
        "samples": ctx.samples, "phases": ctx.phases,
        "also_measured": {k: v for k, v in ctx.e2e.items()
                          if k not in end_to_end},
        "checks": [c.__dict__ for r in runs for c in r.checks],
        "notes": ctx.notes[:50],
        "layer_table": ctx.rec.table(),
        "result": result,
    }


def render(record: dict) -> str:
    """Human-readable lines printed before the JSON result."""
    lines = [f"workload {record['workload']}  seed {record['seed']}  "
             f"seconds {record['seconds']:g}  trace {int(record['trace'])}"]
    env = record["environment"]
    lines.append(
        f"host: {env['cores']} cores, python {env['python']}, numpy "
        f"{env['numpy']}, blas {env.get('blas')} threads "
        f"{env.get('blas_threads')}, thread env "
        f"{ {k: v for k, v in env['thread_env'].items() if v} }, git "
        f"{env['git_sha']}, src {env['src_lines']} lines")
    for ph in record["phases"]:
        lines.append(
            "  phase {phase:<10} rate {rate:>9.1f}/s sent {sent:>6} ok "
            "{succeeded:>6} failed {failed:>3} calls {calls:>5} p99 "
            "{p99} ms lag p99 {lag} ms {verdict}".format(
                **ph, p99=_fmt(ph["p99_ms"]), lag=_fmt(ph["lag_p99_ms"]),
                verdict="pass" if ph["passed"] else "FAIL"))
    for c in record["checks"]:
        lines.append(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}"
                     f"  ({c['detail']})" if c["detail"] else
                     f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}")
    if record["trace"]:
        lines.append("  layer table (count, busy, self, wait):")
        for name, row in record["layer_table"].items():
            lines.append(
                f"    {name:<28} {row['count']:>8} {row['busy_s']:>9.4f}s "
                f"{row['self_s']:>9.4f}s {row['wait_s']:>9.4f}s")
        lines.append("  per-layer metrics (expected to move):")
        for name, m in record["result"]["metrics"].items():
            lines.append(f"    {name:<36} {m['value']:>14.6g} {m['unit']:<6}"
                         f" -> {catalog.MOVES[name]}")
    else:
        for name, m in record["result"]["metrics"].items():
            n = record["samples"].get("latency" if name.startswith("latency")
                                      else name)
            extra = f"  (n={n})" if n is not None else ""
            lines.append(f"  {name:<18} {m['value']:>14.6g} {m['unit']}{extra}")
        for name, value in record["also_measured"].items():
            lines.append(f"  {name:<18} {value:>14.6g}  (not gated)")
    return "\n".join(lines)


def _fmt(v) -> str:
    return "-" if v is None else f"{v:.2f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (see perfbench/README.md).")
    parser.add_argument("--workload", required=True, choices=catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    ws = Workspace(Path.cwd())
    if not ws.program_present():
        print(f"error: no program at {ws.src / 'repro'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ws.src))
    ws.prepare()
    # A terminated run still unwinds: shard workers are stopped and the
    # temporary state removed by the ``finally`` blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    t0 = time.perf_counter()
    try:
        record = run(ws, args.workload, args.seed, args.seconds,
                     bool(args.trace))
    finally:
        shutil.rmtree(ws.tmp, ignore_errors=True)
    record["wall_s"] = time.perf_counter() - t0
    out = ws.out / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                    ".json")
    out.write_text(json.dumps(record, indent=1, default=str))
    print(render(record))
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
