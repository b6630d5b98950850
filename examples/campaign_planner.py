#!/usr/bin/env python
"""Campaign planner: schedule a replication backlog with the trained models.

A science campaign must move a backlog of aggressively tuned datasets
(users request C=8) between facilities.  Submitting everything at once
oversubscribes the endpoints: GridFTP processes exceed the core pool and
storage accessors exceed the array's optimal concurrency, so *aggregate*
bandwidth collapses — exactly the paper's §8 observation that "contention
at endpoints can significantly reduce aggregate performance of even
overprovisioned networks" and that "aggregate performance can be improved
by scheduling transfers and/or reducing concurrency and parallelism".

The planner uses only trained per-edge models (no probing):

1. asks :class:`SweepAdvisor` about tunables — and honestly reports when
   the model cannot differentiate them (the history's C/P never varied:
   the paper's low-variance elimination);
2. orders admissions with :class:`AdmissionPlanner`, capping simultaneous
   transfers per endpoint;
3. replays both strategies through the simulator and compares makespans.

Run:  python examples/campaign_planner.py
"""

from dataclasses import replace

import numpy as np

from repro.core import AdmissionPlanner, build_feature_matrix, fit_edge_model
from repro.core.pipeline import GBTSettings
from repro.serve import ActiveSet, SweepAdvisor
from repro.sim import (
    TransferRequest,
    TransferService,
    build_production_fleet,
    production_background_loads,
)
from repro.sim.units import DAY, GB, to_mbyte_per_s
from repro.workload import production_workload

CAMPAIGN_EDGES = [("NERSC-DTN", "ALCF-DTN"), ("NERSC-DTN", "JLAB-DTN")]


def train_models(seed=11):
    print("training per-edge models from simulated history ...")
    fabric = build_production_fleet()
    requests = production_workload(fabric, duration_s=3 * DAY, seed=seed)
    service = TransferService(fabric, seed=seed + 1, stop_background_after=4 * DAY)
    for load in production_background_loads(fabric):
        service.add_onoff_load(load)
    for req in requests:
        service.submit(req)
    log = service.run()
    features = build_feature_matrix(log)
    models = {}
    for src, dst in CAMPAIGN_EDGES:
        models[(src, dst)] = fit_edge_model(
            features, src, dst, model="gbt", threshold=0.5, seed=0,
            gbt=GBTSettings(n_estimators=150),
        )
        print(f"  {src} -> {dst}: test MdAPE {models[(src, dst)].mdape:.1f}%")
    return models


def build_backlog():
    """24 datasets with aggressive user-requested tunables (C=8, P=4)."""
    rng = np.random.default_rng(3)
    backlog = []
    for i in range(24):
        src, dst = CAMPAIGN_EDGES[i % 2]
        backlog.append(
            TransferRequest(
                src=src, dst=dst,
                total_bytes=float(rng.uniform(100, 400)) * GB,
                n_files=int(rng.integers(200, 2000)),
                n_dirs=int(rng.integers(1, 40)),
                concurrency=8, parallelism=4,
            )
        )
    return backlog


def replay(requests, start_times, seed=99):
    fabric = build_production_fleet()
    service = TransferService(fabric, seed=seed)
    for req, t in zip(requests, start_times):
        service.submit(replace(req, submit_time=t))
    log = service.run()
    return float(log.column("te").max()), log


def main() -> None:
    models = train_models()

    backlog = build_backlog()
    total_tb = sum(r.total_bytes for r in backlog) / 1e12
    print(f"\ncampaign backlog: {len(backlog)} datasets, {total_tb:.1f} TB, "
          "all requested with C=8 P=4")

    # Step 1: can the models advise on tunables?  The history's C and P
    # never varied (the paper eliminates them for low variance), so the
    # advisor should report low confidence — and we keep user tunables.
    advisor = SweepAdvisor(models[CAMPAIGN_EDGES[0]], ActiveSet())
    rec = advisor.recommend(backlog[0])
    print(
        f"\ntunable advice on {CAMPAIGN_EDGES[0][0]}->{CAMPAIGN_EDGES[0][1]}: "
        f"best C={rec.concurrency} P={rec.parallelism}, "
        f"spread over grid {rec.gain_over_worst:.2f}x, "
        f"confident={rec.confident}"
    )
    if not rec.confident:
        print("  history has no tunable variation (C/P were eliminated as "
              "features) -> keeping user-requested tunables")

    # Step 2: admission plan with an endpoint cap.
    planner = AdmissionPlanner(models, max_active_per_endpoint=3)
    plan = planner.plan(backlog)
    by_start = sorted(plan, key=lambda p: p.start_at)
    print(f"\nadmission plan ({len(plan)} transfers; first and last three):")
    for p in by_start[:3] + by_start[-3:]:
        print(
            f"  t={p.start_at:7.0f}s {p.request.src}->{p.request.dst} "
            f"{p.request.total_bytes / 1e9:5.0f} GB "
            f"(predicted {to_mbyte_per_s(p.predicted_rate):.0f} MB/s)"
        )

    # Step 3: replay both strategies through the simulator.
    naive_makespan, naive_log = replay(backlog, [0.0] * len(backlog))
    planned_makespan, planned_log = replay(
        [p.request for p in plan], [p.start_at for p in plan]
    )
    print(f"\nmakespan, submit-all-at-once : {naive_makespan / 3600:.2f} h "
          f"(median rate {np.median(naive_log.rates) / 1e6:.0f} MB/s)")
    print(f"makespan, planned admissions : {planned_makespan / 3600:.2f} h "
          f"(median rate {np.median(planned_log.rates) / 1e6:.0f} MB/s)")
    if planned_makespan < naive_makespan:
        print(
            f"planned schedule finishes {naive_makespan / planned_makespan:.2f}x "
            "sooner: capping concurrent transfers avoids process "
            "oversubscription and storage thrash at the shared source"
        )
    else:
        print("naive submission wins here: contention stayed in the "
              "fair-sharing regime where staggering cannot help")


if __name__ == "__main__":
    main()
