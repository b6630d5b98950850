"""Extension experiment: learning the tunables (C, P) end to end.

The production log cannot teach a model about concurrency and parallelism
— Globus users leave defaults, variance is ~0, and the features get
eliminated (Figures 9/12).  §8 nevertheless claims "aggregate performance
can be improved by ... reducing concurrency and parallelism".  This
experiment closes that loop on a controlled edge:

1. run a calibration campaign that *sweeps* (C, P) across transfers, under
   realistic competing load (the kind of data HARP [4] gathers by probing);
2. train the nonlinear model with C/P surviving feature elimination;
3. hand the model to :class:`repro.serve.SweepAdvisor` and check
   its recommendation against ground truth (the empirically best grid
   cell), including the confidence flag that stays False on
   production-style constant-tunable data.
"""

from __future__ import annotations

import numpy as np

from repro.core.features import build_feature_matrix
from repro.core.pipeline import GBTSettings, fit_edge_model
from repro.harness.result import ExperimentResult
from repro.serve import ActiveSet, SweepAdvisor
from repro.sim.gridftp import TransferRequest
from repro.sim.service import TransferService
from repro.sim.testbed import build_esnet_testbed
from repro.sim.units import GB, to_mbyte_per_s

__all__ = ["run", "run_calibration_campaign"]

EDGE = ("ANL-DTN", "CERN-DTN")  # long-RTT edge: parallelism genuinely pays
GRID = ((1, 1), (1, 4), (2, 4), (4, 4), (4, 8), (8, 8), (16, 8))


def run_calibration_campaign(
    n_per_cell: int = 40,
    seed: int = 0,
):
    """Sweep the (C, P) grid on a long-RTT edge with background churn."""
    rng = np.random.default_rng(seed)
    fabric = build_esnet_testbed()
    service = TransferService(fabric, seed=seed)
    src, dst = EDGE
    t = 0.0
    cells = []
    for rep in range(n_per_cell):
        for c, p in GRID:
            t += float(rng.uniform(120, 240))
            service.submit(
                TransferRequest(
                    src=src, dst=dst,
                    total_bytes=float(rng.uniform(20, 60)) * GB,
                    n_files=int(rng.integers(32, 256)),
                    n_dirs=int(rng.integers(1, 8)),
                    concurrency=c, parallelism=p,
                    submit_time=t, tag=f"cal:{c}x{p}",
                )
            )
            cells.append((c, p))
            # Occasional competing transfer so load features vary too.
            if rng.uniform() < 0.3:
                service.submit(
                    TransferRequest(
                        src=src, dst=str(rng.choice(["BNL-DTN", "LBL-DTN"])),
                        total_bytes=float(rng.uniform(20, 80)) * GB,
                        n_files=64, concurrency=4, parallelism=4,
                        submit_time=t + float(rng.uniform(-60, 60)) if t > 60 else t,
                        tag="competing",
                    )
                )
    return service.run()


def run(n_per_cell: int = 40, seed: int = 0) -> ExperimentResult:
    log = run_calibration_campaign(n_per_cell=n_per_cell, seed=seed)
    src, dst = EDGE

    # Ground truth: mean achieved rate per grid cell (calibration rows only).
    tags = log.column("tag")
    rates = log.rates
    rows = []
    truth = {}
    for c, p in GRID:
        mask = tags == f"cal:{c}x{p}"
        if not mask.any():
            continue
        truth[(c, p)] = float(rates[mask].mean())
        rows.append([c, p, int(mask.sum()), to_mbyte_per_s(truth[(c, p)])])
    best_true = max(truth, key=truth.get)

    # Train on everything (threshold off: the sweep intentionally includes
    # slow cells, which ARE the signal here).
    features = build_feature_matrix(log)
    result = fit_edge_model(
        features, src, dst, model="gbt", threshold=0.0, seed=seed,
        gbt=GBTSettings(),
    )
    c_kept = result.kept[result.feature_names.index("C")]
    p_kept = result.kept[result.feature_names.index("P")]

    advisor = SweepAdvisor(result, ActiveSet(), grid=GRID)
    rec = advisor.recommend(
        TransferRequest(
            src=src, dst=dst, total_bytes=40 * GB, n_files=128, n_dirs=4
        )
    )
    # A good recommendation's *true* rate is close to the true best cell's.
    regret = 1.0 - truth[(rec.concurrency, rec.parallelism)] / truth[best_true]

    rows.sort(key=lambda r: -r[3])
    return ExperimentResult(
        experiment_id="tunables",
        title=f"Learning (C, P) from a calibration sweep, {src} -> {dst}",
        headers=["C", "P", "n", "mean achieved MB/s"],
        rows=rows,
        metrics={
            "model_mdape": result.mdape,
            "c_survived_elimination": float(c_kept),
            "p_survived_elimination": float(p_kept),
            "advisor_confident": float(rec.confident),
            "recommendation_regret": regret,
            "best_true_c": float(best_true[0]),
            "best_true_p": float(best_true[1]),
            "recommended_c": float(rec.concurrency),
            "recommended_p": float(rec.parallelism),
        },
        notes=[
            "Extension beyond the paper: with deliberate tunable variation "
            "in the training data, C and P survive elimination, the "
            "advisor's confidence flag turns on, and its recommendation's "
            "ground-truth regret is small — §8's 'reduce concurrency and "
            "parallelism' lever, operated by the paper's own models.",
        ],
    )
