"""Simulate one production log and write it as CSV (input generation).

Run as a child process by :func:`pbench.inputs.production_log` so the
simulator's memory never counts toward the workload's peak RSS::

    python3 perfbench/pbench/gen_log.py --seed 7 --days 1.5 --out log.csv
"""

from __future__ import annotations

import argparse
import os
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--days", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from repro.logs.io import write_csv
    from repro.sim.fleet import build_production_fleet, production_background_loads
    from repro.sim.service import TransferService
    from repro.sim.units import DAY
    from repro.workload.datasets import production_workload

    # The same recipe as ``repro-tools simulate``.
    fabric = build_production_fleet()
    duration = args.days * DAY
    requests = production_workload(fabric, duration_s=duration, seed=args.seed)
    service = TransferService(
        fabric, seed=args.seed + 1, stop_background_after=duration * 1.25)
    for load in production_background_loads(fabric):
        service.add_onoff_load(load)
    for req in requests:
        service.submit(req)
    log = service.run()
    tmp = f"{args.out}.tmp{os.getpid()}"
    write_csv(log, tmp)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
