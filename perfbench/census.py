"""Census of known defects: failure tallies of the configs the timed workloads leave out.

    python3 perfbench/census.py --seed 1 --ops 195 --sweep-ops 500 --sweep-shots 10000

The timed workloads (``run.py``) use only configs on which no op fails, so
that a run's failure count does not depend on how many ops it gets through.
This script runs a fixed number of ops of each config that does fail at the
commit that defined the benchmark: the ``DEFECT_CONFIGS`` of
``reports_mixed`` on its seeded state population, and ``sweep_eta_shots`` on
``random_state`` states (at 1e4 shots by default, where the vacuum-floor
failure that is rare at the workload's 1e5 shots shows in a few hundred
ops).  It prints failed/attempted per config and reason
class and writes them to ``.perfbench_out/census.json``.  Nothing is timed.
The finite-shot counts depend on the seeded random stream.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def tally(cli_main, ops, count: int) -> dict[str, dict]:
    """Run ``count`` ops and their checks; attempted and failures per config."""
    from child import execute

    out: dict[str, dict] = {}
    for _ in range(count):
        op = next(ops)
        _, reason = execute(cli_main, op)
        entry = out.setdefault(op.config, {"attempted": 0, "failures": {}})
        entry["attempted"] += 1
        if reason is not None:
            entry["failures"][reason] = entry["failures"].get(reason, 0) + 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=3 * workloads.POPULATION,
                        help="reports_mixed ops, cycled over the defect configs")
    parser.add_argument("--sweep-ops", type=int, default=500,
                        help="sweep_eta_shots ops on random_state states")
    parser.add_argument("--sweep-shots", type=int, default=10_000,
                        help="shots per setting of those sweep ops")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from gaussbench import cli

    workdir = OUT_DIR / "census-work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        reports = workloads.ReportsMixed(args.seed, workdir, configs=workloads.DEFECT_CONFIGS)
        sweep = workloads.SweepEtaShots(args.seed, workdir, shots=args.sweep_shots, generator="random")
        result = {
            "seed": args.seed,
            "reports_mixed": tally(cli.main, reports.ops(), args.ops),
            "sweep_eta_shots": tally(cli.main, sweep.ops(), args.sweep_ops),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for workload in ("reports_mixed", "sweep_eta_shots"):
        for config, entry in result[workload].items():
            failed = sum(entry["failures"].values())
            print(f"{workload} config={config} failed {failed}/{entry['attempted']}")
            for reason, k in sorted(entry["failures"].items()):
                print(f"{workload}   {k}: {reason}")
    with open(OUT_DIR / "census.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
