"""Measuring process of the benchmark; ``run.py`` starts it in a fresh interpreter.

    python3 perfbench/child.py --workload W --seed N --seconds T --trace 0|1 --role setup|measure

Both roles import ``gaussbench.cli``, build the workload's inputs, run the
first op as an untimed warm-up and then print ``ready``; the parent times
the interval from process start to that line.  ``setup`` exits there.
``measure`` then runs ops in a closed loop with one client (the next op
starts when the previous one returns) for T seconds and prints one JSON
result line.  With ``--trace 1`` it runs T/2 seconds untraced, then
installs the tracer and runs T/2 seconds traced.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from reference import NOMINAL_S, reference_seconds
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _import_gaussbench():
    import gaussbench.cli

    # Refuse to measure some other installed copy of the package.
    if ROOT / "src" not in Path(gaussbench.cli.__file__).resolve().parents:
        raise SystemExit(f"gaussbench was imported from {gaussbench.cli.__file__}, not {ROOT / 'src'}")
    return gaussbench.cli


class Phase:
    """Latency, point and failure tallies of one timed stretch of ops."""

    def __init__(self):
        self.latencies_ms: list[float] = []
        self.wall_latencies_ms: list[float] = []
        self.reference_ms: list[float] = []
        self.op_seconds = 0.0
        self.wall_op_seconds = 0.0
        self.points_ok = 0
        self.points_attempted = 0
        self.attempted: dict[str, int] = {}
        self.failures: dict[str, dict[str, int]] = {}

    def record(self, op: workloads.Op, wall: float, reference: float, reason: str | None) -> None:
        seconds = wall * NOMINAL_S / reference
        self.latencies_ms.append(seconds * 1e3)
        self.wall_latencies_ms.append(wall * 1e3)
        self.reference_ms.append(reference * 1e3)
        self.op_seconds += seconds
        self.wall_op_seconds += wall
        self.points_attempted += op.points
        self.attempted[op.config] = self.attempted.get(op.config, 0) + 1
        if reason is None:
            self.points_ok += op.points
            return
        by_reason = self.failures.setdefault(op.config, {})
        by_reason[reason] = by_reason.get(reason, 0) + 1

    def summary(self) -> dict:
        lat = self.latencies_ms
        return {
            "wall_op_ms_p50": statistics.median(self.wall_latencies_ms),
            "reference_ms_p50": statistics.median(self.reference_ms),
            "ops": len(lat),
            "failed": sum(sum(r.values()) for r in self.failures.values()),
            "points_ok": self.points_ok,
            "points_attempted": self.points_attempted,
            "op_seconds": self.op_seconds,
            "points_per_s": self.points_ok / self.op_seconds,
            "op_ms_p50": statistics.median(lat),
            "op_ms_p90": statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0],
            "attempted_by_config": self.attempted,
            "failures_by_config": self.failures,
        }


def execute(main, op: workloads.Op) -> tuple[float, str | None]:
    """Run one op; returns its latency (the CLI calls only) and failure reason."""
    for path in op.outputs:
        path.unlink(missing_ok=True)
    start = time.perf_counter()
    reason = workloads.run_op(main, op)
    elapsed = time.perf_counter() - start
    if reason is None:
        reason = op.check()
    return elapsed, reason


def run_phase(cli, ops, seconds: float, tracer: Tracer | None = None) -> Phase:
    phase = Phase()
    deadline = time.perf_counter() + seconds
    before = reference_seconds()
    while True:  # at least one op, however short the phase
        op = next(ops)
        if tracer is not None:
            tracer.op_id += 1
        # Look main up on each op, so a traced run goes through the wrapper.
        elapsed, reason = execute(cli.main, op)
        after = reference_seconds()
        # The reference timings on either side of the op bracket its speed.
        phase.record(op, elapsed, (before + after) / 2, reason)
        before = after
        if time.perf_counter() >= deadline:
            return phase


def per_layer(tracer: Tracer, phase: Phase) -> dict[str, float]:
    """Calls and self time per attempted point; self time normalized like op time."""
    points = max(phase.points_attempted, 1)
    speed = phase.op_seconds / phase.wall_op_seconds
    out = {}
    for group, (calls, self_ns) in tracer.totals().items():
        out[f"{group}.calls_per_point"] = calls / points
        out[f"{group}.self_us_per_point"] = self_ns / 1e3 * speed / points
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--role", required=True, choices=("setup", "measure"))
    parser.add_argument("--workdir", required=True, type=Path)
    args = parser.parse_args(argv)

    cli = _import_gaussbench()
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, args.workdir).ops()
        warm_up = next(ops)
        execute(cli.main, warm_up)
        print("ready", flush=True)
        if args.role == "setup":
            return 0

        import numpy

        result = {"numpy": numpy.__version__}
        if not args.trace:
            result["untraced"] = run_phase(cli, ops, args.seconds).summary()
        else:
            result["untraced"] = run_phase(cli, ops, args.seconds / 2).summary()
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(cli, ops, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            result["traced"] = traced.summary()
            result["per_layer"] = per_layer(tracer, traced)
            result["absent"] = tracer.absent
            trace_path = OUT_DIR / f"trace-{args.workload}.jsonl"
            tracer.write_jsonl(trace_path)
            result["trace_file"] = str(trace_path.relative_to(ROOT))
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
