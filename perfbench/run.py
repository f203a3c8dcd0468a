"""gaussbench benchmark: end-to-end and per-layer metrics of three CLI workloads.

    python3 perfbench/run.py --workload sweep_r --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
Each run starts the measuring process (``child.py``) in a fresh interpreter
with BLAS pinned to one thread, and prints human-readable lines followed by
one JSON result line.  With ``--trace 0`` the result carries the end-to-end
metrics, measured untraced; with ``--trace 1`` it carries the per-layer
metrics of a traced stretch and the tracing overhead.  Times are rescaled
by a reference loop timed around each op (``reference.py``), because the
host's speed drifts.  ``--workload all`` runs every workload in turn.
Details land in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from reference import NOMINAL_S, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("sweep_r", "sweep_eta_shots", "reports_mixed")

#: Fresh interpreters timed per run for setup_s.
SETUP_PROBES = 7
#: Pinned in every child: nproc is 2 and the 4x4 linear algebra gains nothing
#: from BLAS threads.
BLAS_PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: A child that takes longer than this beyond its measuring time is killed.
CHILD_GRACE_S = 60.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """A child process failed; the run has no result."""


def _child_env() -> dict:
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _start_child(workload, seed, seconds, trace, role) -> tuple[float, str]:
    """Run one child; returns (seconds from start to its ``ready`` line, rest of stdout)."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--role", role,
        "--workdir", str(OUT_DIR / f"work-{workload}-{os.getpid()}"),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(seconds + CHILD_GRACE_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchmarkError(f"{role} child of {workload} failed with exit code {proc.returncode}")
    return ready, rest


def _setup_probe(workload, seed) -> tuple[float, float]:
    """Start-to-ready time of one fresh interpreter: (normalized, wall) seconds."""
    before = reference_seconds(5)
    wall, _ = _start_child(workload, seed, 0, 0, "setup")
    after = reference_seconds(5)
    return wall * NOMINAL_S * 2 / (before + after), wall


def _metadata(numpy_version: str) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_head": _git_head(),
        "blas_pin": BLAS_PIN,
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
        ),
    }


def _git_head() -> str | None:
    """HEAD from .git without running git (a checkout may not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text(encoding="utf-8").strip()
        return head
    except OSError:
        return None


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload; returns the result line's fields plus details."""
    OUT_DIR.mkdir(exist_ok=True)
    setups = []
    if not trace:
        # Untimed first probe fills the bytecode and page caches.
        _start_child(workload, seed, 0, trace, "setup")
        setups = [_setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
    _, rest = _start_child(workload, seed, seconds, trace, "measure")
    child = json.loads(rest.strip().splitlines()[-1])
    untraced = child["untraced"]
    if trace:
        traced = child["traced"]
        metrics = {name: {"value": v, "unit": "us" if name.endswith("_us_per_point") else "count"}
                   for name, v in child["per_layer"].items()}
        metrics["trace.overhead_share"] = {
            "value": 1.0 - traced["points_per_s"] / untraced["points_per_s"], "unit": "share"}
        counted = traced
        correct = untraced["failed"] == 0 and traced["failed"] == 0
    else:
        values = {
            "setup_s": statistics.median(norm for norm, _ in setups),
            "points_per_s": untraced["points_per_s"],
            "op_ms_p50": untraced["op_ms_p50"],
            "op_ms_p90": untraced["op_ms_p90"],
            "peak_rss_mb": child["peak_rss_mb"],
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
        counted = untraced
        correct = untraced["failed"] == 0
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": correct,
        "attempted": counted["ops"],
        "failed": counted["failed"],
        "metrics": metrics,
        "setup_samples_s": [norm for norm, _ in setups],
        "setup_wall_samples_s": [wall for _, wall in setups],
        "untraced": untraced,
        "traced": child.get("traced"),
        "absent": child.get("absent", []),
        "trace_file": child.get("trace_file"),
        "meta": _metadata(child["numpy"]),
    }


def _print_report(res: dict) -> None:
    w = res["workload"]
    phase = res["traced"] if res["trace"] else res["untraced"]
    print(f"# {w}: seed={res['seed']} seconds={res['seconds']} trace={res['trace']} "
          f"ops={phase['ops']} points={phase['points_attempted']}")
    for name, m in res["metrics"].items():
        print(f"{w} {name} {m['value']:.6g} {m['unit']}")
    print(f"{w} failed_op_share {phase['failed'] / max(phase['ops'], 1):.6g} share "
          f"({phase['failed']}/{phase['ops']} ops; op_ms percentiles over n={phase['ops']})")
    for config, n in sorted(phase["attempted_by_config"].items()):
        for reason, k in sorted(phase["failures_by_config"].get(config, {}).items()):
            print(f"{w}   failures config={config} {k}/{n}: {reason}")
    if res["trace"]:
        op_us = phase["op_seconds"] * 1e6 / max(phase["points_attempted"], 1)  # normalized
        for name, m in res["metrics"].items():
            if name.endswith(".self_us_per_point"):
                print(f"{w}   self share of op time {name[:-len('.self_us_per_point')]}: "
                      f"{m['value'] / op_us:.3f}")
        if res["absent"]:
            print(f"{w}   absent (not traced): {', '.join(res['absent'])}")
        print(f"{w}   spans written to {res['trace_file']}")
    print(f"# meta {json.dumps(res['meta'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            res = measure(name, args.seed, args.seconds, args.trace)
            _print_report(res)
            results.append(res)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    with open(OUT_DIR / f"BENCH_{args.workload}_trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
