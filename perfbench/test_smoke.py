"""Smoke test of the benchmark itself; takes about half a minute.

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload for a second through ``run.py`` and checks that each
metric BENCHMARK.json names comes out with its unit; runs tiny ops of each
workload in-process; and checks that the output checks catch wrong values.
"""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import census  # noqa: E402
import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gaussbench import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_reports_every_named_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    for workload in SPEC["workloads"]:
        for metric in SPEC[section]:
            got = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert math.isfinite(got["value"])


def _tiny(name, tmp_path):
    sizes = {"sweep_r": {"steps": 4}, "sweep_eta_shots": {"steps": 2, "shots": 20_000},
             "reports_mixed": {"population": 6}}
    return workloads.WORKLOADS[name](7, tmp_path, **sizes[name])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_ops_pass_their_checks(name, tmp_path):
    ops = _tiny(name, tmp_path).ops()
    for _ in range(10):
        op = next(ops)
        _, reason = child.execute(cli.main, op)
        assert reason is None, (op.config, reason)


def test_census_tallies_every_defect_config(tmp_path):
    reports = workloads.ReportsMixed(7, tmp_path, population=5, configs=workloads.DEFECT_CONFIGS)
    got = census.tally(cli.main, reports.ops(), 6)
    assert {c: e["attempted"] for c, e in got.items()} == {
        label: 2 for label, _, _ in workloads.DEFECT_CONFIGS}
    sweep = workloads.SweepEtaShots(7, tmp_path, steps=2, shots=2000, generator="random")
    got = census.tally(cli.main, sweep.ops(), 2)
    assert got["homodyne-2000-random"]["attempted"] == 2


def _rewrite_csv(path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_sweep_check_catches_wrong_values(tmp_path):
    op = next(_tiny("sweep_r", tmp_path).ops())
    assert child.execute(cli.main, op)[1] is None
    path = op.outputs[0]
    col = None

    def off_by_1e8(rows):
        nonlocal col
        col = rows[0].index("J3_scheme")
        rows[2][col] = repr(float(rows[2][col]) * (1 + 1e-8))

    _rewrite_csv(path, off_by_1e8)
    assert op.check() == "oracle_mismatch"
    _rewrite_csv(path, lambda rows: rows[1].__setitem__(col, "nan"))
    assert op.check() == "nonfinite"
    _rewrite_csv(path, lambda rows: rows.pop())
    assert op.check() == "row_count"


def test_report_check_catches_wrong_values(tmp_path):
    op = next(_tiny("reports_mixed", tmp_path).ops())
    assert op.config == "ideal"
    assert child.execute(cli.main, op)[1] is None
    path = op.outputs[0]
    report = json.loads(path.read_text(encoding="utf-8"))
    report["scheme2"]["invariants"]["j4"] *= 1 + 1e-8
    path.write_text(json.dumps(report), encoding="utf-8")
    assert op.check() == "oracle_mismatch"
    report["scheme1"]["observations"][0]["purity"] = float("nan")
    path.write_text(json.dumps(report), encoding="utf-8")
    assert op.check() == "nonfinite"


def test_tracer_reports_a_missing_function_as_absent(monkeypatch, tmp_path):
    groups = dict(tracing.GROUPS, **{"states.gone": [("states", "no_such_function")]})
    monkeypatch.setattr(tracing, "GROUPS", groups)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["validate", "--generator", "tmsv", "--out", str(tmp_path / "v.json")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == ["states.no_such_function"]
    totals = tracer.totals()
    assert totals["states.gone"] == (0, 0)
    assert totals["cli.main"][0] == 1 and totals["states.validate_physical"][0] == 1
    main_span = tracer.spans[0]
    child_ns = sum(end - start for _, start, end, parent, _ in tracer.spans if parent == 0)
    assert tracer.self_times_ns()[0] == main_span[2] - main_span[1] - child_ns
    assert not hasattr(cli.main, "__wrapped__")  # the original is back
