"""Command-line interface: reports, determinism, exit codes, formats."""

import argparse
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from csv_oracle import csv_rows, render_csv, table_rows
from gaussbench import (
    ModeCovariance,
    QuadCovariance,
    cli,
    load_state,
    random_state,
    save_state,
    tmsv_state,
)
from gaussbench.cli import _CSV_COLUMNS, MAX_SWEEP_STEPS, build_parser, main
from gaussbench.stateio import render_json
from precise_oracle import BUDGETS, precise_oracle, spectrum_errors

GOLDEN_CSV_HEADER = (
    "param,J1_oracle,J2_oracle,J3_oracle,J4_oracle,"
    "J1_scheme,J2_scheme,J3_scheme,J4_scheme,"
    "E_f,E_f_bound,E_N,simon_margin,nu_minus"
)


def run_cli(*argv):
    return main(list(argv))


def test_golden_csv_header_is_frozen():
    assert ",".join(_CSV_COLUMNS) == GOLDEN_CSV_HEADER


def test_run_tmsv_both_schemes(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        "run", "--generator", "tmsv", "--r", "0.5",
        "--scheme", "both", "--detector", "ideal", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["detector"] == {"kind": "ideal", "eta": 1.0, "shots": None}
    assert report["physicality"]["physical"] is True
    # end-to-end oracle check: scheme-2 EoF equals the oracle EoF
    eof_oracle = report["oracle"]["entanglement"]["eof"]
    eof_scheme = report["scheme2"]["entanglement"]["eof"]
    assert eof_scheme == pytest.approx(eof_oracle, abs=1e-9)
    assert report["scheme1"]["special_form"] == "antidiagonal"
    # A section is its transcript and what the transcript determines.
    common = ["deltas", "entanglement", "invariants", "observations", "stderr"]
    assert sorted(report["scheme1"]) == sorted([*common, "special_form"])
    assert sorted(report["scheme2"]) == sorted([*common, "cross_block"])


#: A fresh interpreter runs ``main`` on each argument list of its JSON
#: argument in turn and prints, after each, the exit code and whether
#: ``numpy.random`` is imported.  ``import numpy`` alone does not import it
#: (numpy loads it on first use), which the script checks first.
_IMPORT_PROBE = """
import json, sys
import numpy
assert "numpy.random" not in sys.modules, "import numpy loads numpy.random"
from gaussbench.cli import main
for argv in json.loads(sys.argv[1]):
    print(main(argv), "numpy.random" in sys.modules)
"""


def _import_probe(argvs, cwd):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [line.split() for line in proc.stdout.splitlines()]


def test_only_a_run_that_draws_imports_numpy_random(tmp_path):
    # An exact run reads no seed, so it builds no SeedSequence and never pays
    # for importing numpy.random; the random generator and finite shots do.
    save_state(random_state(5), tmp_path / "state.json")
    exact = [
        ["run", "--generator", "tmsv"],
        ["sweep", "--param", "r", "--start", "0", "--stop", "1", "--steps", "5"],
        ["validate", "--generator", "tmsv"],
        ["run", "--state", "state.json"],
        ["run", "--state", "state.json", "--detector", "lossy-homodyne", "--eta", "0.8"],
    ]
    drawing = [
        ["run", "--generator", "random"],
        ["run", "--generator", "tmsv", "--detector", "lossy-photocount", "--eta", "0.9",
         "--shots", "5000"],
    ]
    # The calls of one interpreter share its modules: the exact ones go first.
    got = _import_probe([argv + ["--out", "out.txt"] for argv in exact + drawing[:1]], tmp_path)
    assert got == [["0", "False"]] * len(exact) + [["0", "True"]]
    assert _import_probe([drawing[1] + ["--out", "out.txt"]], tmp_path) == [["0", "True"]]


def test_run_vacuum_scheme1(capsys):
    code = run_cli("run", "--generator", "vacuum", "--scheme", "scheme1")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    inv = report["scheme1"]["invariants"]
    assert inv["j1"] == pytest.approx(0.25, abs=1e-12)
    assert inv["j2"] == pytest.approx(0.25, abs=1e-12)
    assert inv["j3"] == pytest.approx(0.0, abs=1e-12)
    assert report["scheme1"]["entanglement"]["separable"] is True
    assert report["scheme2"] is None


def test_identical_seeds_byte_identical_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = run_cli("run", "--generator", "random", "--seed", "42", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_different_seeds_differ(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("run", "--generator", "random", "--seed", "1", "--out", str(a))
    run_cli("run", "--generator", "random", "--seed", "2", "--out", str(b))
    assert a.read_bytes() != b.read_bytes()


def test_report_is_replayable(tmp_path):
    out = tmp_path / "report.json"
    run_cli("run", "--generator", "random", "--seed", "7", "--out", str(out))
    assert run_cli("replay", "--report", str(out)) == 0


def _noisy_tmsv_report(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        "run", "--generator", "tmsv", "--r", "0.4", "--seed", "3",
        "--detector", "lossy-homodyne", "--eta", "0.9", "--shots", "5000",
        "--out", str(out),
    )
    assert code == 0
    return out, json.loads(out.read_text())


def test_noisy_report_is_replayable(tmp_path):
    out, _ = _noisy_tmsv_report(tmp_path)
    assert run_cli("replay", "--report", str(out)) == 0


REPORTS = Path(__file__).parent / "reports"
EXACT_ARGS = ["--generator", "tmsv", "--r", "0.5"]
FINITE_SHOT_ARGS = [
    "--generator", "random", "--seed", "7",
    "--detector", "lossy-homodyne", "--eta", "0.8", "--shots", "5000",
]

#: Reports written by ``run`` with these arguments in older formats.  Every
#: one holds I1..I4 beside J1..J4 in each ``invariants`` object and W(0)
#: beside each observation's purity, copies that left the format after
#: commit d8f3b11, where the last two were written.  The first two were
#: written at commit 6c44970 and also carry the per-reading ``transcript``
#: list of each scheme section, which left the format there.
OLD_REPORTS = {
    "exact.json": EXACT_ARGS,
    "finite-shot.json": FINITE_SHOT_ARGS,
    "exact-d8f3b11.json": EXACT_ARGS,
    "finite-shot-d8f3b11.json": FINITE_SHOT_ARGS,
}


def _without_old_keys(report):
    """An older report as today's ``run`` writes it: without the transcript
    list, I1..I4, W(0), ``status``, scheme 2's ``standard_form_residuals``
    and its null ``special_form``."""
    for name in ("oracle", "scheme1", "scheme2"):
        for key in ("i1", "i2", "i3", "i4"):
            report[name]["invariants"].pop(key, None)
    for name in ("scheme1", "scheme2"):
        for key in ("transcript", "status"):
            report[name].pop(key, None)
        for obs in report[name]["observations"]:
            obs.pop("wigner0", None)
    assert report["scheme2"].pop("special_form") is None
    report["scheme2"].pop("standard_form_residuals")
    return report


#: The older finite-shot reports hold noise drawn from one generator per
#: plan entry, a stream that left with the one-generator draw; today's run
#: writes ``FINITE_SHOT_REPORT`` instead.
OLD_STREAM = {"finite-shot.json", "finite-shot-d8f3b11.json"}
FINITE_SHOT_REPORT = "finite-shot-one-generator.json"


@pytest.mark.parametrize("name", OLD_REPORTS)
def test_reports_with_a_transcript_list_still_replay(name, capsys):
    path = REPORTS / name
    assert run_cli("replay", "--report", str(path)) == 0
    if name in OLD_STREAM:
        return
    # Today's run writes the same bytes, bar the keys that left the format.
    report = _without_old_keys(json.loads(path.read_text()))
    capsys.readouterr()
    assert run_cli("run", *OLD_REPORTS[name]) == 0
    assert capsys.readouterr().out == render_json(report)


@pytest.mark.parametrize(
    "name, key", [("scheme1", "bogus"), ("scheme2", "bogus"), ("scheme1", "standard_form_residuals")]
)
def test_replay_rejects_a_section_key_that_no_run_writes(name, key, tmp_path, capsys):
    # An older report's transcript list, scheme 2's residuals and its null
    # special form replay unchecked; any other key that run does not write,
    # in either section, is a mismatch.
    report = json.loads((REPORTS / "exact.json").read_text())
    report[name][key] = 1
    out = tmp_path / "report.json"
    out.write_text(json.dumps(report))
    assert run_cli("replay", "--report", str(out)) == 2
    assert capsys.readouterr().err == (
        f"gaussbench: error: replay of {name} does not reproduce its {key}: "
        f"{key} is absent from the transcript, 1 in the report\n"
    )


def test_replay_names_a_section_key_the_report_lacks(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli("run", *EXACT_ARGS, "--out", str(out)) == 0
    report = json.loads(out.read_text())
    del report["scheme2"]["cross_block"]
    out.write_text(json.dumps(report))
    assert run_cli("replay", "--report", str(out)) == 2
    assert capsys.readouterr().err.endswith(" from the transcript, absent in the report\n")


#: Relative budget of the finite-shot report's floats across CPUs: numpy's
#: SIMD dispatch moves 29 of them, by at most 1.7e-12 (scheme 2's J3 deltas).
#: A change of the seed stream moves them by about 1e-2.
FINITE_SHOT_RTOL = 1e-11

#: Floats that are settings, not results: compared exactly.
SETTING_KEYS = {"theta", "phi", "eta"}


def assert_same_report(got, want, path=""):
    """Keys, nulls, bools, ints, strings and settings equal; every other
    float within ``FINITE_SHOT_RTOL`` of its stored value."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            assert_same_report(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_report(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and path.rsplit(".", 1)[-1] not in SETTING_KEYS:
        assert abs(got - want) <= FINITE_SHOT_RTOL * abs(want), (path, got, want)
    else:
        assert got == want, path


def test_finite_shot_report_is_what_run_writes(tmp_path):
    path, out = REPORTS / FINITE_SHOT_REPORT, tmp_path / "report.json"
    assert run_cli("replay", "--report", str(path)) == 0
    assert run_cli("run", *FINITE_SHOT_ARGS, "--out", str(out)) == 0
    assert_same_report(json.loads(out.read_text()), _without_old_keys(json.loads(path.read_text())))
    assert run_cli("replay", "--report", str(out)) == 0


def _scale_copy(part, key, scale):
    """Scale a copy that an older report holds in its scheme 2 invariants
    (``part`` "invariants") or in scheme 1's third observation."""
    def edit(report):
        if part == "invariants":
            report["scheme2"]["invariants"][key] *= scale
        else:
            report["scheme1"]["observations"][2][key] *= scale
    return edit


def _drop_invariant(key):
    def edit(report):
        del report["scheme2"]["invariants"][key]
    return edit


def _flip_old_status(report):
    flipped = {"full": "lower-bound-only", "lower-bound-only": "full"}
    report["scheme1"]["status"] = flipped[report["scheme1"]["status"]]


@pytest.mark.parametrize("name", OLD_REPORTS)
@pytest.mark.parametrize(
    "edit, section, path",
    [
        (_scale_copy("invariants", "i1", 1.001), "scheme2", "invariants.i1"),
        (_scale_copy("invariants", "i4", 1.001), "scheme2", "invariants.i4"),
        (_drop_invariant("i2"), "scheme2", "invariants.i2"),
        # Without I1 replay renders no I's, and the other three are extra keys.
        (_drop_invariant("i1"), "scheme2", "invariants.i2"),
        (_scale_copy("observations", "wigner0", 1.001), "scheme1", "observations[2].wigner0"),
        (_flip_old_status, "scheme1", "status"),
    ],
    ids=["i1", "i4", "no-i2", "no-i1", "wigner0", "status"],
)
def test_replay_checks_the_copies_an_older_report_holds(
    name, edit, section, path, tmp_path, capsys
):
    # Replay renders I1..I4, W(0) and the status as the format that held
    # them did, so an edited or missing copy fails as it did then.
    report = json.loads((REPORTS / name).read_text())
    edit(report)
    out = tmp_path / name
    out.write_text(json.dumps(report))
    assert run_cli("replay", "--report", str(out)) == 2
    key = path.split(".")[0].split("[")[0]
    want = f"error: replay of {section} does not reproduce its {key}: {path} is "
    assert want in capsys.readouterr().err


def test_replay_mismatch_names_its_field_in_one_short_line(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli("run", *FINITE_SHOT_ARGS, "--out", str(out)) == 0
    report = json.loads(out.read_text())
    purity = report["scheme1"]["observations"][3]["purity"]
    report["scheme1"]["observations"][3]["purity"] = purity * 1.001
    out.write_text(json.dumps(report))
    assert run_cli("replay", "--report", str(out)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 300
    assert err == (
        "gaussbench: error: replay of scheme1 does not reproduce its observations: "
        f"observations[3].purity is {purity!r} from the transcript, "
        f"{purity * 1.001!r} in the report\n"
    )


def test_replay_detects_tampering(tmp_path, capsys):
    out = tmp_path / "report.json"
    run_cli("run", "--generator", "tmsv", "--r", "0.5", "--out", str(out))
    report = json.loads(out.read_text())
    report["scheme2"]["invariants"]["j3"] += 1e-6
    out.write_text(json.dumps(report))
    assert run_cli("replay", "--report", str(out)) == 2
    assert "replay" in capsys.readouterr().err


def _scale_stderr(report):
    report["scheme2"]["stderr"]["j1"] *= 100


def _set_log_negativity(report):
    report["scheme2"]["entanglement"]["log_negativity"] = 42


def _add_status(report):
    """Give scheme 1 the status that reports held until a null J4 was its only
    mark, and the wrong one: its J4 is a number."""
    assert "status" not in report["scheme1"]
    assert report["scheme1"]["invariants"]["j4"] is not None
    report["scheme1"]["status"] = "lower-bound-only"


def _move_oracle_j1(report):
    report["oracle"]["invariants"]["j1"] += 1e-3


def _set_ms_real(report):
    report["scheme2"]["cross_block"]["ms_real"] = 1


def _zero_delta(report):
    report["scheme2"]["deltas"]["j1_abs"] = 0


def _edit_observation(key, scale):
    """Scale one number of scheme 1's first observation, at full transmission."""
    def edit(report):
        report["scheme1"]["observations"][0][key] *= scale
    return edit


def _add_wigner0(scale):
    """Give scheme 1's first observation the W(0) = purity/pi that reports
    held until the purity became its only form, scaled by ``scale``."""
    def edit(report):
        obs = report["scheme1"]["observations"][0]
        obs["wigner0"] = obs["purity"] / math.pi * scale
    return edit


@pytest.mark.parametrize(
    "edit, name, key",
    [
        (_scale_stderr, "scheme2", "stderr"),
        (_set_log_negativity, "scheme2", "entanglement"),
        (_add_status, "scheme1", "status"),
        # Replay takes the oracle as given; its J values are checked
        # through each section's deltas.
        (_move_oracle_j1, "scheme1", "deltas"),
        (_set_ms_real, "scheme2", "cross_block"),
        (_zero_delta, "scheme2", "deltas"),
        # The observations are the transcript: a reading edited there moves
        # what the reconstruction gives, and an edited purity, or an older
        # report's W(0), no longer follows from its J.
        (_edit_observation("n_prime", 1.001), "scheme1", "invariants"),
        (_edit_observation("j_stderr", 2.0), "scheme1", "stderr"),
        (_edit_observation("purity", 1.001), "scheme1", "observations"),
        (_add_wigner0(1.001), "scheme1", "observations"),
    ],
    ids=[
        "stderr", "log-negativity", "status", "oracle-j1", "ms-real", "delta",
        "n-prime", "j-stderr", "purity", "wigner0",
    ],
)
def test_replay_names_the_first_field_the_transcript_does_not_reproduce(
    edit, name, key, tmp_path, capsys
):
    out, report = _noisy_tmsv_report(tmp_path)
    edit(report)
    out.write_text(json.dumps(report))
    assert run_cli("replay", "--report", str(out)) == 2
    assert f"error: replay of {name} does not reproduce its {key}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, field, value",
    [("entanglement", "separable", 0), ("deltas", "j1_abs", False)],
    ids=["separable-as-0", "zero-delta-as-false"],
)
def test_replay_tells_a_bool_from_a_number(key, field, value, tmp_path, capsys):
    # false == 0 in Python, so the two compare equal; in a report one is a
    # verdict and the other a number.
    out = tmp_path / "report.json"
    assert run_cli("run", "--generator", "tmsv", "--r", "0.4", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["scheme2"][key][field] == value
    report["scheme2"][key][field] = value
    out.write_text(json.dumps(report))
    assert run_cli("replay", "--report", str(out)) == 2
    assert f"error: replay of scheme2 does not reproduce its {key}:" in capsys.readouterr().err


def test_replay_ignores_a_consistency_section(tmp_path, capsys):
    # Reports once carried a cross-scheme "consistency" section; replay reads
    # only the scheme sections and the oracle invariants.
    out, report = _noisy_tmsv_report(tmp_path)
    s1, s2 = report["scheme1"]["invariants"], report["scheme2"]["invariants"]
    deltas = {f"delta_{key}": abs(s1[key] - s2[key]) for key in ("j1", "j2", "j3")}
    worst = max(deltas.values())
    report["consistency"] = {
        **deltas, "max_delta": worst, "tol": 1e-9, "within_tolerance": worst <= 1e-9,
    }
    out.write_text(json.dumps(report, indent=2, sort_keys=True))
    assert run_cli("replay", "--report", str(out)) == 0
    assert capsys.readouterr().out.startswith("replayed 2 transcript(s): ")


def test_scheme_subcommands_match_run(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("scheme2", "--generator", "tmsv", "--r", "0.3", "--out", str(a))
    run_cli("run", "--generator", "tmsv", "--r", "0.3", "--scheme", "scheme2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_oracle_subcommand_has_no_scheme_sections(capsys):
    code = run_cli("oracle", "--generator", "thermal", "--nu1", "1.2", "--nu2", "1.5")
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scheme1"] is None and report["scheme2"] is None
    assert report["oracle"]["invariants"]["j3"] == pytest.approx(0.0, abs=1e-12)


def test_state_file_round_trip(tmp_path):
    path = tmp_path / "state.json"
    save_state(tmsv_state(0.6), path)
    loaded = load_state(path)
    np.testing.assert_allclose(loaded.entries, tmsv_state(0.6).entries, atol=1e-15)
    code = run_cli("run", "--state", str(path), "--scheme", "scheme2", "--out", str(tmp_path / "r.json"))
    assert code == 0


def test_mode_format_state_file(tmp_path):
    path = tmp_path / "state.json"
    r = 0.5
    save_state(
        ModeCovariance(
            n1=math.cosh(2 * r) / 2,
            n2=math.cosh(2 * r) / 2,
            mc=-math.sinh(2 * r) / 2,
        ),
        path,
    )
    raw = json.loads(path.read_text())
    assert raw["format"] == "mode"
    assert raw["entries"]["mc"] == [-math.sinh(2 * r) / 2, 0.0]
    code = run_cli("validate", "--state", str(path), "--out", str(tmp_path / "v.json"))
    assert code == 0


def test_sweep_r_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--param", "r", "--start", "0", "--stop", "2", "--steps", "21", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == GOLDEN_CSV_HEADER
    assert len(lines) == 22
    # E_f column must match the closed form on every row
    for line in lines[1:]:
        cells = line.split(",")
        r = float(cells[0])
        ef = float(cells[9])
        ch2, sh2 = math.cosh(r) ** 2, math.sinh(r) ** 2
        want = ch2 * math.log2(ch2) - sh2 * math.log2(sh2) if sh2 > 0 else 0.0
        assert ef == pytest.approx(want, abs=1e-9)


def test_sweep_eta_corrected_invariants(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--param", "eta", "--start", "0.5", "--stop", "0.9", "--steps", "5",
        "--generator", "tmsv", "--r", "0.7", "--detector", "lossy-homodyne",
        "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 6
    for line in lines[1:]:
        cells = line.split(",")
        for oracle_cell, scheme_cell in zip(cells[1:5], cells[5:9]):
            delta = abs(float(oracle_cell) - float(scheme_cell))
            assert delta <= 1e-9 * max(1.0, abs(float(oracle_cell)))


def test_sweep_empty_grid_is_config_error(capsys):
    code = run_cli("sweep", "--param", "r", "--start", "0", "--stop", "1", "--steps", "0")
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_missing_state_source_is_config_error():
    assert run_cli("run") == 1


def test_two_state_sources_is_config_error(tmp_path):
    path = tmp_path / "s.json"
    save_state(tmsv_state(0.1), path)
    assert run_cli("run", "--state", str(path), "--generator", "vacuum") == 1


def test_undefined_purity_is_written_as_null(tmp_path):
    # At r = 1, eta = 0.8 and 1000 shots, shot noise carries some j' readings
    # of seed 5 below zero, where the purity is undefined.
    out = tmp_path / "report.json"
    code = run_cli(
        "run", "--generator", "tmsv", "--r", "1", "--detector", "lossy-homodyne",
        "--eta", "0.8", "--shots", "1000", "--seed", "5", "--out", str(out),
    )
    assert code == 0

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    report = json.loads(out.read_text(), parse_constant=reject)
    observations = report["scheme1"]["observations"] + report["scheme2"]["observations"]
    undefined = [obs for obs in observations if obs["j_prime"] <= 0.0]
    assert undefined
    assert all(obs["purity"] is None and "wigner0" not in obs for obs in undefined)
    assert run_cli("replay", "--report", str(out)) == 0


@pytest.mark.parametrize(
    "source, shots",
    [(["--generator", "random", "--seed", "7"], ["--shots", "5000"]), (None, [])],
    ids=["asymmetric-finite-shot", "symmetric-exact"],
)
def test_scheme1_without_j4_writes_nulls_and_replays(source, shots, tmp_path):
    # A generic state has no special form: scheme 1 reports J1..J3, and null
    # for J4 and every measure that needs it.  The symmetric EoF bound is a
    # number where the reconstructed J1 = J2, which exact readings of a
    # symmetric state give; it is null for the asymmetric random state.
    if source is None:
        path = tmp_path / "state.json"
        save_state(random_state(502, purity="mixed", symmetry="symmetric"), path)
        source = ["--state", str(path)]
    out = tmp_path / "report.json"
    argv = ["--detector", "lossy-homodyne", "--eta", "0.8", *shots, "--out", str(out)]
    assert run_cli("run", *source, *argv) == 0
    section = json.loads(out.read_text())["scheme1"]
    if shots:
        assert sorted(section["stderr"]) == ["j1", "j2", "j3"]
    else:
        assert section["stderr"] is None
    assert section["invariants"]["j4"] is None and "i4" not in section["invariants"]
    assert section["deltas"]["j4_abs"] is None and section["deltas"]["j4_rel"] is None
    ent = section["entanglement"]
    for key in ("eof", "log_negativity", "simon_lhs_minus_rhs", "separable"):
        assert ent[key] is None
    assert isinstance(ent["eof_lower_bound"], float) == (not shots)
    assert run_cli("replay", "--report", str(out)) == 0


def test_noisy_reading_outside_the_physical_region_is_reported(tmp_path, capsys):
    # Seed 286's noisy J reading at full transmission falls below zero: scheme 1
    # reports it as measured, an ordinary estimate (pull -0.68 against the
    # oracle's 1.95), and every measure it cannot support is null.
    out = tmp_path / "report.json"
    code = run_cli(
        "run", "--generator", "random", "--seed", "286", "--detector", "lossy-homodyne",
        "--eta", "0.8", "--shots", "1000", "--out", str(out),
    )
    assert code == 0
    assert capsys.readouterr().err == ""
    section = json.loads(out.read_text())["scheme1"]
    assert section["invariants"]["j1"] == pytest.approx(-1.649, abs=1e-3)
    assert section["stderr"]["j1"] == pytest.approx(5.284, abs=1e-3)
    assert section["invariants"]["j4"] is None and "j4" not in section["stderr"]
    assert set(section["entanglement"].values()) == {None}
    assert run_cli("replay", "--report", str(out)) == 0


def test_unreadable_state_file_is_config_error():
    assert run_cli("run", "--state", "/no/such/file.json") == 1


@pytest.mark.parametrize(
    "content",
    [
        '{"format": "quad", "entries": [1, 2, 3]}',
        '{"format": "mode", "entries": {"n1": 1e400, "n2": 1.0}}',
        '{"format": "mode", "entries": {"n1": 1.0, "n2": 1.0, "ms": [NaN, 0]}}',
        '{"format": "mode", "entries": {"n1": 1e308, "n2": 1.0}}',
        json.dumps({"format": "quad", "entries": [[1e308, 1e308, 0, 0], [-1e308, 1e308, 0, 0],
                                                  [0, 0, 1, 0], [0, 0, 0, 1]]}),
        '{"format": "mode", "entries": {"n1": 1e200, "n2": 1.0, "m1": [5e199, 0]}}',
        # A bool or a numeric string where a number belongs; Python converts
        # both, so each of these used to load as a physical state.
        '{"format": "mode", "entries": {"n1": true, "n2": true}}',
        '{"format": "mode", "entries": {"n1": "1.5", "n2": 1.5}}',
        '{"format": "mode", "entries": {"n1": 1.5, "n2": 1.5, "m1": true}}',
        '{"format": "mode", "entries": {"n1": 1.5, "n2": 1.5, "ms": [0.2, false]}}',
        '{"format": "mode", "entries": {"n1": 1.5, "n2": 1.5, "mc": ["0.2", 0]}}',
        json.dumps({"format": "quad",
                    "entries": [True] + ["1" if i % 5 == 0 else "0" for i in range(1, 16)]}),
        json.dumps({"format": "quad",
                    "entries": [[1, 0, 0, 0], [0, True, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}),
        json.dumps({"format": "quad",
                    "entries": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, "1", 0], [0, 0, 0, 1]]}),
        # A JSON integer too large for a double, where 1e400 is already a
        # config error: float() overflows on it while the file is read.
        json.dumps({"format": "mode", "entries": {"n1": 10**400, "n2": 1.0}}),
        json.dumps({"format": "quad", "entries": [10**400] + [1 if i % 5 == 0 else 0
                                                             for i in range(1, 16)]}),
        json.dumps({"format": "mode", "entries": {"n1": 1.5, "n2": 1.5, "ms": [0, 10**400]}}),
    ],
    ids=["quad-shape", "mode-overflow", "mode-nan", "mode-quad-overflow",
         "quad-asymmetry-overflow", "mode-floor-overflow", "mode-bool", "mode-string",
         "mode-bool-moment", "mode-bool-in-pair", "mode-string-in-pair", "quad-flat-strings",
         "quad-nested-bool", "quad-nested-string", "mode-huge-int", "quad-huge-int",
         "mode-huge-int-in-pair"],
)
@pytest.mark.parametrize("command", ["run", "validate"])
def test_malformed_state_file_is_config_error(command, content, tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text(content)
    assert run_cli(command, "--state", str(path)) == 1
    assert "gaussbench: config error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "state",
    [
        {"format": "quad", "entries": np.diag([1e300] * 4).ravel().tolist()},
        {"format": "quad", "entries": np.diag([1e100] * 4).ravel().tolist()},
        {"format": "mode", "entries": {"n1": 1e300, "n2": 1e300}},
    ],
    ids=["quad-1e300", "quad-1e100", "mode-1e300"],
)
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_state_too_large_for_its_invariants_is_a_physics_failure(command, state, tmp_path, capsys):
    # Physical (validate says so below), but I1..I4 overflow double precision.
    path = tmp_path / "big.json"
    path.write_text(json.dumps(state))
    argv = ["--state", str(path)]
    if command == "sweep":
        argv += ["--param", "eta", "--start", "0.5", "--stop", "1", "--steps", "2",
                 "--detector", "lossy-homodyne"]
    assert run_cli(command, *argv) == 2
    assert "error: the state overflows double precision" in capsys.readouterr().err
    assert run_cli("validate", "--state", str(path)) == 0
    assert json.loads(capsys.readouterr().out)["physical"] is True


@pytest.mark.parametrize("command", ["run", "oracle", "scheme1", "scheme2"])
def test_state_whose_mode_moments_overflow_is_a_physics_failure(command, tmp_path, capsys):
    # Physical (validate says so below), but n2^2 and |m2|^2 of its mode
    # form both overflow, and det V2 comes out inf - inf.
    path = tmp_path / "big.json"
    save_state(QuadCovariance(random_state(2).entries * 1e154), path)
    assert run_cli(command, "--state", str(path)) == 2
    assert "error: the state overflows double precision" in capsys.readouterr().err
    assert run_cli("validate", "--state", str(path)) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--generator", "tmsv", "--r", "1000"),
        ("sweep", "--param", "r", "--start", "0", "--stop", "1000", "--steps", "3"),
        ("run", "--generator", "tmst", "--r", "1", "--nu1", "1e308"),
        ("sweep", "--param", "r", "--start=-1e308", "--stop", "1e308", "--steps", "3"),
        ("sweep", "--param", "r", "--start", "-1e308", "--stop", "1e308", "--steps", "3"),
        ("sweep", "--param", "eta", "--start=-1e308", "--stop", "1e308", "--steps", "3",
         "--generator", "tmsv", "--detector", "lossy-homodyne"),
    ],
    ids=["tmsv-r-1000", "sweep-r-to-1000", "tmst-nu1-1e308", "r-span", "r-span-spaced",
         "eta-span"],
)
def test_input_overflow_is_config_error(argv, capsys):
    # A numpy overflow warning is a test failure here, so this also checks
    # that the overflow is caught rather than printed.
    assert run_cli(*argv) == 1
    assert "gaussbench: config error:" in capsys.readouterr().err


@pytest.mark.parametrize("start", ["-1e-3", "-1E-3", "-.001e0", "-1.e-3"])
def test_negative_bound_in_exponent_form_is_a_value(start, capsys):
    # Each spelling is read as the value of --start, as --start=-0.001 is.
    grid = ("--param", "r", "--stop", "1", "--steps", "3")
    assert run_cli("sweep", "--start=-0.001", *grid) == 0
    want = capsys.readouterr().out
    assert run_cli("sweep", "--start", start, *grid) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize(
    "source",
    [
        ("--state", {"format": "quad", "entries": np.diag([1e308] * 4).ravel().tolist()}),
        ("--generator", "thermal", "--nu1", "1e308", "--nu2", "1"),
    ],
    ids=["quad-1e308", "thermal-nu1-1e308"],
)
@pytest.mark.parametrize("command", ["run", "validate"])
def test_state_too_large_for_its_spectrum_is_a_physics_failure(command, source, tmp_path, capsys):
    # Finite entries whose symplectic spectrum overflows: no traceback, no
    # Infinity in the output.
    if source[0] == "--state":
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(source[1]))
        source = ("--state", str(path))
    assert run_cli(command, *source) == 2
    captured = capsys.readouterr()
    assert "error: the state overflows double precision" in captured.err
    assert "Infinity" not in captured.out + captured.err


def test_unphysical_state_is_a_physics_failure(tmp_path, capsys):
    path = tmp_path / "bad.json"
    squashed = [0.5, 0, 0, 0, 0, 0.5, 0, 0, 0, 0, 0.5, 0, 0, 0, 0, 0.5]
    path.write_text(json.dumps({"format": "quad", "entries": squashed}))
    code = run_cli("run", "--state", str(path))
    assert code == 2
    assert "nu_minus" in capsys.readouterr().err


def test_validate_reports_unphysical(tmp_path, capsys):
    path = tmp_path / "bad.json"
    squashed = [0.5, 0, 0, 0, 0, 0.5, 0, 0, 0, 0, 0.5, 0, 0, 0, 0, 0.5]
    path.write_text(json.dumps({"format": "quad", "entries": squashed}))
    code = run_cli("validate", "--state", str(path))
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["physical"] is False
    assert payload["nu_minus"] < 1.0


@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
def test_state_that_is_not_positive_definite_has_no_spectrum(command, tmp_path, capsys):
    path = tmp_path / "not-positive.json"
    entries = np.diag([1.0, 1.0, 1.0, -1.0]).ravel().tolist()
    path.write_text(json.dumps({"format": "quad", "entries": entries}))
    grid = ("--param", "eta", "--start", "0.5", "--stop", "1", "--steps", "3")
    args = (*grid, "--detector", "lossy-homodyne") if command == "sweep" else ()
    assert run_cli(command, "--state", str(path), *args) == 2
    captured = capsys.readouterr()
    if command == "validate":
        payload = json.loads(captured.out)
        assert payload["physical"] is False and payload["positive_definite"] is False
        assert payload["nu_minus"] is None and payload["nu_plus"] is None
    else:
        assert "state is unphysical: covariance matrix is not positive definite" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("r", ["4.4", "4.5"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_tmsv_at_large_squeezing_is_physical(command, r, capsys):
    # The rounded entries put nu_minus within 2e-9 of 1, on either side by
    # the CPU's cosh and sinh: the reported one is checked against the exact
    # nu_minus of those entries, within the oracle's TMSV budget.
    assert run_cli(command, "--generator", "tmsv", "--r", r) == 0
    payload = json.loads(capsys.readouterr().out)
    physicality = payload if command == "validate" else payload["physicality"]
    assert physicality["physical"] is True
    ref = precise_oracle(tmsv_state(float(r)).entries.tolist())
    errors = spectrum_errors(ref, physicality["nu_minus"], physicality["nu_plus"])
    assert all(errors[key] <= BUDGETS["tmsv"][key] for key in errors), errors


def test_bad_flag_value_exits_one(capsys):
    # argparse failures are config errors (exit 1), not crashes (exit 2)
    with pytest.raises(SystemExit) as info:
        run_cli("run", "--generator", "warp-drive")
    assert info.value.code == 1


def test_eta_with_ideal_detector_is_config_error():
    assert run_cli("run", "--generator", "vacuum", "--eta", "0.5") == 1


def test_config_file_supplies_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator": "tmsv", "r": 0.5, "seed": 9}))
    out1, out2 = tmp_path / "1.json", tmp_path / "2.json"
    assert run_cli("run", "--config", str(cfg), "--out", str(out1)) == 0
    # explicit --r must override the config file value
    assert run_cli("run", "--config", str(cfg), "--r", "0.2", "--out", str(out2)) == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    assert r1["state"]["params"]["r"] == 0.5
    assert r2["state"]["params"]["r"] == 0.2


@pytest.mark.parametrize("key", ["color", "command", "config"])
def test_unknown_config_key_is_config_error(key, tmp_path, capsys):
    # ``command`` and ``config`` name parsed arguments, but no option a file can set.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator": "vacuum", key: "red"}))
    assert run_cli("run", "--config", str(cfg)) == 1
    assert f"config error: unknown config key {key!r}" in capsys.readouterr().err


def test_cached_parser_keeps_no_config_values(tmp_path, capsys):
    # main() shares one parser per process; a --config merge must not leave
    # its values behind for the next call.
    argv = ["run", "--generator", "tmsv", "--r", "0.4", "--seed", "3"]
    assert run_cli(*argv) == 0
    exact = capsys.readouterr().out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"detector": "lossy-homodyne", "eta": 0.8, "shots": 2000}))
    assert run_cli(*argv, "--config", str(cfg)) == 0
    assert json.loads(capsys.readouterr().out)["detector"] == {
        "kind": "lossy-homodyne", "eta": 0.8, "shots": 2000,
    }
    assert run_cli(*argv) == 0
    again = capsys.readouterr().out
    assert again == exact
    assert json.loads(again)["detector"] == {"kind": "ideal", "eta": 1.0, "shots": None}


def test_cached_parser_survives_usage_and_config_errors(tmp_path, capsys):
    assert run_cli("run", "--generator", "vacuum") == 0
    want = capsys.readouterr().out
    with pytest.raises(SystemExit) as info:
        run_cli("run", "--generator", "warp-drive")
    assert info.value.code == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"detector": "warp-drive"}))
    assert run_cli("run", "--generator", "vacuum", "--config", str(cfg)) == 1
    capsys.readouterr()
    assert run_cli("run", "--generator", "vacuum") == 0
    assert capsys.readouterr().out == want


#: Command lines and their exit codes: help, abbreviations, ``--flag=value``,
#: and each kind of usage error.
COMMANDS = ("run", "oracle", "scheme1", "scheme2", "sweep", "validate", "replay")
PARSER_ROUTES = [
    (["-h"], 0),
    *[([command, "-h"], 0) for command in COMMANDS],
    (["run", "--gen", "tmsv", "--r", "0.3"], 0),
    (["run", "--generator=tmsv", "--r=0.3", "--format=csv"], 0),
    (["sweep", "--param", "r", "--start", "0", "--stop", "1", "--steps", "2", "--sch", "oracle"], 0),
    (["sweep", "--bogus", "1"], 1),
    (["run", "--generator", "vacuum", "extra"], 1),
    (["run", "--generator", "warp-drive"], 1),
    (["run", "--r"], 1),
    ([], 1),
    (["frobnicate"], 1),
]


@pytest.mark.parametrize(
    "argv, code", PARSER_ROUTES, ids=[" ".join(argv) or "no-arguments" for argv, _ in PARSER_ROUTES]
)
def test_main_parses_as_the_top_level_parser_does(argv, code, monkeypatch, capsys):
    # main reads a line of --flag value pairs from the command's option table;
    # exit code, stdout and stderr must be those of the one top-level pass.
    def outcome():
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        out = capsys.readouterr()
        return got, out.out, out.err

    direct = outcome()
    monkeypatch.setattr(cli, "_parse_args", lambda parser, argv: parser.parse_args(argv))
    assert outcome() == direct
    assert direct[0] == code and (direct[1] or direct[2])
    if argv[:2] == ["sweep", "--bogus"]:
        assert direct[2].startswith("usage: gaussbench [-h]")
        assert direct[2].endswith("gaussbench: error: unrecognized arguments: --bogus 1\n")


#: What ``_parse_outcome`` writes for a float NaN field: equal only to itself.
_NAN = object()


def _parse_outcome(parse, argv, capsys):
    """The fields of what ``parse(argv)`` returns, or the code it exits with,
    and what it printed.  A float NaN field is written as ``_NAN``, so that
    two parses of ``--r nan`` compare equal."""
    try:
        got = {
            key: _NAN if isinstance(value, float) and math.isnan(value) else value
            for key, value in vars(parse(argv)).items()
        }
    except SystemExit as exc:
        got = ("exit", exc.code)
    out = capsys.readouterr()
    return got, out.out, out.err


def _mutations(argv, rng) -> list[list[str]]:
    """Edits of a line of ``--flag value`` pairs: each kind of line that the
    option table takes (reordered, a flag repeated) or leaves to argparse."""
    command, pairs = argv[:1], [argv[i:i + 2] for i in range(1, len(argv), 2)]
    k = rng.randrange(len(pairs))
    flag, value = pairs[k]

    def edited(pair):
        return command + sum(pairs[:k] + [pair] + pairs[k + 1:], [])

    edits = [
        command + sum(rng.sample(pairs, len(pairs)), []),
        argv + [flag, rng.choice(pairs)[1]],
        edited([f"{flag}={value}"]),
        edited([flag, ""]),
        argv + [flag],
        argv + ["-h"],
        argv + ["--start", "-1e-3"],
        argv + ["--start", "-0.5"],
        argv + ["--steps", "2.5"],
        argv + ["--detector", "warp"],
    ]
    if len(flag) > 3:
        edits.append(edited([flag[:rng.randrange(3, len(flag))], value]))
    return edits


def _equivalence_argvs(source):
    from golden.population import Prepare, steps

    if source == "routes":
        return [argv for argv, _ in PARSER_ROUTES]
    population = [step for step in steps(REPORTS) if not isinstance(step, Prepare)]
    if source == "population":
        return population
    rng = random.Random(20261021)
    well_formed = [
        argv for argv in population
        if len(argv) > 1 and len(argv) % 2 and all(x.startswith("--") for x in argv[1::2])
    ]
    return [edit for argv in rng.sample(well_formed, 60) for edit in _mutations(argv, rng)]


@pytest.mark.parametrize("source", ["population", "routes", "mutations"])
def test_the_option_table_parses_as_argparse_does(source, capsys):
    # Every golden command line, the routes above and seeded edits of golden
    # lines: the same Namespace, or the same exit code, stdout and stderr.
    parser = cli._parser()
    argvs = _equivalence_argvs(source)
    assert len(argvs) >= len(PARSER_ROUTES)
    differ = [
        argv for argv in argvs
        if _parse_outcome(lambda a: cli._parse_args(parser, a), list(argv), capsys)
        != _parse_outcome(parser.parse_args, list(argv), capsys)
    ]
    assert differ == []


def test_the_benchmark_command_lines_never_reach_argparse(monkeypatch, tmp_path):
    # The argv shapes of sweep_r, sweep_eta_shots and reports_mixed's run and
    # replay are read from the option table alone.
    save_state(random_state(11), tmp_path / "state.json")
    report = str(tmp_path / "report.json")
    argvs = [
        ["sweep", "--param", "r", "--generator", "tmsv", "--scheme", "both", "--start", "0.1",
         "--stop", "1.95", "--steps", "180", "--out", str(tmp_path / "r.csv")],
        ["sweep", "--param", "eta", "--start", "0.5", "--stop", "1.0", "--steps", "3",
         "--detector", "lossy-homodyne", "--shots", "100000", "--scheme", "both",
         "--generator", "tmst", "--r", "0.3", "--nu1", "1.4", "--nu2", "1.9", "--seed", "11",
         "--out", str(tmp_path / "eta.csv")],
        ["run", "--state", str(tmp_path / "state.json"), "--scheme", "both", "--seed", "7",
         "--out", report, "--detector", "lossy-homodyne", "--eta", "0.8"],
        ["replay", "--report", report],
    ]
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    for argv in argvs:
        assert main(argv) == 0
    assert calls == []
    assert main(["sweep", "--param=r", *argvs[0][3:]]) == 0  # argparse's line
    assert calls


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--generator", "tmsv"),
        ("sweep", "--param", "r", "--start", "0", "--stop", "1", "--steps", "3"),
        ("validate", "--generator", "tmsv"),
    ],
    ids=["run", "sweep", "validate"],
)
def test_an_out_path_that_cannot_be_written_is_config_error(argv, where, tmp_path, capsys):
    out = tmp_path / "missing" / "out.txt" if where == "missing-directory" else tmp_path
    assert run_cli(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"gaussbench: config error: cannot write {out}: ")


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()
    assert cli._parser() is cli._parser()
    assert build_parser() is not cli._parser()


@pytest.fixture
def evaluations(monkeypatch):
    """Each evaluation the CLI makes, as (its CSV param column, its result)."""
    evaluate = cli._evaluate
    seen = []

    def spy(cfg, scheme_choice, **route):
        ev = evaluate(cfg, scheme_choice, **route)
        seen.append((cfg.get(cfg.get("param") or "r"), ev))  # run has no --param
        return ev

    monkeypatch.setattr(cli, "_evaluate", spy)
    return seen


@pytest.mark.parametrize(
    "argv, empty_column",
    [
        (("sweep", "--param", "r", "--start", "0", "--stop", "3", "--steps", "180",
          "--scheme", "both"), None),
        (("sweep", "--param", "eta", "--start", "0.6", "--stop", "1", "--steps", "5",
          "--scheme", "scheme1", "--generator", "random", "--seed", "7",
          "--detector", "lossy-homodyne", "--shots", "5000"), "J4_scheme"),
        (("run", "--state", "STATE", "--format", "csv"), "param"),
    ],
    ids=["exact-r-sweep-both", "finite-shot-eta-sweep-scheme1", "run-state-file"],
)
def test_csv_bytes_match_the_cell_by_cell_oracle(argv, empty_column, evaluations, tmp_path, capsys):
    state = tmp_path / "state.json"
    save_state(random_state(502, "mixed", "symmetric"), state)
    assert run_cli(*(str(state) if a == "STATE" else a for a in argv)) == 0
    (ev,) = evaluations
    out = capsys.readouterr().out
    assert out == render_csv(csv_rows(*ev))
    if empty_column is not None:
        column = _CSV_COLUMNS.index(empty_column)
        assert all(line.split(",")[column] == "" for line in out.splitlines()[1:])


def test_json_sweep_rows_match_the_cell_by_cell_oracle(evaluations, capsys):
    code = run_cli(
        "sweep", "--param", "r", "--start", "0", "--stop", "2", "--steps", "30",
        "--generator", "tmst", "--nu1", "1.3", "--nu2", "1.1", "--scheme", "oracle",
        "--format", "json",
    )
    assert code == 0
    (ev,) = evaluations
    assert json.loads(capsys.readouterr().out)["rows"] == csv_rows(*ev)


def _bits(pattern):
    return float(np.uint64(pattern).view(np.float64))


def test_csv_renderer_matches_the_cell_by_cell_oracle_on_awkward_values():
    # Cells are told apart by their bits: 0.0 and -0.0 share a column, NaNs
    # differ in sign and payload, and 0.25 repeats across columns and rows.
    nans = [math.nan, -math.nan, _bits(0x7FF8_0000_0000_0ABC), _bits(0xFFF8_0000_0000_0001)]
    oracle = SimpleNamespace(j1=0.25, j2=np.array([0.25, 0.0, -0.0, 0.25]), j3=-0.0, j4=nans)
    values = [5e-324, 1e16, 1e-5, [0.0, -0.0, 0.25, math.nan], 0.25]
    scheme = SimpleNamespace(j1=0.25, j2=1e16, j3=[-0.0, 0.0, -0.0, 0.0], j4=nans[::-1])
    measures = SimpleNamespace(**dict(zip(cli._MEASURES, values)))
    param = np.array([0.0, -0.0, 5e-324, -5e-324])
    lines = cli._csv_lines(param, oracle, scheme, measures)
    assert "\n".join(lines) + "\n" == render_csv(table_rows(param, oracle, scheme, measures))
    assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "-0.0", "5e-324", "-5e-324"]
    # One state, as ``run --format csv`` renders it: no param and no scheme.
    oracle = SimpleNamespace(j1=-0.0, j2=0.0, j3=1e16, j4=nans[2])
    measures = SimpleNamespace(**dict(zip(cli._MEASURES, [0.25, 0.25, -0.0, 1e-5, 0.0])))
    lines = cli._csv_lines(None, oracle, None, measures)
    assert len(lines) == 2
    assert "\n".join(lines) + "\n" == render_csv(table_rows(None, oracle, None, measures))


def test_run_csv_format_single_row(capsys):
    code = run_cli("run", "--generator", "tmsv", "--r", "0.5", "--format", "csv")
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == GOLDEN_CSV_HEADER
    assert len(lines) == 2
    assert float(lines[1].split(",")[0]) == 0.5


@pytest.mark.parametrize(
    "argv",
    [
        ("--generator", "tmsv", "--r", "nan"),
        ("--generator", "tmst", "--nu1", "inf"),
        ("--generator", "thermal", "--nu1", "nan"),
        ("--generator", "tmst", "--r", "0", "--nu1", "inf"),  # 0 * inf in the state
    ],
)
def test_nonfinite_generator_parameters_are_config_errors(argv, capsys):
    assert run_cli("run", *argv) == 1
    assert "gaussbench: config error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("--param", "r", "--generator", "tmst", "--nu1", "inf"),
        ("--param", "eta", "--generator", "tmsv", "--r", "nan", "--detector", "lossy-homodyne"),
    ],
)
def test_sweep_with_nonfinite_generator_parameters_is_config_error(argv, capsys):
    code = run_cli("sweep", *argv, "--start", "0.5", "--stop", "1", "--steps", "3")
    assert code == 1
    assert "gaussbench: config error:" in capsys.readouterr().err


@pytest.mark.parametrize("detector", ["lossy-photocount", "lossy-homodyne"])
@pytest.mark.parametrize("eta", ["1e-164", "1e-168"])
def test_eta_whose_square_underflows_is_config_error(detector, eta, capsys):
    # Loss correction divides by eta^2, which is subnormal or zero here.
    code = run_cli("run", "--generator", "tmsv", "--detector", detector, "--eta", eta)
    assert code == 1
    assert f"gaussbench: config error: eta = {eta} too small" in capsys.readouterr().err
    code = run_cli(
        "sweep", "--param", "eta", "--start", eta, "--stop", "1", "--steps", "3",
        "--generator", "tmsv", "--detector", detector,
    )
    assert code == 1
    assert f"gaussbench: config error: eta = {eta} too small" in capsys.readouterr().err


def test_sweep_steps_above_the_bound_is_config_error(capsys):
    steps = str(MAX_SWEEP_STEPS + 1)
    code = run_cli("sweep", "--param", "r", "--start", "0", "--stop", "1", "--steps", steps)
    assert code == 1
    assert "config error" in capsys.readouterr().err


def _csv_body(text):
    lines = text.strip().split("\n")
    assert lines[0] == GOLDEN_CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def _assert_rows_match(sweep_row, run_row):
    # The param cell differs for eta sweeps (run reports r there).
    header = GOLDEN_CSV_HEADER.split(",")
    for name, got, want in zip(header[1:], sweep_row[1:], run_row[1:]):
        assert (got == "") == (want == ""), name
        if name.startswith("J") and got != "":
            assert abs(float(got) - float(want)) <= 1e-12 * abs(float(want)), name


@pytest.mark.parametrize(
    "sweep, state_flags",
    [
        (("--param", "r", "--start", "0", "--stop", "1.5", "--steps", "7"),
         ("--generator", "tmsv")),
        (("--param", "r", "--start", "0.1", "--stop", "1.2", "--steps", "5"),
         ("--generator", "tmst", "--nu1", "1.3", "--nu2", "1.1")),
        (("--param", "eta", "--start", "0.4", "--stop", "1", "--steps", "4"),
         ("--generator", "tmsv", "--r", "0.6", "--detector", "lossy-homodyne")),
        (("--param", "eta", "--start", "0.5", "--stop", "1", "--steps", "3"),
         ("--generator", "random", "--seed", "4", "--detector", "lossy-photocount",
          "--scheme", "scheme1")),
        (("--param", "eta", "--start", "0.6", "--stop", "1", "--steps", "3"),
         ("--generator", "tmsv", "--r", "0.5", "--detector", "lossy-homodyne",
          "--shots", "2000", "--seed", "7")),
    ],
    ids=["tmsv-r", "tmst-r", "homodyne-eta", "photocount-eta-scheme1", "homodyne-eta-shots"],
)
def test_every_sweep_row_matches_run(sweep, state_flags, capsys):
    # The grid is evaluated as one batch; each row of an exact sweep must
    # equal a single-state run at that parameter value.  A finite-shot batch
    # gives every point its own noise, and point 0 reads the first values of
    # the stream, as the single-state run does: there row 0 must equal it.
    assert run_cli("sweep", *sweep, *state_flags) == 0
    rows = _csv_body(capsys.readouterr().out)
    param = sweep[1]
    scheme = () if "--scheme" in state_flags else ("--scheme", "scheme2")
    for row in rows[:1] if "--shots" in state_flags else rows:
        flags = list(state_flags)
        if param == "r" and "--r" not in flags:
            flags += ["--r", row[0]]
        if param == "eta":
            flags += ["--eta", row[0]]
        assert run_cli("run", *flags, *scheme, "--format", "csv") == 0
        (run_row,) = _csv_body(capsys.readouterr().out)
        _assert_rows_match(row, run_row)


def test_one_state_run_prints_the_row_of_a_one_point_sweep(capsys):
    # At this r a scalar ``x**2`` misrounded a reading's square, and the
    # run's E_N differed from the sweep's in the 9th digit.  The formulas
    # square by multiplication, so one state rounds as a batch does.
    r = "2.3936136062130133"
    flags = ("--generator", "tmst", "--nu1", "1.3", "--nu2", "1.1", "--scheme", "scheme2")
    assert run_cli("run", *flags, "--r", r, "--format", "csv") == 0
    (run_row,) = _csv_body(capsys.readouterr().out)
    assert run_cli("sweep", "--param", "r", "--start", r, "--stop", r, "--steps", "1", *flags) == 0
    assert _csv_body(capsys.readouterr().out) == [run_row]


def test_finite_shot_sweep_rows_have_independent_noise():
    # The sweep's grid is one batch, and every point draws its own noise:
    # the J1 pulls of adjacent rows are uncorrelated (their lag-1
    # correlation over 199 pairs has a standard deviation of about 0.07).
    cfg = {
        "generator": "tmsv", "r": np.linspace(0.2, 1.0, 200), "seed": 3,
        "detector": "lossy-homodyne", "eta": 0.8, "shots": 5000,
    }
    ev = cli._evaluate(cfg, "scheme2")
    j1 = ev.scheme2.invariants.j1
    pulls = (j1 - ev.oracle.j1) / ev.scheme2.invariant_stderr["j1"]
    assert abs(np.corrcoef(pulls[:-1], pulls[1:])[0, 1]) < 0.3
    assert 0.8 < np.std(pulls) < 1.2


def test_sweep_with_one_failing_point_exits_two(tmp_path, capsys):
    # At r = 180 cosh 2r and sinh 2r round to one double, so gamma is
    # singular; were they an ulp apart, J1 ~ 1e311 would overflow.  Either
    # fails the whole sweep, whatever the CPU's last bits.  r = 0.5 is fine.
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--param", "r", "--start", "0.5", "--stop", "180", "--steps", "2",
        "--out", str(out),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("gaussbench: error: ")
    assert "state is unphysical" in err or "overflows double precision" in err
    assert not out.exists()
    assert run_cli("sweep", "--param", "r", "--start", "0.5", "--stop", "4.5", "--steps", "2") == 0


def test_sweep_both_runs_only_the_scheme_it_writes(monkeypatch, capsys):
    # The table has scheme 2's columns for --scheme both, so scheme 1 is not run.
    args = (
        "sweep", "--param", "eta", "--start", "0.6", "--stop", "1", "--steps", "3",
        "--generator", "random", "--seed", "7", "--detector", "lossy-homodyne", "--shots", "5000",
    )
    assert run_cli(*args, "--scheme", "scheme2") == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(cli, "scheme1", lambda *args, **kwargs: pytest.fail("scheme 1 ran"))
    assert run_cli(*args, "--scheme", "both") == 0
    assert capsys.readouterr().out == want


def _drop(key):
    def mutate(section):
        del section[key]
    return mutate


def _set(key, value):
    def mutate(section):
        section[key] = value
    return mutate


def _set_record(key, value):
    def mutate(section):
        section["observations"][0][key] = value
    return mutate


def _drop_record(key):
    def mutate(section):
        del section["observations"][0][key]
    return mutate


def _set_invariant(key, value):
    def mutate(section):
        section["invariants"][key] = value
    return mutate


#: The report that a malformed-section case spoils, unless its ``mutate`` names another.
_EXACT_RUN = ("run", "--generator", "tmsv", "--r", "0.4")
_FINITE_SHOT_RUN = (
    "run", "--generator", "random", "--seed", "7",
    "--detector", "lossy-homodyne", "--eta", "0.8", "--shots", "5000",
)


def _negate_record(index, key):
    """Negate a standard error of an observation of the finite-shot report."""
    def mutate(section):
        section["observations"][index][key] *= -1.0
    mutate.run = _FINITE_SHOT_RUN
    return mutate


def _stringify(part, key):
    """Write a number of the section (or of its first observation) as a JSON string."""
    def mutate(section):
        holder = section["observations"][0] if part == "record" else section[part]
        holder[key] = repr(holder[key])
    return mutate


@pytest.mark.parametrize(
    "code, name, mutate",
    [
        pytest.param(1, "scheme2", _drop("observations"), id="no-transcript"),
        pytest.param(2, "scheme2", _drop("invariants"), id="no-invariants"),
        pytest.param(1, "scheme2", _set("observations", 5), id="transcript-not-a-list"),
        pytest.param(1, "scheme1", _set("observations", [5]), id="record-not-an-object"),
        pytest.param(2, "scheme1", _set("invariants", []), id="invariants-not-an-object"),
        pytest.param(1, "scheme1", _set_record("theta", "x"), id="theta-not-a-number"),
        pytest.param(1, "scheme1", _drop_record("phi"), id="record-without-phi"),
        pytest.param(2, "scheme2", _set_invariant("j3", "zero"), id="string-invariant"),
        pytest.param(2, "scheme2", _set_invariant("j3", [0.1]), id="list-invariant"),
        pytest.param(2, "scheme1", _set_invariant("j1", True), id="bool-invariant"),
        pytest.param(2, "scheme1", _stringify("invariants", "j1"), id="string-number-invariant"),
        pytest.param(1, "scheme2", _set_record("j_prime", True), id="bool-value"),
        pytest.param(1, "scheme2", _set_record("n_prime", None), id="null-value"),
        pytest.param(1, "scheme2", _stringify("record", "n_prime"), id="string-number-value"),
        pytest.param(1, "scheme1", _set("special_form", ["diagonal"]), id="list-special-form"),
        pytest.param(1, "scheme1", _set("special_form", "bogus"), id="bogus-special-form"),
        pytest.param(1, "scheme2", _set_record("j_prime", math.nan), id="nan-value"),
        pytest.param(1, "scheme1", _set_record("n_prime", 1e400), id="infinite-value"),
        pytest.param(1, "scheme2", _set_record("n_stderr", math.inf), id="infinite-stderr"),
        pytest.param(1, "scheme1", _set_record("j_stderr", "0.1"), id="string-stderr"),
        # propagate squares each slope, so a negated error gives the same
        # invariant errors: only the check on reading catches it.
        pytest.param(1, "scheme1", _negate_record(0, "n_stderr"), id="negative-n-stderr"),
        pytest.param(1, "scheme2", _negate_record(2, "j_stderr"), id="negative-j-stderr"),
        pytest.param(1, "scheme1", _set_record("theta", math.nan), id="nan-theta"),
        pytest.param(1, "scheme2", _set_record("phi", math.nan), id="nan-phi"),
        pytest.param(1, "scheme2", _set_record("theta", 1e400), id="infinite-theta"),
        # A transcript record once held any finite setting; a bench setting cannot.
        pytest.param(1, "scheme1", _set_record("theta", 2.0), id="theta-out-of-range"),
        pytest.param(1, "scheme2", _set_record("phi", -4.0), id="phi-out-of-range"),
        pytest.param(1, "scheme1", _set_record("j_prime", 10**400), id="huge-integer-value"),
        pytest.param(1, "scheme2", _set("special_form", "diagonal"), id="scheme2-special-form"),
        pytest.param(1, "scheme2", _set("special_form", "antidiagonal"), id="scheme2-antidiagonal"),
    ],
)
def test_replay_of_a_malformed_section_is_config_error(code, name, mutate, tmp_path, capsys):
    # Observations or a special form that cannot be read are a config error.
    # The invariants are an output that replay renders again, so spoiling
    # them is a mismatch (exit 2) that names them.
    out = tmp_path / "report.json"
    assert run_cli(*getattr(mutate, "run", _EXACT_RUN), "--out", str(out)) == 0
    report = json.loads(out.read_text())
    mutate(report[name])
    out.write_text(json.dumps(report))
    assert run_cli("replay", "--report", str(out)) == code
    err = capsys.readouterr().err
    if code == 1:
        assert f"config error: report section {name}" in err
    else:
        assert f"error: replay of {name} does not reproduce its invariants:" in err


def test_replay_rejects_a_plan_setting_observed_twice(tmp_path, capsys):
    # run never writes two observations at one setting.  A report holding a
    # second one, its purity derived again, leaves that setting's readings
    # ambiguous: a physics failure that names the setting, as a missing one is.
    out = tmp_path / "report.json"
    assert run_cli("run", "--generator", "random", "--seed", "3", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    observations = report["scheme1"]["observations"]
    twin = {**observations[0], "j_prime": 1.5 * observations[0]["j_prime"]}
    twin["purity"] = 1.0 / (2.0 * math.sqrt(twin["j_prime"]))
    assert (twin["theta"], twin["phi"]) == (0.0, 0.0)
    observations.append(twin)
    out.write_text(json.dumps(report))
    assert run_cli("replay", "--report", str(out)) == 2
    err = capsys.readouterr().err
    assert err == "gaussbench: error: transcript has two observations at theta=0.0, phi=0.0\n"


def _append_off_plan(report):
    """Append to scheme 1's transcript an observation at theta = 0.3, a setting no plan has."""
    observations = report["scheme1"]["observations"]
    observations.append({**observations[0], "theta": 0.3})


def _drop_last_observation(report):
    report["scheme1"]["observations"].pop()


def _shuffle_observations(report):
    for name in ("scheme1", "scheme2"):
        report[name]["observations"].reverse()


@pytest.mark.parametrize(
    "edit, code, err",
    [
        (_append_off_plan, 2, "transcript has an observation off its plan at theta=0.3, phi=0.0"),
        (_drop_last_observation, 2,
         f"transcript has no observation at theta={math.pi / 4!r}, phi={-math.pi / 2!r}"),
        (_shuffle_observations, 0, ""),
    ],
    ids=["off-plan", "missing", "shuffled"],
)
def test_replay_takes_only_a_transcript_that_a_run_could_write(edit, code, err, tmp_path, capsys):
    # run writes one observation at each setting of a scheme's plan, and
    # replay takes them in any order, but no more and no fewer.
    out = tmp_path / "report.json"
    assert run_cli("run", *EXACT_ARGS, "--out", str(out)) == 0
    report = json.loads(out.read_text())
    edit(report)
    out.write_text(json.dumps(report))
    assert run_cli("replay", "--report", str(out)) == code
    assert capsys.readouterr().err == (f"gaussbench: error: {err}\n" if err else "")


@pytest.mark.parametrize(
    "value",
    [True, "0.5", [0.5], 10**400, None],
    ids=["bool", "string", "list", "huge-integer", "null-j1"],
)
def test_replay_of_a_malformed_oracle_is_config_error(value, tmp_path, capsys):
    # Replay reads the oracle's J1..J4 for each section's deltas; only J4 may be null.
    out = tmp_path / "report.json"
    assert run_cli("run", "--generator", "tmsv", "--r", "0.4", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    report["oracle"]["invariants"]["j1"] = value
    out.write_text(json.dumps(report))
    assert run_cli("replay", "--report", str(out)) == 1
    assert "config error: report section oracle is malformed" in capsys.readouterr().err


def test_replay_of_an_overflowing_transcript_is_a_physics_failure(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli("run", "--generator", "tmsv", "--r", "0.4", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    report["scheme2"]["observations"][0]["n_prime"] = 1e200
    out.write_text(json.dumps(report))
    assert run_cli("replay", "--report", str(out)) == 2
    assert "error: the state overflows double precision" in capsys.readouterr().err


def test_replay_of_a_non_object_report_is_config_error(tmp_path, capsys):
    out = tmp_path / "report.json"
    out.write_text("[]")
    assert run_cli("replay", "--report", str(out)) == 1
    assert "report must contain a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"\xff\xfe\x00{", b"[" * 100_000], ids=["binary", "deep"])
@pytest.mark.parametrize("command", ["run", "replay"])
def test_unparsable_file_is_config_error(command, content, tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_bytes(content)
    flag = "--report" if command == "replay" else "--state"
    assert run_cli(command, flag, str(path)) == 1
    assert "is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config",
    [
        ("run", {"generator": "tmsv", "scheme": "bogus"}),
        ("run", {"generator": "tmsv", "format": "xml"}),
        ("run", {"generator": "tmsv", "seed": "x"}),
        ("run", {"generator": "tmsv", "seed": 1.5}),
        ("run", {"generator": "tmsv", "detector": "lossy-homodyne", "shots": True}),
        ("sweep", {"param": "r", "start": 0.1, "stop": 1.0, "steps": True}),
        ("sweep", {"param": "r", "start": "abc", "stop": 1.0, "steps": 3}),
        ("sweep", {"param": "theta", "start": 0.1, "stop": 1.0, "steps": 3}),
    ],
)
def test_config_values_get_the_flag_checks(command, config, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(command, "--config", str(cfg)) == 1
    assert "gaussbench: config error: config key" in capsys.readouterr().err


def test_config_values_in_flag_syntax_are_accepted(tmp_path, capsys):
    # A JSON string goes through the flag's own conversion, as on the command line.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generator": "tmsv", "r": "0.25", "seed": "3"}))
    assert run_cli("run", "--config", str(cfg), "--format", "csv") == 0
    from_file = capsys.readouterr().out
    argv = ["run", "--generator", "tmsv", "--r", "0.25", "--seed", "3", "--format", "csv"]
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == from_file


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--generator", "tmsv", "--seed", "-1"],
        ["validate", "--generator", "random", "--seed", "-1"],
        ["run", "--generator", "tmsv", "--detector", "lossy-homodyne", "--shots", "1"],
    ],
)
def test_seed_and_shot_rules_are_config_errors(argv, capsys):
    assert run_cli(*argv) == 1
    assert "gaussbench: config error:" in capsys.readouterr().err


_R_GRID = ["sweep", "--param", "r", "--start", "0.1", "--stop", "0.2", "--steps", "2"]
_ETA_GRID = [
    "sweep", "--param", "eta", "--start", "0.5", "--stop", "1.0", "--steps", "2",
    "--generator", "tmsv", "--detector", "lossy-homodyne",
]


@pytest.mark.parametrize(
    "argv, config",
    [
        ([*_R_GRID, "--state", "STATE"], None),
        (_R_GRID, {"state": "STATE"}),
        ([*_R_GRID, "--r", "0.9"], None),
        ([*_ETA_GRID, "--eta", "0.7"], None),
        (_ETA_GRID, {"eta": 0.7}),
        (["run", "--state", "STATE", "--r", "0.4", "--format", "csv"], None),
        (["run", "--state", "STATE", "--format", "csv"], {"r": 0.4}),
        (["run", "--generator", "random", "--nu2", "1.5"], None),
        (["validate", "--generator", "vacuum", "--nu1", "5"], None),
        (["validate", "--generator", "tmsv"], {"nu1": 5}),
        (["validate", "--generator", "tmsv", "--r", "0.3"], {"format": "csv"}),
        (["validate", "--generator", "tmsv", "--r", "0.3", "--seed", "5"], None),
        (["validate", "--state", "STATE"], {"seed": 5}),
    ],
    ids=[
        "r-sweep-state", "r-sweep-state-config", "r-sweep-r", "eta-sweep-eta",
        "eta-sweep-eta-config", "run-file-r", "run-file-r-config", "run-random-nu2",
        "validate-vacuum-nu1", "validate-tmsv-nu1-config", "validate-format-config",
        "validate-tmsv-seed", "validate-file-seed-config",
    ],
)
def test_flags_the_command_would_ignore_are_config_errors(argv, config, tmp_path, capsys):
    state = tmp_path / "state.json"
    save_state(tmsv_state(0.3), state)
    argv = [str(state) if a == "STATE" else a for a in argv]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({k: str(state) if v == "STATE" else v for k, v in config.items()}))
        argv += ["--config", str(path)]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gaussbench: config error:" in captured.err


def test_validate_has_no_format_flag(capsys):
    # validate prints one JSON payload; argparse rejects --format with exit 1.
    with pytest.raises(SystemExit) as info:
        run_cli("validate", "--generator", "tmsv", "--r", "0.3", "--format", "csv")
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --format csv" in captured.err


def test_validate_takes_a_seed_for_the_random_generator(capsys):
    assert run_cli("validate", "--generator", "random", "--seed", "5") == 0
    assert json.loads(capsys.readouterr().out)["physical"] is True


@pytest.mark.parametrize(
    "grid, code", [(("1", "1"), 0), (("0.5", "1"), 1)], ids=["all-ones", "below-one"]
)
def test_ideal_eta_sweep_runs_only_at_unit_efficiency(grid, code, capsys):
    start, stop = grid
    argv = ["sweep", "--param", "eta", "--start", start, "--stop", stop, "--steps", "3",
            "--generator", "tmsv", "--r", "0.5"]
    assert run_cli(*argv) == code
    captured = capsys.readouterr()
    if code == 0:
        assert len(_csv_body(captured.out)) == 3
    else:
        assert "config error: eta != 1 requires a lossy detector kind" in captured.err


def test_validate_prints_the_physicality_slack(capsys):
    assert run_cli("validate", "--generator", "tmsv", "--r", "0.3") == 0
    assert json.loads(capsys.readouterr().out)["slack"] == 1e-9


def test_validate_keeps_nu_minus_far_below_nu_plus(capsys):
    # nu_plus / nu_minus = 1e16: (|a| - |b|) / 2 cancelled nu_minus down to
    # 0.0 and called this physical product state unphysical (exit 2).
    assert run_cli("validate", "--generator", "thermal", "--nu1", "1e16", "--nu2", "1.0") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["physical"] is True
    assert payload["nu_minus"] == 1.0 and payload["nu_plus"] == 1e16


def _count_records_and_stencils(monkeypatch):
    """Wrap ``Mode1Observation`` and ``propagate`` wherever a gaussbench
    module binds them, as ``perfbench/tracing.py`` wraps what it traces, and
    count the records built and the calls that evaluate a stencil."""
    from gaussbench import bench, states

    counts = {"records": 0, "stencils": 0}
    observation, stencil = bench.Mode1Observation, states.propagate

    def record(*args, **kwargs):
        counts["records"] += 1
        return observation(*args, **kwargs)

    def propagate(f, values, errors):
        counts["stencils"] += errors is not None
        return stencil(f, values, errors)

    wrappers = {id(observation): record, id(stencil): propagate}
    for module in [m for name, m in sys.modules.items() if name.startswith("gaussbench")]:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                monkeypatch.setattr(module, attr, wrappers[id(value)])
    return counts


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_finite_shot_table_builds_no_record_and_no_stencil(fmt, monkeypatch, capsys):
    counts = _count_records_and_stencils(monkeypatch)
    state = ("--generator", "tmst", "--r", "0.4", "--nu1", "1.3", "--nu2", "1.1")
    det = ("--detector", "lossy-homodyne", "--shots", "5000")
    base = (*state, *det, "--eta", "0.8")
    assert run_cli("sweep", "--param", "eta", "--start", "0.6", "--stop", "1", "--steps", "3",
                   "--scheme", "both", "--format", fmt, *state, *det) == 0
    assert run_cli("run", "--scheme", "both", "--format", "csv", *base) == 0
    assert counts == {"records": 0, "stencils": 0}
    # A report builds its transcript and error bars: the counters count.
    assert run_cli("run", "--scheme", "both", *base) == 0
    assert counts == {"records": 6 + 4, "stencils": 2 * 2}
    capsys.readouterr()


def test_a_table_of_both_schemes_still_runs_scheme1(monkeypatch, capsys):
    # The table shows scheme 2's columns, but scheme 1 runs too, so its
    # failure decides the exit, as it does for the report.
    def fail(*args, **kwargs):
        raise cli.GaussBenchError("scheme 1 failed")

    monkeypatch.setattr(cli, "scheme1_values", fail)
    assert run_cli("run", "--generator", "tmsv", "--scheme", "both", "--format", "csv") == 2
    assert capsys.readouterr().err == "gaussbench: error: scheme 1 failed\n"
    assert run_cli("run", "--generator", "tmsv", "--scheme", "scheme2", "--format", "csv") == 0
