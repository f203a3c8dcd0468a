"""Command-line interface: reports, determinism, exit codes, formats."""

import json
import math

import numpy as np
import pytest

from gaussbench import ModeCovariance, load_state, random_state, save_state, tmsv_state
from gaussbench.cli import _CSV_COLUMNS, MAX_SWEEP_STEPS, main

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
    assert report["consistency"]["within_tolerance"] is True
    assert report["scheme1"]["special_form"] == "antidiagonal"


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


def test_noisy_report_is_replayable(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        "run", "--generator", "tmsv", "--r", "0.4", "--seed", "3",
        "--detector", "lossy-homodyne", "--eta", "0.9", "--shots", "5000",
        "--out", str(out),
    )
    assert code == 0
    assert run_cli("replay", "--report", str(out)) == 0


def test_replay_detects_tampering(tmp_path, capsys):
    out = tmp_path / "report.json"
    run_cli("run", "--generator", "tmsv", "--r", "0.5", "--out", str(out))
    report = json.loads(out.read_text())
    report["scheme2"]["invariants"]["j3"] += 1e-6
    out.write_text(json.dumps(report))
    assert run_cli("replay", "--report", str(out)) == 2
    assert "replay" in capsys.readouterr().err


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
    assert report["oracle"]["invariants"]["i3"] == pytest.approx(0.0, abs=1e-12)


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
    # of seed 5 below zero, where purity and W(0) are undefined.
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
    assert all(obs["purity"] is None and obs["wigner0"] is None for obs in undefined)
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
    assert section["status"] == "lower-bound-only"
    if shots:
        assert sorted(section["stderr"]) == ["j1", "j2", "j3"]
    else:
        assert section["stderr"] is None
    assert section["invariants"]["j4"] is None and section["invariants"]["i4"] is None
    assert section["deltas"]["j4_abs"] is None and section["deltas"]["j4_rel"] is None
    ent = section["entanglement"]
    for key in ("eof", "log_negativity", "simon_lhs_minus_rhs", "separable"):
        assert ent[key] is None
    assert isinstance(ent["eof_lower_bound"], float) == (not shots)
    assert run_cli("replay", "--report", str(out)) == 0


def test_noisy_reading_that_defeats_reconstruction_exits_2(capsys):
    # Seed 42's noisy J readings at full transmission fall below zero.
    code = run_cli(
        "run", "--generator", "random", "--seed", "42", "--detector", "lossy-homodyne",
        "--eta", "0.8", "--shots", "1000",
    )
    assert code == 2
    assert "error: non-positive J1/J2 reconstructed" in capsys.readouterr().err


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
    ],
    ids=["quad-shape", "mode-overflow", "mode-nan", "mode-quad-overflow",
         "quad-asymmetry-overflow", "mode-floor-overflow"],
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


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--generator", "tmsv", "--r", "1000"),
        ("sweep", "--param", "r", "--start", "0", "--stop", "1000", "--steps", "3"),
        ("run", "--generator", "tmst", "--r", "1", "--nu1", "1e308"),
        ("sweep", "--param", "r", "--start=-1e308", "--stop", "1e308", "--steps", "3"),
        ("sweep", "--param", "eta", "--start=-1e308", "--stop", "1e308", "--steps", "3",
         "--generator", "tmsv", "--detector", "lossy-homodyne"),
    ],
    ids=["tmsv-r-1000", "sweep-r-to-1000", "tmst-nu1-1e308", "r-span", "eta-span"],
)
def test_input_overflow_is_config_error(argv, capsys):
    # A numpy overflow warning is a test failure here, so this also checks
    # that the overflow is caught rather than printed.
    assert run_cli(*argv) == 1
    assert "gaussbench: config error:" in capsys.readouterr().err


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
    # The grid is evaluated as one batch; each row must equal a single-state
    # run at that parameter value, finite-shot points included.
    assert run_cli("sweep", *sweep, *state_flags) == 0
    rows = _csv_body(capsys.readouterr().out)
    param = sweep[1]
    scheme = () if "--scheme" in state_flags else ("--scheme", "scheme2")
    for row in rows:
        flags = list(state_flags)
        if param == "r" and "--r" not in flags:
            flags += ["--r", row[0]]
        if param == "eta":
            flags += ["--eta", row[0]]
        assert run_cli("run", *flags, *scheme, "--format", "csv") == 0
        (run_row,) = _csv_body(capsys.readouterr().out)
        _assert_rows_match(row, run_row)


def test_sweep_with_one_failing_point_exits_two(tmp_path, capsys):
    # At eta = 1e-20 every loss-corrected variance is 0, which the
    # reconstruction guards reject; the other points are fine.
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--param", "eta", "--start", "1e-20", "--stop", "1", "--steps", "3",
        "--generator", "tmsv", "--r", "0.5", "--detector", "lossy-homodyne",
        "--out", str(out),
    )
    assert code == 2
    assert "gaussbench: error:" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli("sweep", "--param", "eta", "--start", "0.5", "--stop", "1", "--steps", "2",
                   "--generator", "tmsv", "--r", "0.5", "--detector", "lossy-homodyne") == 0


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
        section["transcript"][0][key] = value
    return mutate


def _drop_record(key):
    def mutate(section):
        del section["transcript"][0][key]
    return mutate


def _set_invariant(key, value):
    def mutate(section):
        section["invariants"][key] = value
    return mutate


def _stringify(part, key):
    """Write a number of the section (or of its first record) as a JSON string."""
    def mutate(section):
        holder = section["transcript"][0] if part == "record" else section[part]
        holder[key] = repr(holder[key])
    return mutate


@pytest.mark.parametrize(
    "name, mutate",
    [
        pytest.param("scheme2", _drop("transcript"), id="no-transcript"),
        pytest.param("scheme2", _drop("invariants"), id="no-invariants"),
        pytest.param("scheme2", _set("transcript", 5), id="transcript-not-a-list"),
        pytest.param("scheme1", _set("invariants", []), id="invariants-not-an-object"),
        pytest.param("scheme1", _set_record("theta", "x"), id="theta-not-a-number"),
        pytest.param("scheme1", _drop_record("phi"), id="record-without-phi"),
        pytest.param("scheme2", _set_invariant("j3", "zero"), id="string-invariant"),
        pytest.param("scheme2", _set_invariant("j3", [0.1]), id="list-invariant"),
        pytest.param("scheme1", _set_invariant("j1", True), id="bool-invariant"),
        pytest.param("scheme1", _stringify("invariants", "j1"), id="string-number-invariant"),
        pytest.param("scheme2", _set_record("value", True), id="bool-value"),
        pytest.param("scheme2", _stringify("record", "value"), id="string-number-value"),
        pytest.param("scheme1", _set("special_form", ["diagonal"]), id="list-special-form"),
        pytest.param("scheme1", _set("special_form", "bogus"), id="bogus-special-form"),
        pytest.param("scheme2", _set_record("value", math.nan), id="nan-value"),
        pytest.param("scheme1", _set_record("value", 1e400), id="infinite-value"),
        pytest.param("scheme2", _set_record("stderr", math.inf), id="infinite-stderr"),
        pytest.param("scheme1", _set_record("theta", math.nan), id="nan-theta"),
        pytest.param("scheme2", _set_record("phi", math.nan), id="nan-phi"),
        pytest.param("scheme2", _set_record("theta", 1e400), id="infinite-theta"),
        pytest.param("scheme2", _set("special_form", "diagonal"), id="scheme2-special-form"),
        pytest.param("scheme2", _set("special_form", "antidiagonal"), id="scheme2-antidiagonal"),
    ],
)
def test_replay_of_a_malformed_section_is_config_error(name, mutate, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli("run", "--generator", "tmsv", "--r", "0.4", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    mutate(report[name])
    out.write_text(json.dumps(report))
    assert run_cli("replay", "--report", str(out)) == 1
    assert f"config error: report section {name}" in capsys.readouterr().err


def test_replay_of_an_overflowing_transcript_is_a_physics_failure(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli("run", "--generator", "tmsv", "--r", "0.4", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    report["scheme2"]["transcript"][0]["value"] = 1e200
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
