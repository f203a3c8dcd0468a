"""Command-line front end.

Subcommand style, one binary::

    gaussbench run --generator tmsv --r 0.5 --scheme both --detector ideal
    gaussbench scheme2 --state state.json --out report.json
    gaussbench sweep --param r --start 0 --stop 2 --steps 21 --out table.csv
    gaussbench validate --state state.json
    gaussbench replay --report report.json

``oracle``, ``scheme1`` and ``scheme2`` are shorthands for ``run`` with the
scheme pinned.  Options may also come from a JSON config file (--config);
explicit flags win.  Exit codes: 0 success, 1 configuration error,
2 physics or reconstruction failure.

Reports are deterministic: no timestamps, keys sorted, all randomness
derived from the single --seed value, so identical invocations produce
byte-identical output.  Each scheme section embeds its measurement
transcript; ``replay`` re-runs the reconstruction from that transcript and
verifies it reproduces the reported invariants exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from types import SimpleNamespace

import numpy as np

from .bench import DETECTOR_KINDS, DetectorModel
from .entanglement import EntanglementReport, entanglement_report
from .errors import ConfigError, GaussBenchError
from .generators import (
    random_state,
    thermal_state,
    tmsv_state,
    two_mode_squeezed_thermal,
    vacuum_state,
)
from .schemes import (
    SchemeResult,
    TranscriptRecord,
    consistency_check,
    reconstruct_from_transcript,
    scheme1,
    scheme2,
)
from .states import (
    PHYSICALITY_SLACK,
    InvariantSet,
    ModeCovariance,
    QuadCovariance,
    any_point,
    as_field,
    first_where,
    invariants_quad,
    mode_to_quad,
    quad_to_mode,
    validate_physical,
)
from .stateio import load_state, read_json_object

__all__ = ["main", "build_parser"]

#: Each generator's parameters (the flags of the same name) and their defaults.
_GENERATOR_PARAMS = {
    "vacuum": {},
    "tmsv": {"r": 0.5},
    "thermal": {"nu1": 1.0, "nu2": 1.0},
    "tmst": {"r": 0.5, "nu1": 1.0, "nu2": 1.0},
    "random": {},
}
_GENERATORS = tuple(_GENERATOR_PARAMS)
_SCHEMES = ("oracle", "scheme1", "scheme2", "both")

_J_KEYS = ("j1", "j2", "j3", "j4")

#: Largest ``sweep --steps``: the grid is evaluated as one batch, so its
#: memory grows with the number of points.
MAX_SWEEP_STEPS = 10_000

_CSV_COLUMNS = [
    "param",
    "J1_oracle",
    "J2_oracle",
    "J3_oracle",
    "J4_oracle",
    "J1_scheme",
    "J2_scheme",
    "J3_scheme",
    "J4_scheme",
    "E_f",
    "E_f_bound",
    "E_N",
    "simon_margin",
    "nu_minus",
]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here reserves 2 for
    physics failures, so usage problems exit 1 like any other config error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_state_options(parser) -> None:
    parser.add_argument("--state", metavar="FILE", help="load the state from a JSON file")
    parser.add_argument("--generator", choices=_GENERATORS, help="generate the state instead")
    parser.add_argument("--r", type=float, help="squeezing parameter for tmsv/tmst")
    parser.add_argument("--nu1", type=float, help="first thermal symplectic eigenvalue")
    parser.add_argument("--nu2", type=float, help="second thermal symplectic eigenvalue")
    parser.add_argument("--seed", type=int, help="64-bit seed behind all randomness (default 0)")


def _add_detector_options(parser) -> None:
    parser.add_argument("--detector", choices=DETECTOR_KINDS, help="detector kind (default ideal)")
    parser.add_argument("--eta", type=float, help="detector efficiency in (0, 1]")
    parser.add_argument("--shots", type=int, help="shots per setting (omit for exact moments)")


def _add_output_options(parser) -> None:
    parser.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), help="report format")
    parser.add_argument("--config", metavar="FILE", help="JSON config file; explicit flags win")


def build_parser() -> _Parser:
    parser = _Parser(prog="gaussbench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    for name, blurb in (
        ("run", "oracle plus reconstruction schemes on one state"),
        ("oracle", "invariants and measures straight from the covariance matrix"),
        ("scheme1", "three-invariant reconstruction from ten readings"),
        ("scheme2", "four-invariant reconstruction after standard-form prep"),
    ):
        p = sub.add_parser(name, help=blurb)
        if name == "run":
            p.add_argument(
                "--scheme", choices=_SCHEMES, help="which pipeline(s) to run (default both)"
            )
        _add_state_options(p)
        _add_detector_options(p)
        _add_output_options(p)

    swp = sub.add_parser("sweep", help="grid over r or eta, one CSV row per point")
    swp.add_argument("--param", choices=("r", "eta"), help="which parameter the grid varies")
    swp.add_argument("--start", type=float, help="first grid value")
    swp.add_argument("--stop", type=float, help="last grid value (inclusive)")
    swp.add_argument("--steps", type=int, help="number of grid points")
    swp.add_argument("--scheme", choices=_SCHEMES, help="pipeline for the scheme columns")
    _add_state_options(swp)
    _add_detector_options(swp)
    _add_output_options(swp)

    val = sub.add_parser("validate", help="physicality check; exit 0 iff physical")
    _add_state_options(val)
    # validate prints one JSON payload, so it has no --format.
    val.add_argument("--out", metavar="PATH", help="write the payload here instead of stdout")
    val.add_argument("--config", metavar="FILE", help="JSON config file; explicit flags win")

    rep = sub.add_parser("replay", help="re-run reconstructions from a report's transcripts")
    rep.add_argument("--report", metavar="FILE", help="report JSON produced by run")
    rep.add_argument("--config", metavar="FILE", help="JSON config file; explicit flags win")

    return parser


def _config_value(action, key, value):
    """A config-file value through the same type and choices checks as its flag."""
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        value = text if action.type is None else action.type(text)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
    return value


def _merge_config(parser, args) -> dict:
    """Fold the optional config file under the explicit flags."""
    ns = dict(vars(args))
    path = ns.get("config")
    if path:
        loaded = read_json_object(path, "config file")
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        actions = {a.dest: a for a in subparsers.choices[args.command]._actions}
        for key, value in loaded.items():
            if key in ("command", "config") or key not in ns:
                raise ConfigError(f"unknown config key {key!r}")
            if ns[key] is None and value is not None:
                ns[key] = _config_value(actions[key], key, value)
    return ns


def _seed(cfg) -> int:
    """The one seed behind all randomness (default 0); it must be non-negative."""
    seed = 0 if cfg.get("seed") is None else cfg["seed"]
    if seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {seed}")
    return seed


def _resolve_state(cfg, rng_seed) -> tuple[QuadCovariance, dict]:
    """Build the input state and a JSON-able description of its source."""
    state_path = cfg.get("state")
    generator = cfg.get("generator")
    if (state_path is None) == (generator is None):
        raise ConfigError("exactly one of --state and --generator is required")
    takes = () if generator is None else _GENERATOR_PARAMS[generator]
    for name in ("r", "nu1", "nu2"):
        if cfg.get(name) is not None and name not in takes:
            source = f"the {generator} generator" if generator else "a state file"
            raise ConfigError(f"--{name} does not apply to {source}")

    if state_path is not None:
        g = load_state(state_path)
        if isinstance(g, ModeCovariance):
            try:
                g = mode_to_quad(g)
            except ValueError as exc:  # moments near the float limit overflow in gamma
                raise ConfigError(f"state file {state_path} has no quadrature form: {exc}") from exc
        return g, {"source": "file", "path": str(state_path)}

    try:
        params = {
            name: as_field(default if cfg.get(name) is None else cfg[name])
            for name, default in _GENERATOR_PARAMS[generator].items()
        }
        makers = {
            "vacuum": vacuum_state,
            "tmsv": tmsv_state,
            "thermal": thermal_state,
            "tmst": two_mode_squeezed_thermal,
        }
        with np.errstate(over="raise", invalid="raise"):
            g = random_state(rng_seed) if generator == "random" else makers[generator](**params)
    except (ValueError, FloatingPointError) as exc:
        # Non-finite or overflowing parameters leave no valid covariance.
        raise ConfigError(f"cannot build the {generator} state: {exc}") from exc
    return g, {"source": "generator", "name": generator, "params": params}


def _resolve_detector(cfg) -> DetectorModel:
    eta = cfg.get("eta")
    try:
        return DetectorModel(
            kind=cfg.get("detector") or "ideal",
            eta=1.0 if eta is None else eta,
            shots=cfg.get("shots"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _optional(x):
    """A one-state value for a report: NaN, the mark of an undefined number, is null."""
    x = as_field(x)
    return None if isinstance(x, float) and math.isnan(x) else x


def _invariants_dict(inv: InvariantSet) -> dict:
    return {
        "j1": float(inv.j1),
        "j2": float(inv.j2),
        "j3": float(inv.j3),
        "j4": _optional(inv.j4),
        "i1": float(inv.i1),
        "i2": float(inv.i2),
        "i3": float(inv.i3),
        "i4": _optional(inv.i4),
    }


def _entanglement_dict(rep: EntanglementReport) -> dict:
    return {
        "separable": None if rep.separable is None else bool(rep.separable),
        "simon_lhs_minus_rhs": _optional(rep.simon_lhs_minus_rhs),
        "eof": _optional(rep.eof),
        "eof_lower_bound": _optional(rep.eof_lower_bound),
        "log_negativity": _optional(rep.log_negativity),
        "nu_tilde_minus": _optional(rep.nu_tilde_minus),
    }


def _observation_dict(obs) -> dict:
    out = {
        "theta": float(obs.setting.theta),
        "phi": float(obs.setting.phi),
        "n_prime": float(obs.n_prime),
        "j_prime": float(obs.j_prime),
        "purity": _optional(obs.purity),
        "wigner0": _optional(obs.wigner0),
    }
    if obs.n_stderr is not None:
        out["n_stderr"] = float(obs.n_stderr)
    if obs.j_stderr is not None:
        out["j_stderr"] = float(obs.j_stderr)
    return out


def _deltas_dict(scheme_inv: InvariantSet, oracle_inv: InvariantSet) -> dict:
    out = {}
    for name in _J_KEYS:
        want = float(getattr(oracle_inv, name))
        delta = abs(float(getattr(scheme_inv, name)) - want)
        out[f"{name}_abs"] = _optional(delta)
        out[f"{name}_rel"] = _optional(delta / abs(want) if want != 0.0 else math.nan)
    return out


def _stderr_dict(stderr: dict | None) -> dict | None:
    """The standard errors of one state; an error that is NaN (no J4) is left out."""
    if stderr is None:
        return None
    return {name: e for name, e in stderr.items() if not math.isnan(e)}


def _scheme_section(result: SchemeResult, oracle_inv: InvariantSet) -> dict:
    section = {
        "status": result.status,
        "special_form": result.special_form,
        "invariants": _invariants_dict(result.invariants),
        "stderr": _stderr_dict(result.invariant_stderr),
        "deltas": _deltas_dict(result.invariants, oracle_inv),
        "entanglement": _entanglement_dict(result.entanglement),
        "observations": [_observation_dict(o) for o in result.observations],
        "transcript": [rec.to_dict() for rec in result.transcript],
    }
    if result.scheme == "scheme2":
        section["cross_block"] = {
            "ms_real": _optional(result.ms_real),
            "ms_imag": _optional(result.ms_imag),
            "mc_magnitude": _optional(result.mc_magnitude),
        }
        section["standard_form_residuals"] = {
            "m1": _optional(result.residual_m1),
            "m2": _optional(result.residual_m2),
        }
    return section


def _evaluate(cfg, scheme_choice: str) -> SimpleNamespace:
    """Input, oracle and the chosen schemes for one state, or elementwise for a grid."""
    seed = _seed(cfg)
    gen_seq, s1_seq, s2_seq = np.random.SeedSequence(seed).spawn(3)

    g, source = _resolve_state(cfg, gen_seq)
    det = _resolve_detector(cfg)
    phys = validate_physical(g)
    unphysical = np.logical_not(phys.physical)
    if any_point(unphysical):
        raise GaussBenchError(
            "state is unphysical: symplectic eigenvalues "
            f"nu_minus={first_where(unphysical, phys.nu_minus):.12g}, "
            f"nu_plus={first_where(unphysical, phys.nu_plus):.12g}"
        )
    v = quad_to_mode(g)
    oracle_inv = invariants_quad(g)
    oracle_ent = entanglement_report(oracle_inv)
    res1 = res2 = None
    if scheme_choice in ("scheme1", "both"):
        res1 = scheme1(v, det, seed=s1_seq)
    if scheme_choice in ("scheme2", "both"):
        res2 = scheme2(v, det, seed=s2_seq)
    return SimpleNamespace(
        seed=seed, state=g, source=source, detector=det, physicality=phys,
        oracle=oracle_inv, oracle_entanglement=oracle_ent, scheme1=res1, scheme2=res2,
    )


def _build_report(ev: SimpleNamespace) -> dict:
    report = {
        "seed": ev.seed,
        "state": {
            **ev.source,
            "quad_entries": [float(x) for x in ev.state.entries.reshape(-1)],
        },
        "detector": {"kind": ev.detector.kind, "eta": ev.detector.eta, "shots": ev.detector.shots},
        "physicality": {
            "physical": bool(ev.physicality.physical),
            "nu_minus": float(ev.physicality.nu_minus),
            "nu_plus": float(ev.physicality.nu_plus),
        },
        "oracle": {
            "invariants": _invariants_dict(ev.oracle),
            "entanglement": _entanglement_dict(ev.oracle_entanglement),
        },
        "scheme1": None,
        "scheme2": None,
        "consistency": None,
    }
    if ev.scheme1 is not None:
        report["scheme1"] = _scheme_section(ev.scheme1, ev.oracle)
    if ev.scheme2 is not None:
        report["scheme2"] = _scheme_section(ev.scheme2, ev.oracle)
    if ev.scheme1 is not None and ev.scheme2 is not None:
        chk = consistency_check(ev.scheme1, ev.scheme2)
        report["consistency"] = {
            "delta_j1": chk.delta_j1,
            "delta_j2": chk.delta_j2,
            "delta_j3": chk.delta_j3,
            "max_delta": chk.max_delta,
            "tol": chk.tol,
            "within_tolerance": bool(chk.within_tolerance),
        }
    return report


def _csv_rows(param, ev: SimpleNamespace) -> list:
    """One row of ``_CSV_COLUMNS`` cells per point; undefined values stay empty."""
    scheme = ev.scheme2 if ev.scheme2 is not None else ev.scheme1
    inv = None if scheme is None else scheme.invariants
    ent = ev.oracle_entanglement if scheme is None else scheme.entanglement
    measures = ("eof", "eof_lower_bound", "log_negativity", "simon_lhs_minus_rhs", "nu_tilde_minus")
    columns = [param, *(getattr(ev.oracle, key) for key in _J_KEYS)]
    columns += [None if inv is None else getattr(inv, key) for key in _J_KEYS]
    columns += [getattr(ent, key) for key in measures]
    # None becomes NaN here, and NaN renders as an empty (null) cell.
    table = [np.asarray(c, dtype=float) for c in columns]
    shape = np.broadcast_shapes(*(c.shape for c in table))
    cells = []
    for column in table:
        column = np.broadcast_to(column, shape).ravel()
        text = list(map(repr, column.tolist()))
        if np.isnan(column).any():
            text = ["" if t == "nan" else t for t in text]
        cells.append(text)
    return [list(row) for row in zip(*cells)]


def _render_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


def _render_json(payload) -> str:
    # An undefined value is null; a NaN token would make the file invalid JSON.
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_run(cfg, scheme_choice: str) -> int:
    ev = _evaluate(cfg, scheme_choice)
    fmt = cfg.get("format") or "json"
    if fmt == "csv":
        text = _render_csv(_csv_rows(cfg.get("r"), ev))
    else:
        text = _render_json(_build_report(ev))
    _emit(text, cfg.get("out"))
    return 0


def _cmd_sweep(cfg) -> int:
    param = cfg.get("param")
    if param not in ("r", "eta"):
        raise ConfigError("--param must be 'r' or 'eta'")
    if cfg.get("start") is None or cfg.get("stop") is None or cfg.get("steps") is None:
        raise ConfigError("sweep needs --start, --stop and --steps")
    steps = int(cfg["steps"])
    if steps <= 0:
        raise ConfigError(f"sweep grid must be non-empty, got steps={steps}")
    if steps > MAX_SWEEP_STEPS:
        raise ConfigError(f"sweep grid is limited to {MAX_SWEEP_STEPS} points, got steps={steps}")
    start, stop = float(cfg["start"]), float(cfg["stop"])
    if not np.isfinite(stop - start):  # a non-finite bound, or a span that overflows
        raise ConfigError("sweep grid bounds and their span must be finite")
    grid = np.linspace(start, stop, steps)
    scheme_choice = cfg.get("scheme") or "scheme2"

    if cfg.get(param) is not None:
        raise ConfigError(f"the {param} grid replaces --{param}")
    if param == "r":
        if cfg.get("state") is not None:
            raise ConfigError("an r sweep generates its states; --state does not apply")
        if cfg.get("generator") not in (None, "tmsv", "tmst"):
            raise ConfigError("an r sweep needs the tmsv or tmst generator")
        cfg = {**cfg, "generator": cfg.get("generator") or "tmsv"}

    # The whole grid is one batch through the same code as ``run``.
    rows = _csv_rows(grid, _evaluate({**cfg, param: grid}, scheme_choice))

    fmt = cfg.get("format") or "csv"
    if fmt == "json":
        payload = {"param": param, "columns": _CSV_COLUMNS, "rows": rows}
        text = _render_json(payload)
    else:
        text = _render_csv(rows)
    _emit(text, cfg.get("out"))
    return 0


def _cmd_validate(cfg) -> int:
    if cfg.get("seed") is not None and cfg.get("generator") != "random":
        raise ConfigError("--seed applies only to the random generator")
    gen_seq = np.random.SeedSequence(_seed(cfg)).spawn(1)[0]
    g, source = _resolve_state(cfg, gen_seq)
    phys = validate_physical(g)
    payload = {
        "state": source,
        "physical": bool(phys.physical),
        "nu_minus": float(phys.nu_minus),
        "nu_plus": float(phys.nu_plus),
        "positive_definite": bool(phys.positive_definite),
        "symmetric": True,
        "slack": PHYSICALITY_SLACK,
    }
    _emit(_render_json(payload), cfg.get("out"))
    return 0 if phys.physical else 2


def _reported(x):
    """A report's number, or ``None`` for null; a bool, string or list there is malformed."""
    if x is not None and (isinstance(x, bool) or not isinstance(x, (int, float))):
        raise TypeError(f"{x!r} is not a number")
    return _optional(x)


def _cmd_replay(cfg) -> int:
    path = cfg.get("report")
    if not path:
        raise ConfigError("replay needs --report")
    report = read_json_object(path, "report")

    checked = 0
    for name in ("scheme1", "scheme2"):
        section = report.get(name)
        if section is None:
            continue
        try:
            records = [TranscriptRecord.from_dict(r) for r in section["transcript"]]
            reported = {key: _reported(section["invariants"].get(key)) for key in _J_KEYS}
            special_form = section.get("special_form")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"report section {name} is malformed: {exc!r}") from exc
        # Only scheme 1 records a special form; scheme 2 measures J4 instead.
        forms = (None, "diagonal", "antidiagonal") if name == "scheme1" else (None,)
        if special_form not in forms:
            raise ConfigError(f"report section {name} has a malformed special_form")
        inv, _ = reconstruct_from_transcript(records, name, special_form)
        for key in _J_KEYS:
            got, want = _optional(getattr(inv, key)), reported[key]
            if got != want:  # a null on one side only, or a different number
                raise GaussBenchError(
                    f"replay of {name} reproduced {key}={got!r}, report says {want!r}"
                )
        checked += 1
    if checked == 0:
        raise ConfigError("report contains no scheme sections to replay")
    sys.stdout.write(f"replayed {checked} transcript(s): invariants reproduced exactly\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(parser, args)
        command = args.command
        # A finite, even physical, state can still be too large for its
        # spectrum or invariants: any float overflow is a physics failure.
        with np.errstate(over="raise"):
            if command == "run":
                return _cmd_run(cfg, cfg.get("scheme") or "both")
            if command in ("oracle", "scheme1", "scheme2"):
                return _cmd_run(cfg, command)
            if command == "sweep":
                return _cmd_sweep(cfg)
            if command == "validate":
                return _cmd_validate(cfg)
            if command == "replay":
                return _cmd_replay(cfg)
        raise ConfigError(f"unknown command {command!r}")
    except ConfigError as exc:
        print(f"gaussbench: config error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, OverflowError) as exc:
        print(f"gaussbench: error: the state overflows double precision ({exc})", file=sys.stderr)
        return 2
    except GaussBenchError as exc:
        print(f"gaussbench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
