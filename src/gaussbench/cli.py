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
2 physics failure or replay mismatch (never a noisy reading: that gives null).

Reports are deterministic: no timestamps, keys sorted, all randomness
derived from the single --seed value, so identical invocations produce
byte-identical output.  A scheme section holds its transcript, the
``observations``, and what that determines, each once; ``replay`` renders
the section again from the transcript and verifies that the report holds
the same values and no key that ``run`` does not write.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from types import SimpleNamespace

import numpy as np

from .bench import DETECTOR_KINDS, BenchSetting, DetectorModel, Mode1Observation, transcript
from .entanglement import EntanglementReport, entanglement_report
from .errors import ConfigError, GaussBenchError
from .generators import (
    random_state,
    thermal_state,
    tmsv_state,
    two_mode_squeezed_thermal,
    vacuum_state,
)
from .schemes import SchemeResult, reconstruct_from_transcript, scheme1, scheme2
from .states import (
    J_KEYS,
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
from .stateio import is_json_number, load_state, read_json_object, render_json

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

#: The entanglement measures of a report, in the order of their CSV columns.
_MEASURES = ("eof", "eof_lower_bound", "log_negativity", "simon_lhs_minus_rhs", "nu_tilde_minus")

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


#: A negative decimal float literal, exponent included.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here reserves 2 for
    physics failures, so usage problems exit 1 like any other config error.

    argparse takes an argument that starts with ``-`` for a value only if it
    looks like a negative number, and by its own pattern ``-1e-3`` does not;
    here any decimal float literal does, so ``--start -1e-3`` parses as
    ``--start=-1e-3``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

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

    rep = sub.add_parser("replay", help="re-run reconstructions from a report's observations")
    rep.add_argument("--report", metavar="FILE", help="report JSON produced by run")
    rep.add_argument("--config", metavar="FILE", help="JSON config file; explicit flags win")

    for name, command in sub.choices.items():  # parsed alone, a command still names itself
        command.set_defaults(command=name)
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


def _subparsers(parser) -> dict:
    """Each command's parser, by command name."""
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices


def _parse_args(parser, argv):
    """``parser.parse_args(argv)``, in one pass where ``argv`` starts with a command:
    the rest goes straight to that command's parser.  Where it leaves an
    argument unrecognised, ``parser`` parses the whole line again, so that the
    error text is the top-level one.  No arguments, ``-h`` and an unknown
    command are the top-level parser's.
    """
    command = _subparsers(parser).get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            return args
    return parser.parse_args(argv)


def _merge_config(parser, args) -> dict:
    """Fold the optional config file under the explicit flags."""
    ns = dict(vars(args))
    path = ns.get("config")
    if path:
        loaded = read_json_object(path, "config file")
        actions = {a.dest: a for a in _subparsers(parser)[args.command]._actions}
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


def _seed_child(seed: int, index: int):
    """Child ``index`` of ``SeedSequence(seed)``, the same sequence as its
    ``spawn(3)[index]``, built alone where it is drawn: child 0 feeds the
    random generator, children 1 and 2 the one generator that the finite-shot
    bench call of scheme 1 or 2 draws all its noise from.  A run that draws
    nothing never imports ``numpy.random``."""
    return np.random.SeedSequence(seed, spawn_key=(index,))


def _resolve_state(cfg, seed: int) -> tuple[QuadCovariance, dict]:
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
            if generator == "random":
                g = random_state(_seed_child(seed, 0))
            else:
                g = makers[generator](**params)
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
    x = float(x)
    return None if math.isnan(x) else x


def _invariants_dict(inv: InvariantSet) -> dict:
    return {"j1": float(inv.j1), "j2": float(inv.j2), "j3": float(inv.j3), "j4": _optional(inv.j4)}


def _entanglement_dict(rep: EntanglementReport) -> dict:
    out = {key: _optional(getattr(rep, key)) for key in _MEASURES}
    return {**out, "separable": None if rep.separable is None else bool(rep.separable)}


def _observation_dict(obs) -> dict:
    out = {
        "theta": float(obs.setting.theta),
        "phi": float(obs.setting.phi),
        "n_prime": float(obs.n_prime),
        "j_prime": float(obs.j_prime),
        "purity": _optional(obs.purity),
    }
    if obs.n_stderr is not None:
        out["n_stderr"] = float(obs.n_stderr)
    if obs.j_stderr is not None:
        out["j_stderr"] = float(obs.j_stderr)
    return out


def _observations(items) -> tuple[Mode1Observation, ...]:
    """The observations that ``_observation_dict`` wrote, read back.

    ``theta``, ``phi``, ``n_prime`` and ``j_prime`` must be finite JSON
    numbers, each stderr absent, null or one that is not negative, and the
    setting within :class:`BenchSetting`'s range.  ``purity`` (and an older report's
    ``wigner0``) is not read: the bench's formula derives it again from
    ``j_prime``.  The bench's :func:`~gaussbench.bench.transcript` builds
    them, so one state's readings are numpy scalars here too.
    """
    settings, readings, stderrs = [], [], []
    for item in items:
        errors = [item.get("n_stderr"), item.get("j_stderr")]
        numbers = [item["theta"], item["phi"], item["n_prime"], item["j_prime"]]
        checked = numbers + [e for e in errors if e is not None]
        if not all(map(is_json_number, checked)):
            raise TypeError(f"observation numbers must be JSON numbers, got {checked!r}")
        if not all(map(math.isfinite, checked)):
            raise ValueError(f"observation numbers must be finite, got {checked!r}")
        if any(e is not None and e < 0 for e in errors):
            raise ValueError(f"observation standard errors must not be negative, got {errors!r}")
        settings.append(BenchSetting(*numbers[:2]))
        readings.append(numbers[2:])
        stderrs.append([None if e is None else float(e) for e in errors])
    n, j = np.array(readings, dtype=float).reshape(-1, 2).T
    return transcript(settings, n, j, *zip(*stderrs))


def _deltas_dict(scheme_inv: InvariantSet, oracle_inv: InvariantSet) -> dict:
    out = {}
    for name in J_KEYS:
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
    """A scheme section: the observations, scheme 1's special form and what
    they determine, ``deltas`` taken from the given oracle invariants."""
    section = {
        "invariants": _invariants_dict(result.invariants),
        "stderr": _stderr_dict(result.invariant_stderr),
        "deltas": _deltas_dict(result.invariants, oracle_inv),
        "entanglement": _entanglement_dict(result.entanglement),
        "observations": [_observation_dict(obs) for obs in result.observations],
    }
    if result.scheme == "scheme1":
        section["special_form"] = result.special_form
    else:
        section["cross_block"] = {
            "ms_real": _optional(result.ms_real),
            "ms_imag": _optional(result.ms_imag),
            "mc_magnitude": _optional(result.mc_magnitude),
        }
    return section


def _evaluate(cfg, scheme_choice: str) -> SimpleNamespace:
    """Input, oracle and the chosen schemes for one state, or elementwise for a grid."""
    seed = _seed(cfg)
    g, source = _resolve_state(cfg, seed)
    det = _resolve_detector(cfg)
    phys = validate_physical(g)
    unphysical = np.logical_not(phys.physical)
    if any_point(unphysical):
        if not first_where(unphysical, phys.positive_definite):
            raise GaussBenchError("state is unphysical: covariance matrix is not positive definite")
        raise GaussBenchError(
            "state is unphysical: symplectic eigenvalues "
            f"nu_minus={first_where(unphysical, phys.nu_minus):.12g}, "
            f"nu_plus={first_where(unphysical, phys.nu_plus):.12g}"
        )
    try:
        v = quad_to_mode(g)
    except ValueError as exc:  # det V of a physical state can overflow
        raise OverflowError(str(exc)) from exc
    oracle_inv = invariants_quad(g)
    res1 = res2 = None
    # An exact plan never reads its seed.
    finite = det.shots is not None
    if scheme_choice in ("scheme1", "both"):
        res1 = scheme1(v, det, seed=_seed_child(seed, 1) if finite else None)
    if scheme_choice in ("scheme2", "both"):
        res2 = scheme2(v, det, seed=_seed_child(seed, 2) if finite else None)
    return SimpleNamespace(
        seed=seed, state=g, source=source, detector=det, physicality=phys,
        oracle=oracle_inv, scheme1=res1, scheme2=res2,
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
            "entanglement": _entanglement_dict(entanglement_report(ev.oracle)),
        },
    }
    for name in ("scheme1", "scheme2"):
        result = getattr(ev, name)
        report[name] = None if result is None else _scheme_section(result, ev.oracle)
    return report


def _csv_table(param, ev: SimpleNamespace) -> list[str]:
    """The CSV lines of an evaluation: the scheme columns and measures of the
    scheme it ran (scheme 2 where both ran), or the oracle's measures."""
    scheme = ev.scheme2 if ev.scheme2 is not None else ev.scheme1
    if scheme is None:
        return _csv_lines(param, ev.oracle, None, entanglement_report(ev.oracle))
    return _csv_lines(param, ev.oracle, scheme.invariants, scheme.entanglement)


def _csv_lines(param, oracle_inv, scheme_inv, measures) -> list[str]:
    """The header, then one line of ``_CSV_COLUMNS`` cells per value of ``param``.

    The cells are ``param``, the oracle's and the scheme's J1..J4 (empty
    where ``scheme_inv`` is None) and the entanglement ``measures``.  A cell
    is the shortest round-trip text of its float (``repr``), or empty where
    the value is undefined; neither ever needs CSV quoting.  Each distinct
    cell is formatted once.
    """
    columns = [param, *(getattr(oracle_inv, key) for key in J_KEYS)]
    columns += [None if scheme_inv is None else getattr(scheme_inv, key) for key in J_KEYS]
    columns += [getattr(measures, key) for key in _MEASURES]
    table = np.empty((np.size(param), len(columns)))
    for i, column in enumerate(columns):
        # None becomes NaN here, and NaN renders as an empty (null) cell.
        table[:, i] = math.nan if column is None else column
    # Keyed on bits, not values: a value key would give 0.0 and -0.0 one text.
    bits, index = np.unique(table.view(np.uint64), return_inverse=True)
    cells = np.array(["" if x != x else repr(x) for x in bits.view(float).tolist()], dtype=object)
    rows = cells[index].reshape(-1, len(columns)).tolist()
    return [",".join(_CSV_COLUMNS)] + [",".join(row) for row in rows]


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
        text = "\n".join(_csv_table(cfg.get("r"), ev)) + "\n"
    else:
        text = render_json(_build_report(ev))
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
    # The table has one scheme's columns, scheme 2's for ``both``: scheme 1 is not run.
    scheme_choice = "scheme2" if cfg.get("scheme") in (None, "both") else cfg["scheme"]

    if cfg.get(param) is not None:
        raise ConfigError(f"the {param} grid replaces --{param}")
    if param == "r":
        if cfg.get("state") is not None:
            raise ConfigError("an r sweep generates its states; --state does not apply")
        if cfg.get("generator") not in (None, "tmsv", "tmst"):
            raise ConfigError("an r sweep needs the tmsv or tmst generator")
        cfg = {**cfg, "generator": cfg.get("generator") or "tmsv"}

    # The whole grid is one batch through the same code as ``run``.
    lines = _csv_table(grid, _evaluate({**cfg, param: grid}, scheme_choice))

    fmt = cfg.get("format") or "csv"
    if fmt == "json":
        rows = [line.split(",") for line in lines[1:]]
        text = render_json({"param": param, "columns": _CSV_COLUMNS, "rows": rows})
    else:
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.get("out"))
    return 0


def _cmd_validate(cfg) -> int:
    if cfg.get("seed") is not None and cfg.get("generator") != "random":
        raise ConfigError("--seed applies only to the random generator")
    g, source = _resolve_state(cfg, _seed(cfg))
    phys = validate_physical(g)
    payload = {
        "state": source,
        "physical": bool(phys.physical),
        "nu_minus": _optional(phys.nu_minus),
        "nu_plus": _optional(phys.nu_plus),
        "positive_definite": bool(phys.positive_definite),
        "symmetric": True,
        "slack": PHYSICALITY_SLACK,
    }
    _emit(render_json(payload), cfg.get("out"))
    return 0 if phys.physical else 2


def _oracle_invariants(report) -> InvariantSet:
    """The oracle's J1..J4 as a report records them; a null J4 is NaN."""
    stored = report["oracle"]["invariants"]
    values = [math.nan if stored[key] is None else stored[key] for key in J_KEYS]
    if not all(map(is_json_number, values)):
        raise TypeError(f"oracle invariants must be JSON numbers, got {values!r}")
    return InvariantSet(*values)


#: A key that one side of a replay comparison lacks.
_ABSENT = object()


def _first_difference(rendered, stored):
    """``(path, rendered, stored)`` at the first value where ``stored``
    differs from ``rendered``, objects walked by key and lists by index, or
    None.  Values compare by ``==``: 1 and 1.0 agree, and so do 0.0 and -0.0,
    but a bool never equals a number."""
    if type(rendered) is type(stored) and not isinstance(rendered, (dict, list)):
        return None if rendered == stored else ("", rendered, stored)  # the common case
    lists = isinstance(rendered, list) and isinstance(stored, list)
    if lists or isinstance(rendered, dict) and isinstance(stored, dict):
        if lists:
            rendered, stored = dict(enumerate(rendered)), dict(enumerate(stored))
        for key in {**rendered, **stored}:
            found = _first_difference(rendered.get(key, _ABSENT), stored.get(key, _ABSENT))
            if found is not None:
                return (f"[{key}]" if lists else f".{key}") + found[0], *found[1:]
        return None
    same = rendered == stored and isinstance(rendered, bool) == isinstance(stored, bool)
    return None if same else ("", rendered, stored)


def _with_legacy_copies(rendered: dict, stored: dict) -> dict:
    """``rendered`` with the copies that ``stored`` holds if ``run`` wrote it
    before J1..J4, the purity and a null J4 were their numbers' only form,
    rendered as then: I1..I4 = 4 J1, 4 J2, 4 J3, 16 J4, W(0) = purity/pi,
    and ``status``, "full" where J4 is a number and "lower-bound-only" where
    it is null."""
    inv, old = rendered["invariants"], stored.get("invariants")
    if isinstance(old, dict) and "i1" in old:  # any other I it lacks or holds alone differs
        i4 = None if inv["j4"] is None else 16.0 * inv["j4"]
        inv.update(i1=4.0 * inv["j1"], i2=4.0 * inv["j2"], i3=4.0 * inv["j3"], i4=i4)
    if "status" in stored:
        rendered["status"] = "lower-bound-only" if inv["j4"] is None else "full"
    for obs, old in zip(rendered["observations"], stored["observations"]):
        if "wigner0" in old:
            obs["wigner0"] = None if obs["purity"] is None else obs["purity"] / math.pi
    return rendered


#: The keys of an older report's scheme sections that replay takes as they
#: are: each section's per-reading ``transcript`` list, and scheme 2's
#: ``standard_form_residuals`` and null ``special_form``.
_LEGACY_SECTION_KEYS = {
    "scheme1": {"transcript"},
    "scheme2": {"transcript", "standard_form_residuals", "special_form"},
}


def _cmd_replay(cfg) -> int:
    """Render each scheme section again from its transcript and compare.

    Every key of the rendered and the stored section is compared, so a key
    that no run writes is a mismatch (exit 2).  The keys that an older
    report holds (``_LEGACY_SECTION_KEYS``) are accepted unchecked: the
    residuals of scheme 2's preparation come from the exact input, not
    from the transcript, so no transcript determines them.
    """
    path = cfg.get("report")
    if not path:
        raise ConfigError("replay needs --report")
    report = read_json_object(path, "report")
    sections = {name: report.get(name) for name in ("scheme1", "scheme2")}
    sections = {name: section for name, section in sections.items() if section is not None}
    if not sections:
        raise ConfigError("report contains no scheme sections to replay")
    try:
        oracle = _oracle_invariants(report)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"report section oracle is malformed: {exc!r}") from exc

    for name, section in sections.items():
        try:
            observations = _observations(section["observations"])
            special_form = section.get("special_form")
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"report section {name} is malformed: {exc!r}") from exc
        # Only scheme 1 records a special form; scheme 2 measures J4 instead.
        forms = (None, "diagonal", "antidiagonal") if name == "scheme1" else (None,)
        if special_form not in forms:
            raise ConfigError(f"report section {name} has a malformed special_form")
        # The section as ``run`` renders it, or rendered then for an older report.
        result = reconstruct_from_transcript(observations, name, special_form)
        rendered = _with_legacy_copies(_scheme_section(result, oracle), section)
        for key in {**rendered, **section}:  # in order, rendered keys first
            if key in _LEGACY_SECTION_KEYS[name]:
                continue
            found = _first_difference(rendered.get(key, _ABSENT), section.get(key, _ABSENT))
            if found is not None:
                path, *values = found
                want, got = ("absent" if x is _ABSENT else json.dumps(x) for x in values)
                raise GaussBenchError(
                    f"replay of {name} does not reproduce its {key}: {key}{path} is {want} "
                    f"from the transcript, {got} in the report"
                )
    sys.stdout.write(
        f"replayed {len(sections)} transcript(s): every field they determine matches by value\n"
    )
    return 0


#: The parser ``main`` uses, built on the first call and then shared by every
#: call in the process.  Nothing may write into it: ``_merge_config`` reads it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = _parse_args(parser, sys.argv[1:] if argv is None else list(argv))
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
