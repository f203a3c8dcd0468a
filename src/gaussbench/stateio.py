"""Reading and writing two-mode states as JSON files.

Two formats share one envelope {"format": ..., "entries": ...}:

* "quad": entries is the 4x4 quadrature covariance, row major, 16 reals
  (a nested 4x4 list of reals is also accepted on input).
* "mode": entries is {"n1", "n2", "m1", "m2", "ms", "mc"} where the
  occupations are reals and the four complex moments are [re, im] pairs.

Every JSON file the package writes, a state here or a report in ``cli``,
comes from :func:`render_json`.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ConfigError
from .states import ModeCovariance, QuadCovariance

__all__ = ["load_state", "save_state", "state_to_dict", "state_from_dict"]

_MODE_REAL_KEYS = ("n1", "n2")
_MODE_COMPLEX_KEYS = ("m1", "m2", "ms", "mc")


def is_json_number(x) -> bool:
    """A JSON number: a bool or a string is not one, though Python converts both."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _complex_pair(value, key: str) -> complex:
    if is_json_number(value):
        return complex(float(value), 0.0)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(is_json_number, value)):
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"field {key!r} must be a number or an [re, im] pair")


def state_from_dict(data) -> QuadCovariance | ModeCovariance:
    """Build a state from the JSON envelope, raising ConfigError on junk."""
    if not isinstance(data, dict):
        raise ConfigError("state file must contain a JSON object")
    fmt = data.get("format")
    if fmt not in ("quad", "mode"):
        raise ConfigError(f"unknown state format {fmt!r} (expected 'quad' or 'mode')")
    if "entries" not in data:
        raise ConfigError("state file is missing the 'entries' field")
    entries = data["entries"]

    try:  # float() overflows too, on a JSON integer beyond double range
        if fmt == "quad":
            try:
                arr = np.asarray(entries, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"quad entries are not numeric: {exc}") from exc
            if arr.shape not in ((16,), (4, 4)):
                raise ConfigError(
                    f"quad entries must be 16 reals or a 4x4 array, got shape {arr.shape}"
                )
            cells = entries if arr.ndim == 1 else [x for row in entries for x in row]
            if not all(map(is_json_number, cells)):
                raise ConfigError("quad entries must be JSON numbers, not bools or strings")
            make, kwargs = QuadCovariance, {"entries": arr.reshape(4, 4)}
        else:
            if not isinstance(entries, dict):
                raise ConfigError("mode entries must be an object")
            missing = [k for k in _MODE_REAL_KEYS if k not in entries]
            if missing:
                raise ConfigError(f"mode entries are missing {missing}")
            make, kwargs = ModeCovariance, {}
            for key in _MODE_REAL_KEYS:
                value = entries[key]
                if not is_json_number(value):
                    raise ConfigError(f"field {key!r} must be a real number")
                kwargs[key] = float(value)
            for key in _MODE_COMPLEX_KEYS:
                if key in entries:
                    kwargs[key] = _complex_pair(entries[key], key)
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except ArithmeticError as exc:  # entries so large that the state's own checks overflow
        raise ConfigError(f"state entries overflow double precision ({exc})") from exc


def state_to_dict(state) -> dict:
    """Serialize a state into the JSON envelope (complex as [re, im])."""
    if isinstance(state, QuadCovariance):
        return {
            "format": "quad",
            "entries": [float(x) for x in state.entries.reshape(-1)],
        }
    if isinstance(state, ModeCovariance):
        return {
            "format": "mode",
            "entries": {
                "n1": float(state.n1),
                "n2": float(state.n2),
                "m1": [state.m1.real, state.m1.imag],
                "m2": [state.m2.real, state.m2.imag],
                "ms": [state.ms.real, state.ms.imag],
                "mc": [state.mc.real, state.mc.imag],
            },
        }
    raise TypeError(f"cannot serialize {type(state).__name__} as a state")


def read_json_object(path, what: str) -> dict:
    """Load a JSON file holding an object; ``what`` names it in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also non-UTF-8 bytes, too deep nesting
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must contain a JSON object")
    return data


def load_state(path) -> QuadCovariance | ModeCovariance:
    return state_from_dict(read_json_object(path, "state file"))


def save_state(state, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(state_to_dict(state)))


def render_json(payload) -> str:
    """The text of ``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)``
    plus one trailing newline, written in one pass.

    With an indent, the standard library encodes in pure-Python generators;
    this writer builds each container's text with one join instead.  Objects
    need string keys (the standard library would convert some others), lists
    and tuples both become arrays, floats are written with ``float.__repr__``
    (``np.float64`` too), and strings are ASCII-escaped.  A NaN or infinite
    float raises ``ValueError``: an undefined value must be null, since a NaN
    token is not JSON.  Any other type raises ``TypeError``.
    """
    return _json_text(payload, "\n") + "\n"


def _json_text(o, newline: str) -> str:
    """``o`` as indented JSON; ``newline`` is the line break and indent of its own line."""
    if isinstance(o, float):  # first: most leaves of a report are floats
        if not math.isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return float.__repr__(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = newline + "  "
        items = [
            encode_basestring_ascii(key) + ": " + _json_text(value, inner)
            for key, value in sorted(o.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_json_text(x, inner) for x in o]) + newline + "]"
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
