"""The JSON writer against its oracle, the standard library's indented encoder.

``render_json(payload)`` must give exactly
``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\\n"``
for every payload the package can write, and refuse what that call refuses.
"""

import json
import math
import random

import numpy as np
import pytest

from gaussbench import cli, generators, quad_to_mode, save_state
from gaussbench.stateio import render_json, state_to_dict


def stdlib(payload):
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


AWKWARD = {
    "floats": [0.0, -0.0, 5e-324, 1e16, 1e22, 1e-5, -1.5e-300, 1.7976931348623157e308],
    "integers": [0, -1, 2**64, 10**20, -(10**20)],
    "bools": {"yes": True, "no": False, "null": None},
    "empties": {"object": {}, "array": [], "nested": {"a": {}, "b": [[]], "c": [{}]}},
    "tuple": (1.5, ("x", ()), [None]),
    "strings": [
        "",
        'say "hi"',
        "back\\slash",
        "tab\tnew\nline\r\x00\x1f\x7f",
        "état/ñ/日本/\U0001f600",
        '/tmp/dir "a"\\b/état\t.json',
    ],
    "numpy": [np.float64(0.1), np.float64(-0.0), np.float64(1e300)],
    "": "empty key",
    " sorted before letters": 1,
    "Zebra": 2,
    "apple": 3,
}


def test_awkward_payload_matches_the_stdlib():
    assert render_json(AWKWARD) == stdlib(AWKWARD)


@pytest.mark.parametrize("payload", [True, False, None, 0.5, -0.0, 7, "x", [], {}, ()])
def test_top_level_scalars_and_empties_match_the_stdlib(payload):
    assert render_json(payload) == stdlib(payload)


def test_a_bool_is_never_a_number():
    assert render_json({"x": True, "y": [False]}) == '{\n  "x": true,\n  "y": [\n    false\n  ]\n}\n'


@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf)],
    ids=["nan", "inf", "-inf", "np-nan", "np-inf"],
)
def test_a_non_finite_float_is_refused(value):
    for payload in (value, [value], {"a": {"b": value}}):
        with pytest.raises(ValueError):
            stdlib(payload)
        with pytest.raises(ValueError):
            render_json(payload)


@pytest.mark.parametrize(
    "payload",
    [{(1, 2): 0.5}, {"a": 1, ("b",): 2}, {1: 0.5}, {None: 0.5}, {True: 0.5}],
    ids=["tuple", "tuple-among-strings", "int", "none", "bool"],
)
def test_a_key_that_is_not_a_string_is_refused(payload):
    # The stdlib refuses the tuple keys too; it would write the scalar keys as
    # strings, which no payload of the package has.
    with pytest.raises(TypeError):
        render_json(payload)


@pytest.mark.parametrize(
    "value",
    [np.int64(3), np.bool_(True), np.array([1.0]), {1.0}, object(), 1j],
    ids=["np-int", "np-bool", "array", "set", "object", "complex"],
)
def test_a_value_the_stdlib_cannot_encode_is_refused(value):
    with pytest.raises(TypeError):
        stdlib({"a": [value]})
    with pytest.raises(TypeError):
        render_json({"a": [value]})


_CHARS = 'ab Z_"\\/\t\n\x01\x7féñ日\U0001f600'


def _leaf(rng):
    kind = rng.randrange(9)
    if kind == 0:
        return rng.uniform(-1e3, 1e3)
    if kind == 1:  # anywhere in the exponent range, subnormals included
        return rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-323, 308)
    if kind == 2:
        return rng.choice((0.0, -0.0, 5e-324, 1e16, 1e22, 1e-5, 0.1, 1.0))
    if kind == 3:
        return rng.choice((0, 1, -7, 2**53 + 1, 2**64, 10**20, -(10**30)))
    if kind == 4:
        return rng.choice((True, False, None))
    if kind == 5:
        return np.float64(rng.gauss(0.0, 1e6))
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(6)))


def _payload(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return _leaf(rng)
    size = rng.randrange(5)
    kind = rng.randrange(3)
    if kind == 0:
        return {
            "".join(rng.choice(_CHARS) for _ in range(rng.randrange(4))): _payload(rng, depth - 1)
            for _ in range(size)
        }
    items = [_payload(rng, depth - 1) for _ in range(size)]
    return items if kind == 1 else tuple(items)


def test_fuzzed_payloads_match_the_stdlib():
    rng = random.Random(20061)
    for _ in range(5000):
        payload = _payload(rng, rng.randrange(1, 5))
        assert render_json(payload) == stdlib(payload)


def test_state_files_are_the_stdlib_text(tmp_path):
    path = tmp_path / "state.json"
    for g in (generators.tmsv_state(0.7), generators.random_state(3)):
        for state in (g, quad_to_mode(g)):
            save_state(state, path)
            assert path.read_text(encoding="utf-8") == stdlib(state_to_dict(state))


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--generator", "random", "--seed", "7", "--detector", "lossy-homodyne",
         "--eta", "0.8", "--shots", "5000"],
        ["run", "--generator", "tmsv", "--r", "0.5", "--scheme", "scheme1"],
        ["sweep", "--param", "r", "--start", "0", "--stop", "2", "--steps", "5",
         "--generator", "tmst", "--nu1", "1.3", "--nu2", "1.1", "--format", "json"],
        ["validate", "--generator", "random", "--seed", "7"],
        # A noisy negative J1, with null measures.
        ["run", "--generator", "random", "--seed", "286", "--detector", "lossy-homodyne",
         "--eta", "0.8", "--shots", "1000"],
        # A spectrum at large squeezing, from the Cholesky factor in closed form.
        ["validate", "--generator", "tmsv", "--r", "4.4"],
    ],
    ids=["run-finite-shots", "run-scheme1", "sweep-json", "validate", "run-seed-286",
         "validate-tmsv-r4.4"],
)
def test_cli_json_outputs_are_the_stdlib_text(tmp_path, argv):
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == stdlib(json.loads(text))
