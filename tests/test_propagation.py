"""First-order error propagation: the helper and every reported error bar.

Each reported invariant stderr must equal the first-order propagation of the
reconstruction itself, found here by brute force: move one reading of the
transcript's observations at a time and replay the transcript through
``reconstruct_from_transcript``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from gaussbench import (
    BenchSetting,
    DetectorModel,
    Mode1Observation,
    quad_to_mode,
    random_state,
    reconstruct_from_transcript,
    scheme1,
    scheme2,
    tmsv_state,
    two_mode_squeezed_thermal,
)
from gaussbench.states import PROPAGATION_STEP, propagate


def test_linear_functions_are_exact():
    rng = np.random.default_rng(1)
    x, e = rng.normal(size=(3, 5)), rng.uniform(0.1, 2.0, size=(3, 5))
    _, got = propagate(lambda a, b, c: 3.0 * a - 2.0 * b + 0.5 * c, x, e)
    want = np.sqrt((3.0 * e[0]) ** 2 + (2.0 * e[1]) ** 2 + (0.5 * e[2]) ** 2)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_quadratic_functions_are_exact():
    rng = np.random.default_rng(2)
    x, e = rng.normal(size=(2, 7)), rng.uniform(0.1, 2.0, size=(2, 7))
    _, got = propagate(lambda a, b: a * a + a * b - 3.0 * b * b, x, e)
    da, db = 2.0 * x[0] + x[1], x[0] - 6.0 * x[1]
    np.testing.assert_allclose(got, np.hypot(da * e[0], db * e[1]), rtol=1e-12)


def test_quartic_stays_within_the_truncation_bound():
    # [(x + h)^4 - (x - h)^4] / 2h = 4 x^3 + 4 x h^2 with h = step * e.
    rng = np.random.default_rng(3)
    x, e = rng.uniform(0.5, 2.0, size=9), rng.uniform(0.01, 0.5, size=9)
    _, got = propagate(lambda a: a**4, [x], [e])
    exact = 4.0 * x**3 * e
    bound = 4.0 * x * (PROPAGATION_STEP * e) ** 2 * e
    assert np.all(got > exact)
    assert np.all(got - exact <= 1.01 * bound + 1e-12 * exact)


def test_zero_errors_give_zero():
    _, got = propagate(lambda a, b: (a * b, a**3 - b), [1.5, -0.3], [0.0, 0.0])
    assert got == (0.0, 0.0)


def test_batches_match_single_points_and_outputs_keep_their_order():
    rng = np.random.default_rng(4)
    x, e = rng.normal(size=(3, 4)), rng.uniform(0.1, 1.0, size=(3, 4))

    def f(a, b, c):
        return a * b - c, np.sin(a) * c**2

    _, batch = propagate(f, x, e)
    assert isinstance(batch, tuple) and all(out.shape == (4,) for out in batch)
    for i in range(4):
        _, single = propagate(f, x[:, i], e[:, i])
        assert all(isinstance(out, float) for out in single)
        np.testing.assert_allclose([out[i] for out in batch], single, rtol=1e-12)
    # Inputs of different shapes broadcast: a scalar error stands for every point.
    _, scalar = propagate(f, x, [e[0], 0.5, e[2]])
    _, full = propagate(f, x, [e[0], np.full(4, 0.5), e[2]])
    assert all(_same_bits(got, want) for got, want in zip(scalar, full))


def _same_bits(got, want):
    return np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


def test_value_is_f_of_the_values_bit_for_bit_and_exact_inputs_stack_nothing():
    # The value comes from the unmoved row of the stacked evaluation: the same
    # bits as a call of f on the values, plain numbers for one state.
    rng = np.random.default_rng(5)
    x, e = rng.normal(size=(3, 6)) * 1e3, rng.uniform(0.1, 2.0, size=(3, 6))

    def f(a, b, c):
        return a * b / c - np.sqrt(abs(a)), (a - b) ** 2 + c**3

    def g(a, b, c):
        return np.sqrt(a * a + b * b) / c

    value, _ = propagate(f, x, e)
    assert isinstance(value, tuple) and len(value) == 2
    assert all(_same_bits(got, want) for got, want in zip(value, f(*x)))
    value, stderr = propagate(g, x, e)
    assert value.shape == stderr.shape == (6,) and _same_bits(value, g(*x))
    for i in range(6):
        one, errors = x[:, i].tolist(), e[:, i].tolist()
        value, _ = propagate(f, one, errors)
        assert all(type(v) is float for v in value)
        assert all(_same_bits(got, want) for got, want in zip(value, f(*one)))
        value, stderr = propagate(g, one, errors)
        assert type(value) is float and type(stderr) is float and _same_bits(value, g(*one))

    # Without errors nothing is stacked: f sees the values as given.
    seen = []

    def h(a, b):
        seen.append((a, b))
        return a * b, a - b

    assert propagate(h, [1.5, -0.25], None) == ((-0.375, 1.75), None)
    assert seen == [(1.5, -0.25)] and all(type(v) is float for v in seen[0])
    assert propagate(lambda a: 2.0 * a, [3.0], None) == (6.0, None)

    # Tuple errors keep the order of the outputs.
    value, stderr = propagate(lambda a, b: (3.0 * a, 5.0 * b, a + b), (1.0, 2.0), (0.5, 0.25))
    assert value == (3.0, 10.0, 3.0)
    assert stderr == pytest.approx((1.5, 1.25, math.hypot(0.5, 0.25)), rel=1e-12)


def brute_force_stderr(records, scheme, special_form, rel_step):
    """First-order propagation through the replay, one reading moved at a time."""
    squares = {}
    for i, obs in enumerate(records):
        for value, error in (("n_prime", "n_stderr"), ("j_prime", "j_stderr")):
            stderr = getattr(obs, error)
            if not stderr:
                continue
            replays = []
            for sign in (1.0, -1.0):
                moved = list(records)
                moved[i] = replace(obs, **{value: getattr(obs, value) + sign * rel_step * stderr})
                replays.append(reconstruct_from_transcript(moved, scheme, special_form).invariants)
            for key in ("j1", "j2", "j3", "j4"):
                up, down = (getattr(inv, key) for inv in replays)
                squares[key] = squares.get(key, 0.0) + ((up - down) / (2.0 * rel_step)) ** 2
    return {key: math.sqrt(total) for key, total in squares.items()}


STATES = {
    "tmsv": tmsv_state(0.5),
    "tmst": two_mode_squeezed_thermal(0.4, 1.2, 1.6),
    "random": random_state(3),
}
DETECTORS = {
    "homodyne": DetectorModel(kind="lossy-homodyne", eta=0.8, shots=5000),
    "photocount": DetectorModel(kind="lossy-photocount", eta=0.9, shots=5000),
}


@pytest.mark.parametrize("run", [scheme1, scheme2], ids=["scheme1", "scheme2"])
@pytest.mark.parametrize("det", DETECTORS.values(), ids=DETECTORS.keys())
@pytest.mark.parametrize("state", STATES.values(), ids=STATES.keys())
def test_reported_stderr_is_the_first_order_propagation_of_the_replay(run, det, state):
    result = run(quad_to_mode(state), det, seed=11)
    want = brute_force_stderr(result.observations, result.scheme, result.special_form, 1e-3)
    got = result.invariant_stderr
    assert set(got) == set(want) == {"j1", "j2", "j3", "j4"}
    assert math.isnan(got["j4"]) == (result.scheme == "scheme1" and result.special_form is None)
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=1e-6, nan_ok=True), key


def _records(plan_values, stderr):
    """Observations of (theta, phi, N, J), every reading with error ``stderr``."""
    return [
        Mode1Observation(BenchSetting(t, p), n, j, math.nan, stderr, stderr)
        for t, p, n, j in plan_values
    ]


def _scheme2_transcript(j45, stderr=1e-3):
    # Scheme 2 reads J only at (pi/4, 0); the other J's are never moved into it.
    q = math.pi / 4
    return _records(
        [
            (0.0, 0.0, 0.8, 0.64),
            (math.pi / 2, 0.0, 0.6, 0.36),
            (q, 0.0, 0.6, j45),
            (q, math.pi / 2, 0.65, 0.4),
        ],
        stderr,
    )


@pytest.mark.parametrize("mc_sq", [1e-6, -1e-10], ids=["just-positive", "negative"])
def test_scheme2_stderr_keeps_the_clamp_branch_of_the_measured_point(mc_sq):
    # The stencil moves N45 by about 1.2e-5 in |m~c|^2: both points sit
    # inside it, and the signed |m~c|^2 takes the same smooth formula on
    # either side of zero, as the replay of each moved copy does.
    records = _scheme2_transcript(0.36 - mc_sq)
    got = reconstruct_from_transcript(records, "scheme2").invariant_stderr
    want = brute_force_stderr(records, "scheme2", None, 1e-8)
    for key in ("j3", "j4"):
        assert got[key] == pytest.approx(want[key], rel=1e-5), key


def test_scheme1_stderr_keeps_the_sign_of_the_measured_j3():
    # Vacuum readings with J3 = 1e-6, well inside the stencil's reach of the
    # kink of |J3| in J4 = 2 |J3| sqrt(J1 J2).
    q, e = math.pi / 4, 1e-3
    j = [0.25, 0.25, 0.25 + 4e-6, 0.25, 0.25, 0.25]
    settings = [
        (0.0, 0.0), (math.pi / 2, 0.0), (q, 0.0), (q, math.pi), (q, math.pi / 2), (q, -math.pi / 2)
    ]
    # Scheme 1 reads no N at (pi/4, pi) and (pi/4, -pi/2).
    records = _records([(t, p, 0.5, v) for (t, p), v in zip(settings, j)], e)
    result = reconstruct_from_transcript(records, "scheme1", "diagonal")
    inv, got = result.invariants, result.invariant_stderr
    assert inv.j3 == pytest.approx(1e-6, rel=1e-6)
    want = brute_force_stderr(records, "scheme1", "diagonal", 1e-6)
    assert got["j4"] == pytest.approx(want["j4"], rel=1e-5)
    # On the measured branch, dJ4 = 2 sqrt(J1 J2) dJ3 up to terms in |J3|.
    assert got["j4"] == pytest.approx(2.0 * 0.25 * got["j3"], rel=1e-3)


def test_scheme1_j4_error_is_nan_where_the_stencil_crosses_j1_j2_zero():
    # J1 = 1e-6 with stderr 1e-3: the moved copies at J1 -+ 1e-5 straddle
    # J1 J2 = 0, where sqrt(J1 J2) has no first-order error.  J4 stays, its
    # error is NaN, and no copy takes the root of a negative number.
    q, e = math.pi / 4, 1e-3
    j = [1e-6, 0.25, 0.25, 0.25, 0.25, 0.25]
    settings = [
        (0.0, 0.0), (math.pi / 2, 0.0), (q, 0.0), (q, math.pi), (q, math.pi / 2), (q, -math.pi / 2)
    ]
    records = _records([(t, p, 0.5, v) for (t, p), v in zip(settings, j)], e)
    result = reconstruct_from_transcript(records, "scheme1", "diagonal")
    inv, got = result.invariants, result.invariant_stderr
    assert math.isfinite(inv.j4) and inv.j4 > 0.0
    assert math.isnan(got["j4"])
    assert all(math.isfinite(got[key]) for key in ("j1", "j2", "j3"))
