"""First-order error propagation: the helper and every reported error bar.

Each reported invariant stderr must equal the first-order propagation of the
reconstruction itself, found here by brute force: move one transcript record
at a time and replay the transcript through ``reconstruct_from_transcript``.
"""

import math

import numpy as np
import pytest

from gaussbench import (
    DetectorModel,
    TranscriptRecord,
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
    got = propagate(lambda a, b, c: 3.0 * a - 2.0 * b + 0.5 * c, x, e)
    want = np.sqrt((3.0 * e[0]) ** 2 + (2.0 * e[1]) ** 2 + (0.5 * e[2]) ** 2)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_quadratic_functions_are_exact():
    rng = np.random.default_rng(2)
    x, e = rng.normal(size=(2, 7)), rng.uniform(0.1, 2.0, size=(2, 7))
    got = propagate(lambda a, b: a * a + a * b - 3.0 * b * b, x, e)
    da, db = 2.0 * x[0] + x[1], x[0] - 6.0 * x[1]
    np.testing.assert_allclose(got, np.hypot(da * e[0], db * e[1]), rtol=1e-12)


def test_quartic_stays_within_the_truncation_bound():
    # [(x + h)^4 - (x - h)^4] / 2h = 4 x^3 + 4 x h^2 with h = step * e.
    rng = np.random.default_rng(3)
    x, e = rng.uniform(0.5, 2.0, size=9), rng.uniform(0.01, 0.5, size=9)
    got = propagate(lambda a: a**4, [x], [e])
    exact = 4.0 * x**3 * e
    bound = 4.0 * x * (PROPAGATION_STEP * e) ** 2 * e
    assert np.all(got > exact)
    assert np.all(got - exact <= 1.01 * bound + 1e-12 * exact)


def test_zero_errors_give_zero():
    got = propagate(lambda a, b: (a * b, a**3 - b), [1.5, -0.3], [0.0, 0.0])
    assert got == (0.0, 0.0)


def test_batches_match_single_points_and_outputs_keep_their_order():
    rng = np.random.default_rng(4)
    x, e = rng.normal(size=(3, 4)), rng.uniform(0.1, 1.0, size=(3, 4))

    def f(a, b, c):
        return a * b - c, np.sin(a) * c**2

    batch = propagate(f, x, e)
    assert isinstance(batch, tuple) and all(out.shape == (4,) for out in batch)
    for i in range(4):
        single = propagate(f, x[:, i], e[:, i])
        assert all(isinstance(out, float) for out in single)
        np.testing.assert_allclose([out[i] for out in batch], single, rtol=1e-12)


def brute_force_stderr(records, scheme, special_form, rel_step):
    """First-order propagation through the replay, one record moved at a time."""
    squares = {}
    for i, rec in enumerate(records):
        if not rec.stderr:
            continue
        replays = []
        for sign in (1.0, -1.0):
            moved = list(records)
            moved[i] = TranscriptRecord(
                rec.theta, rec.phi, rec.observable, rec.value + sign * rel_step * rec.stderr
            )
            inv, _ = reconstruct_from_transcript(moved, scheme, special_form)
            replays.append(inv)
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
    want = brute_force_stderr(result.transcript, result.scheme, result.special_form, 1e-3)
    got = result.invariant_stderr
    assert set(got) == set(want) == {"j1", "j2", "j3", "j4"}
    assert math.isnan(got["j4"]) == (result.scheme == "scheme1" and result.special_form is None)
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=1e-6, nan_ok=True), key


def _records(plan_values, stderr):
    return [TranscriptRecord(t, p, o, v, stderr) for t, p, o, v in plan_values]


def _scheme2_transcript(j45, stderr=1e-3):
    q = math.pi / 4
    return _records(
        [
            (0.0, 0.0, "N", 0.8),
            (math.pi / 2, 0.0, "N", 0.6),
            (q, 0.0, "N", 0.6),
            (q, 0.0, "J", j45),
            (q, math.pi / 2, "N", 0.65),
        ],
        stderr,
    )


@pytest.mark.parametrize("mc_sq", [1e-6, -1e-10], ids=["just-positive", "clamped"])
def test_scheme2_stderr_keeps_the_clamp_branch_of_the_measured_point(mc_sq):
    # The stencil moves N45 by about 1.2e-5 in |m~c|^2: both points sit
    # inside it, so each moved copy must keep the measured point's branch.
    records = _scheme2_transcript(0.36 - mc_sq)
    _, got = reconstruct_from_transcript(records, "scheme2")
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
    records = _records([(t, p, "J", v) for (t, p), v in zip(settings, j)], e)
    records += _records([(t, p, "N", 0.5) for t, p in settings[:3] + settings[4:5]], e)
    inv, got = reconstruct_from_transcript(records, "scheme1", "diagonal")
    assert inv.j3 == pytest.approx(1e-6, rel=1e-6)
    want = brute_force_stderr(records, "scheme1", "diagonal", 1e-6)
    assert got["j4"] == pytest.approx(want["j4"], rel=1e-5)
    # On the measured branch, dJ4 = 2 sqrt(J1 J2) dJ3 up to terms in |J3|.
    assert got["j4"] == pytest.approx(2.0 * 0.25 * got["j3"], rel=1e-3)
