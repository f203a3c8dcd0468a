"""End-to-end tests of the two reconstruction protocols."""

import math
import random
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gaussbench import (
    SCHEME1_PLAN,
    SCHEME2_PLAN,
    BenchSetting,
    DetectorModel,
    InvariantSet,
    Mode1Observation,
    QuadCovariance,
    ReconstructionError,
    entanglement_report,
    quad_to_mode,
    random_state,
    reconstruct_from_transcript,
    reconstruct_scheme2,
    scheme1,
    scheme2,
    special_form_state,
    standard_form_prep,
    thermal_state,
    tmsv_state,
    vacuum_state,
)
from gaussbench.cli import _observation_dict, _observations
from matrix_oracle import invariants_mode

IDEAL = DetectorModel()


def observation(theta, phi, n, j, stderr=None):
    """A transcript entry with the given readings; no reconstruction reads its purity."""
    return Mode1Observation(BenchSetting(theta, phi), n, j, math.nan, stderr, stderr)


def through_a_report(observations):
    """The observations as a report writes them and replay reads them back."""
    return _observations([_observation_dict(obs) for obs in observations])


def states(count, seed_offset=0):
    combos = [
        ("pure", "symmetric"),
        ("mixed", "general"),
        ("mixed", "symmetric"),
        ("pure", "general"),
    ]
    for i in range(count):
        purity, symmetry = combos[i % 4]
        yield random_state(seed_offset + i, purity=purity, symmetry=symmetry)


def assert_invariants_close(got, want, include_j4, rtol=1e-9, atol=1e-12):
    np.testing.assert_allclose(got.j1, want.j1, rtol=rtol, atol=atol)
    np.testing.assert_allclose(got.j2, want.j2, rtol=rtol, atol=atol)
    np.testing.assert_allclose(got.j3, want.j3, rtol=rtol, atol=atol)
    if include_j4:
        np.testing.assert_allclose(got.j4, want.j4, rtol=rtol, atol=atol)


def test_scheme1_vacuum():
    result = scheme1(quad_to_mode(vacuum_state()))
    assert result.invariants.j1 == pytest.approx(0.25, abs=1e-13)
    assert result.invariants.j2 == pytest.approx(0.25, abs=1e-13)
    assert result.invariants.j3 == pytest.approx(0.0, abs=1e-13)
    assert not math.isnan(result.invariants.j4)  # no cross block at all ties to diagonal
    assert result.entanglement.separable is True


def test_scheme1_tmsv_uses_the_antidiagonal_shortcut():
    v = quad_to_mode(tmsv_state(0.5))
    result = scheme1(v)
    oracle = invariants_mode(v)
    assert result.special_form == "antidiagonal"
    assert not math.isnan(result.invariants.j4)
    assert_invariants_close(result.invariants, oracle, include_j4=True)
    assert result.entanglement.eof == pytest.approx(0.9513895138912782, abs=1e-9)


def test_scheme1_generic_state_reports_lower_bound_only():
    v = quad_to_mode(random_state(101, purity="mixed", symmetry="general"))
    result = scheme1(v)
    assert result.special_form is None
    assert math.isnan(result.invariants.j4)
    assert math.isnan(result.entanglement.eof)
    assert math.isnan(result.entanglement.log_negativity)


def test_scheme1_matches_oracle_on_random_states():
    for g in states(200):
        v = quad_to_mode(g)
        result = scheme1(v)
        assert_invariants_close(result.invariants, invariants_mode(v), include_j4=False)


def test_scheme1_transcript_has_ten_records():
    # One observation per setting, from which the reconstruction reads ten
    # readings: J at all six settings, N at four.
    result = scheme1(quad_to_mode(tmsv_state(0.3)))
    assert [obs.setting for obs in result.observations] == [e.setting for e in SCHEME1_PLAN]
    names = [name for entry in SCHEME1_PLAN for name in entry.readings]
    assert sorted(names) == sorted(USED_READINGS["scheme1"])
    kinds = [name[0] for name in names]
    assert len(kinds) == 10
    assert kinds.count("J") == 6
    assert kinds.count("N") == 4


def test_scheme2_matches_oracle_on_random_states():
    for g in states(200, seed_offset=4000):
        v = quad_to_mode(g)
        result = scheme2(v)
        assert_invariants_close(result.invariants, invariants_mode(v), include_j4=True)
        vt = standard_form_prep(v).vt
        assert abs(vt.m1) < 1e-10
        assert abs(vt.m2) < 1e-10


def test_scheme2_recovers_cross_block_pieces():
    # On a beam-split thermal product the standard form keeps ms only.
    v = quad_to_mode(special_form_state(11, form="diagonal"))
    result = scheme2(v)
    assert result.mc_magnitude == pytest.approx(0.0, abs=1e-7)
    assert math.hypot(result.ms_real, result.ms_imag) > 0.01


def test_scheme2_on_thermal_product_is_uncorrelated():
    result = scheme2(quad_to_mode(thermal_state(1.3, 1.9)))
    assert result.invariants.j3 == pytest.approx(0.0, abs=1e-12)
    assert result.invariants.j4 == pytest.approx(0.0, abs=1e-12)
    assert result.entanglement.separable is True


def test_scheme2_vacuum():
    result = scheme2(quad_to_mode(vacuum_state()))
    assert result.invariants.j1 == pytest.approx(0.25, abs=1e-13)
    assert result.invariants.j2 == pytest.approx(0.25, abs=1e-13)
    assert result.invariants.j4 == pytest.approx(0.0, abs=1e-13)
    assert abs(complex(result.ms_real, result.ms_imag)) < 1e-7
    assert result.mc_magnitude < 1e-7


def test_scheme2_tmsv_closed_forms():
    r = 0.5
    result = scheme2(quad_to_mode(tmsv_state(r)))
    c, s = math.cosh(2 * r), math.sinh(2 * r)
    assert result.invariants.j4 == pytest.approx(c * c * s * s / 8, rel=1e-9)
    ch2, sh2 = math.cosh(r) ** 2, math.sinh(r) ** 2
    want_eof = ch2 * math.log2(ch2) - sh2 * math.log2(sh2)
    assert result.entanglement.eof == pytest.approx(want_eof, abs=1e-9)


def _deltas(s1, s2):
    """|scheme 1 - scheme 2| for the invariants both protocols reconstruct."""
    s1, s2 = s1.invariants, s2.invariants
    return {key: abs(getattr(s1, key) - getattr(s2, key)) for key in ("j1", "j2", "j3")}


def test_schemes_agree_with_each_other():
    for g in states(50, seed_offset=7000):
        v = quad_to_mode(g)
        deltas = _deltas(scheme1(v), scheme2(v))
        assert max(deltas.values()) <= 1e-9, deltas


def test_consistency_on_vacuum_is_exact():
    v = quad_to_mode(vacuum_state())
    for key, delta in _deltas(scheme1(v), scheme2(v)).items():
        assert delta == pytest.approx(0.0, abs=1e-15), key


def test_consistency_under_finite_shots():
    # The two protocols measure different settings of the same state, so
    # their disagreement should be limited by the combined shot noise.
    v = quad_to_mode(tmsv_state(0.4))
    det = DetectorModel(kind="lossy-homodyne", eta=1.0, shots=100000)
    s1 = scheme1(v, det, seed=11)
    s2 = scheme2(v, det, seed=12)
    for name, delta in _deltas(s1, s2).items():
        combined = math.hypot(s1.invariant_stderr[name], s2.invariant_stderr[name])
        assert delta < 3 * combined, name


def test_scheme1_number_combination_is_symmetric_under_arm_swap():
    # The J3 number combination treats the two direct readings N(0,0) and
    # N(pi/2,0) symmetrically, so relabeling the arms must not change J3.
    v = quad_to_mode(random_state(202, purity="mixed", symmetry="general"))
    records = list(scheme1(v).observations)
    swapped = []
    for obs in records:
        if obs.setting.theta == 0.0:
            swapped.append(replace(obs, setting=BenchSetting(math.pi / 2, 0.0)))
        elif obs.setting.theta == math.pi / 2:
            swapped.append(replace(obs, setting=BenchSetting(0.0, 0.0)))
        else:
            swapped.append(obs)
    inv = reconstruct_from_transcript(records, "scheme1").invariants
    inv_swapped = reconstruct_from_transcript(swapped, "scheme1").invariants
    assert inv_swapped.j3 == pytest.approx(inv.j3, rel=1e-12, abs=1e-15)
    assert inv_swapped.j1 == pytest.approx(inv.j2, rel=1e-12)


def test_transcript_replay_reproduces_invariants_exactly():
    for g in states(25, seed_offset=8000):
        v = quad_to_mode(g)
        r1 = scheme1(v)
        replayed = reconstruct_from_transcript(
            through_a_report(r1.observations),
            "scheme1",
            special_form=r1.special_form,
        ).invariants
        assert replayed.j1 == r1.invariants.j1
        assert replayed.j2 == r1.invariants.j2
        assert replayed.j3 == r1.invariants.j3
        r2 = scheme2(v)
        replayed2 = reconstruct_from_transcript(
            through_a_report(r2.observations),
            "scheme2",
        ).invariants
        assert replayed2.j1 == r2.invariants.j1
        assert replayed2.j2 == r2.invariants.j2
        assert replayed2.j3 == r2.invariants.j3
        assert replayed2.j4 == r2.invariants.j4


def test_replay_of_noisy_transcript_is_also_exact():
    v = quad_to_mode(tmsv_state(0.5))
    det = DetectorModel(kind="lossy-homodyne", eta=0.9, shots=2000)
    result = scheme2(v, det, seed=5)
    replayed = reconstruct_from_transcript(through_a_report(result.observations), "scheme2")
    assert replayed.invariants.j4 == result.invariants.j4
    assert replayed.invariant_stderr == result.invariant_stderr
    assert replayed.observations == result.observations


def test_missing_record_raises():
    v = quad_to_mode(tmsv_state(0.5))
    records = [obs for obs in scheme2(v).observations if obs.setting.phi != math.pi / 2]
    with pytest.raises(ReconstructionError):
        reconstruct_from_transcript(records, "scheme2")


#: The readings each reconstruction looks up, by their plan names.
USED_READINGS = {
    "scheme1": ("J00", "J90", "J45", "J45pi", "J45p", "J45m", "N00", "N90", "N45", "N45p"),
    "scheme2": ("N00", "N90", "N45", "N45p", "J45"),
}
PLANS = {"scheme1": SCHEME1_PLAN, "scheme2": SCHEME2_PLAN}
RUNS = {"scheme1": scheme1, "scheme2": scheme2}


def _setting(plan, name):
    """The setting whose observation holds the reading ``name`` of ``plan``."""
    (setting,) = [entry.setting for entry in plan if name in entry.readings]
    return setting


@pytest.mark.parametrize("scheme", ["scheme1", "scheme2"])
@pytest.mark.parametrize(
    "det",
    [IDEAL, DetectorModel(kind="lossy-homodyne", eta=0.9, shots=5000)],
    ids=["exact", "finite-shot"],
)
def test_shuffled_transcript_replays_exactly(scheme, det):
    result = RUNS[scheme](quad_to_mode(tmsv_state(0.4)), det, seed=11)
    records = list(result.observations)
    random.Random(3).shuffle(records)
    assert records != list(result.observations)
    replayed = reconstruct_from_transcript(records, scheme, result.special_form)
    assert replayed.invariants == result.invariants
    assert replayed.invariant_stderr == result.invariant_stderr


#: Settings that no plan has: one far off, and two a rounding or a small
#: step away from a plan setting.
OFF_PLAN = {
    "theta-0.3": (0.3, 0.0),
    "theta-pi/4-rounded": (math.pi / 4 + 1e-12, 0.0),
    "phi-pi/2-moved": (math.pi / 4, math.pi / 2 + 1e-6),
}


@pytest.mark.parametrize(
    "scheme, theta, phi",
    [
        *(pytest.param(s, *OFF_PLAN[k], id=f"{s}-{k}") for s in PLANS for k in OFF_PLAN),
        # On scheme 1's plan, not on scheme 2's.
        pytest.param("scheme2", math.pi / 4, math.pi, id="scheme2-theta-pi/4-phi-pi"),
    ],
)
def test_an_observation_off_the_plan_is_rejected(scheme, theta, phi):
    # No run writes an observation at a setting outside its plan, so a
    # transcript holding one is rejected, wherever it stands, and the error
    # names its setting exactly.
    result = RUNS[scheme](quad_to_mode(tmsv_state(0.4)))
    extra = observation(theta, phi, 99.0, 99.0, 1.0)
    at = re.escape(f"observation off its plan at theta={theta!r}, phi={phi!r}")
    for records in ([*result.observations, extra], [extra, *result.observations]):
        with pytest.raises(ReconstructionError, match=at):
            reconstruct_from_transcript(records, scheme, result.special_form)


@pytest.mark.parametrize(
    "scheme, index", [(scheme, i) for scheme, plan in PLANS.items() for i in range(len(plan))]
)
def test_a_plan_setting_observed_twice_is_rejected(scheme, index):
    # Two observations at one plan setting leave its readings ambiguous: the
    # reconstruction raises and names the setting, whichever comes first.
    result = RUNS[scheme](quad_to_mode(random_state(31)))
    setting = PLANS[scheme][index].setting
    twin = observation(setting.theta, setting.phi, 99.0, 99.0)
    at = re.escape(f"two observations at theta={setting.theta!r}, phi={setting.phi!r}")
    for records in ([*result.observations, twin], [twin, *result.observations]):
        with pytest.raises(ReconstructionError, match=at):
            reconstruct_from_transcript(records, scheme, result.special_form)


@pytest.mark.parametrize(
    "scheme, name", [(scheme, name) for scheme, names in USED_READINGS.items() for name in names]
)
def test_every_reading_a_reconstruction_uses_is_required(scheme, name):
    # A reading is there when its setting's observation is: without it the
    # reconstruction raises and names the setting.
    result = RUNS[scheme](quad_to_mode(random_state(31)))
    setting = _setting(PLANS[scheme], name)
    records = [obs for obs in result.observations if obs.setting != setting]
    assert len(records) == len(result.observations) - 1
    at = re.escape(f"no observation at theta={setting.theta!r}, phi={setting.phi!r}") + "$"
    with pytest.raises(ReconstructionError, match=at):
        reconstruct_from_transcript(records, scheme, result.special_form)


@pytest.mark.parametrize("name", ["J00", "J90", "J45p"])
def test_scheme2_does_not_need_its_other_readings(name):
    # Scheme 2 observes J at these settings but never reads it: a junk value
    # and error there leave every reconstructed number bit-identical.
    result = scheme2(quad_to_mode(random_state(31)))
    setting = _setting(SCHEME2_PLAN, name)
    records = [
        replace(obs, j_prime=-99.0, j_stderr=7.0) if obs.setting == setting else obs
        for obs in result.observations
    ]
    assert records != list(result.observations)
    replayed = reconstruct_from_transcript(records, "scheme2")
    assert replayed.invariants == result.invariants
    assert replayed.invariant_stderr == result.invariant_stderr
    assert (replayed.ms_real, replayed.ms_imag, replayed.mc_magnitude) == (
        result.ms_real, result.ms_imag, result.mc_magnitude
    )


def test_unknown_scheme_name_rejected():
    with pytest.raises(ValueError):
        reconstruct_from_transcript([], "scheme3")


@pytest.mark.parametrize("mc_sq", [-0.25, -5e-8], ids=["far-below-zero", "just-below-zero"])
def test_negative_mc_square_is_reported_signed(mc_sq):
    # Standard-form readings with m~s = 0, so J3 = -|m~c|^2 and
    # J4 = 2 n1 n2 |m~c|^2 carry the signed estimate N45^2 - J45 unclamped.
    # Scheme 2 reads J only at (pi/4, 0).
    records = [
        observation(0.0, 0.0, 0.5, 0.25),
        observation(math.pi / 2, 0.0, 0.5, 0.25),
        observation(math.pi / 4, 0.0, 0.5, 0.25 - mc_sq),
        observation(math.pi / 4, math.pi / 2, 0.5, 0.25),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv, _, aux = reconstruct_scheme2(records)
    assert inv.j3 == pytest.approx(-mc_sq, rel=1e-6)
    assert inv.j4 == pytest.approx(0.5 * mc_sq, rel=1e-6)
    assert math.isnan(aux["mc_magnitude"])


@pytest.mark.parametrize("form", [None, "diagonal", "antidiagonal"])
@pytest.mark.parametrize("j1", [-0.1, 0.0], ids=["negative", "zero"])
def test_nonpositive_direct_reading_is_reported_with_nan_j4(j1, form):
    # Scheme 1 reads no N at (pi/4, pi) and (pi/4, -pi/2).
    records = [
        observation(0.0, 0.0, 0.6, j1),
        observation(math.pi / 2, 0.0, 0.6, 0.3),
        observation(math.pi / 4, 0.0, 0.6, 0.3),
        observation(math.pi / 4, math.pi, 0.6, 0.3),
        observation(math.pi / 4, math.pi / 2, 0.6, 0.3),
        observation(math.pi / 4, -math.pi / 2, 0.6, 0.3),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inv = reconstruct_from_transcript(records, "scheme1", form).invariants
    assert (inv.j1, inv.j2) == (j1, 0.3)
    # J3 = (four theta = pi/4 J's - J1 - J2 + 6 N^2 - 2 (2 N)(2 N)) / 4, N = 0.6.
    assert inv.j3 == pytest.approx((1.2 - j1 - 0.3 + 6 * 0.36 - 8 * 0.36) / 4.0)
    assert math.isnan(inv.j4)


@pytest.mark.parametrize(
    "run, eta, shots, seed",
    [(scheme1, 0.5, 100, 63), (scheme2, 0.3, 30, 41)],
    ids=["scheme1", "scheme2"],
)
def test_a_nan_j4_marks_where_j4_is_unknown(run, eta, shots, seed):
    # A weakly squeezed point whose noisy J2 (scheme 1) or n1 (scheme 2) fell
    # below zero next to a strongly squeezed one; both have a special form.
    v = quad_to_mode(tmsv_state(np.array([0.05, 1.0])))
    result = run(v, DetectorModel(kind="lossy-homodyne", eta=eta, shots=shots), seed=seed)
    assert list(np.isnan(result.invariants.j4)) == [True, False]
    assert np.isnan(result.entanglement.log_negativity[0])
    if run is scheme1:
        assert list(result.special_form) == ["antidiagonal", "antidiagonal"]
        assert result.invariants.j2[0] < 0.0
    else:
        assert result.observations[0].n_prime[0] < 0.0
    # Each point's transcript alone gives that point's J4, NaN where the batch's is.
    fields = ("n_prime", "j_prime", "purity", "n_stderr", "j_stderr")
    for i, j4 in enumerate(result.invariants.j4):
        records = [
            replace(obs, **{f: getattr(obs, f)[i] for f in fields}) for obs in result.observations
        ]
        form = result.special_form[i] if run is scheme1 else None
        one = reconstruct_from_transcript(records, result.scheme, form)
        assert np.isnan(one.invariants.j4) == np.isnan(j4)


@pytest.mark.parametrize(
    "state",
    [thermal_state(1.5, 1.2), special_form_state(7, "diagonal")],
    ids=["thermal", "diagonal"],
)
def test_scheme2_pulls_without_a_clamp(state):
    # |m~c| of these states is 0, so its noisy estimate N45^2 - J45 falls
    # below zero in about half the runs; used signed, it keeps the J3 and J4
    # pulls centred and calibrated, and no run raises.
    v = quad_to_mode(state)
    oracle = invariants_mode(v)
    det = DetectorModel(kind="lossy-photocount", eta=0.8, shots=20000)
    pulls = {"j3": [], "j4": []}
    for seed in range(400):
        result = scheme2(v, det, seed=seed)
        for key, values in pulls.items():
            got, want = getattr(result.invariants, key), getattr(oracle, key)
            values.append((got - want) / result.invariant_stderr[key])
    for key, values in pulls.items():
        assert abs(np.mean(values)) <= 0.15, key
        assert 0.9 <= np.std(values) <= 1.2, key


@pytest.mark.parametrize("eta", [0.5, 0.7, 0.9])
def test_loss_corrected_scheme2_equals_ideal(eta):
    for seed in (1, 2, 3):
        v = quad_to_mode(random_state(seed, purity="mixed", symmetry="general"))
        ideal = scheme2(v, IDEAL)
        lossy = scheme2(v, DetectorModel(kind="lossy-homodyne", eta=eta))
        assert_invariants_close(lossy.invariants, ideal.invariants, include_j4=True)


def census_states():
    """The state classes of the benchmark's report population."""
    for seed, (purity, symmetry) in enumerate(
        [("pure", "symmetric"), ("pure", "general"), ("mixed", "symmetric"), ("mixed", "general")]
    ):
        yield random_state(700 + seed, purity=purity, symmetry=symmetry)
    for seed, form in enumerate(["antidiagonal", "diagonal"]):
        yield special_form_state(710 + seed, form=form)


@pytest.mark.parametrize("run", [scheme1, scheme2], ids=["scheme1", "scheme2"])
@pytest.mark.parametrize("eta", [0.5, 0.8])
def test_exact_lossy_photocount_matches_the_oracle(run, eta):
    det = DetectorModel(kind="lossy-photocount", eta=eta)
    for g in census_states():
        v = quad_to_mode(g)
        result = run(v, det)
        include_j4 = run is scheme2 or result.special_form is not None
        assert include_j4 == (not math.isnan(result.invariants.j4))
        assert_invariants_close(result.invariants, invariants_mode(v), include_j4, atol=0.0)


def test_finite_shot_scheme2_reports_errors_and_stays_close():
    v = quad_to_mode(tmsv_state(0.5))
    oracle = invariants_mode(v)
    det = DetectorModel(kind="lossy-homodyne", eta=1.0, shots=200000)
    result = scheme2(v, det, seed=31337)
    se = result.invariant_stderr
    assert set(se) == {"j1", "j2", "j3", "j4"}
    for key in ("j1", "j2", "j3", "j4"):
        got = getattr(result.invariants, key)
        want = getattr(oracle, key)
        assert abs(got - want) < 5 * se[key]


def test_finite_shot_scheme1_reports_errors_and_stays_close():
    v = quad_to_mode(tmsv_state(0.5))
    oracle = invariants_mode(v)
    det = DetectorModel(kind="lossy-photocount", eta=1.0, shots=200000)
    result = scheme1(v, det, seed=424242)
    se = result.invariant_stderr
    assert {"j1", "j2", "j3"} <= set(se)
    for key in ("j1", "j2", "j3"):
        got = getattr(result.invariants, key)
        want = getattr(oracle, key)
        assert abs(got - want) < 5 * se[key]


def test_finite_shot_readings_below_the_vacuum_floor_are_estimates():
    # At 1000 shots, shot noise alone puts a reconstructed principal variance
    # below the vacuum floor in about 1% of runs; such a reading is a noisy
    # estimate, not an unphysical measurement.
    v = quad_to_mode(tmsv_state(0.5))
    det = DetectorModel(kind="lossy-homodyne", eta=1.0, shots=1000)
    j_primes = [
        obs.j_prime for seed in range(500) for obs in scheme2(v, det, seed=seed).observations
    ]
    assert min(j_primes) <= 0.0


def test_same_seed_reproduces_scheme_results():
    v = quad_to_mode(tmsv_state(0.4))
    det = DetectorModel(kind="lossy-homodyne", eta=0.8, shots=1000)
    a = scheme2(v, det, seed=99)
    b = scheme2(v, det, seed=99)
    assert a.invariants.j1 == b.invariants.j1
    assert a.invariants.j4 == b.invariants.j4
    assert a.observations == b.observations


def test_scheme1_eof_lower_bound_attached_for_symmetric_states():
    v = quad_to_mode(random_state(5, purity="pure", symmetry="symmetric"))
    result = scheme1(v)
    assert not math.isnan(result.entanglement.eof_lower_bound)
    assert result.entanglement.eof_lower_bound >= 0.0


@pytest.mark.parametrize(
    "points, stderr",
    [((), 1e197), ((2,), 1e197), ((), None)],
    ids=["one-state", "batch", "one-state-exact"],
)
def test_finite_shot_reconstruction_overflow_obeys_errstate(points, stderr):
    # Readings near 1e200, whose squares overflow.  One state's finite-shot
    # readings are evaluated on the stacked array of ``propagate``, as a
    # batch's are, so they raise under np.errstate; Python floats would raise
    # OverflowError from ``**`` instead.  One state's exact readings are not
    # stacked: they obey np.errstate because the bench, and replay reading a
    # report, hand them over as numpy scalars.
    value = 1e200 if points == () else np.full(points, 1e200)

    def transcript(plan):
        if stderr is None:
            items = [
                {"theta": e.setting.theta, "phi": e.setting.phi, "n_prime": 1e200, "j_prime": 1e200}
                for e in plan
            ]
            return _observations(items)
        return [Mode1Observation(e.setting, value, value, 0.0, stderr, stderr) for e in plan]

    for name, plan, form in (
        ("scheme1", SCHEME1_PLAN, "diagonal"),
        ("scheme2", SCHEME2_PLAN, None),
    ):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            reconstruct_from_transcript(transcript(plan), name, form)


@pytest.mark.parametrize("points", [(), (2,)], ids=["one-state", "batch"])
def test_scheme1_overflow_obeys_errstate(points):
    # J1 J2 of a physical 1e100-vacuum overflows, and so does I1 I2 in the
    # measures of invariants that size.  Python floats, which one state's
    # readings are, overflow to inf on ``*`` without raising.
    v = quad_to_mode(QuadCovariance(np.broadcast_to(1e100 * np.eye(4), (*points, 4, 4))))
    inv = InvariantSet(*(np.full(points, x) for x in (2.5e199, 2.5e199, 0.0, 0.0)))
    for run in (lambda: scheme1(v), lambda: scheme2(v), lambda: entanglement_report(inv)):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            run()
