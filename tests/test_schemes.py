"""End-to-end tests of the two reconstruction protocols."""

import math
import random

import numpy as np
import pytest

from gaussbench import (
    SCHEME1_PLAN,
    SCHEME2_PLAN,
    DetectorModel,
    ReconstructionError,
    TranscriptRecord,
    consistency_check,
    quad_to_mode,
    random_state,
    reconstruct_from_transcript,
    reconstruct_scheme2,
    scheme1,
    scheme2,
    special_form_state,
    thermal_state,
    tmsv_state,
    vacuum_state,
)
from matrix_oracle import invariants_mode

IDEAL = DetectorModel()


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
    assert result.status == "full"  # no cross block at all ties to diagonal
    assert result.entanglement.separable is True


def test_scheme1_tmsv_uses_the_antidiagonal_shortcut():
    v = quad_to_mode(tmsv_state(0.5))
    result = scheme1(v)
    oracle = invariants_mode(v)
    assert result.special_form == "antidiagonal"
    assert result.status == "full"
    assert_invariants_close(result.invariants, oracle, include_j4=True)
    assert result.entanglement.eof == pytest.approx(0.9513895138912782, abs=1e-9)


def test_scheme1_generic_state_reports_lower_bound_only():
    v = quad_to_mode(random_state(101, purity="mixed", symmetry="general"))
    result = scheme1(v)
    assert result.status == "lower-bound-only"
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
    result = scheme1(quad_to_mode(tmsv_state(0.3)))
    kinds = [(rec.observable, rec.theta) for rec in result.transcript]
    assert len(kinds) == 10
    assert sum(1 for k, _ in kinds if k == "J") == 6
    assert sum(1 for k, _ in kinds if k == "N") == 4


def test_scheme2_matches_oracle_on_random_states():
    for g in states(200, seed_offset=4000):
        v = quad_to_mode(g)
        result = scheme2(v)
        assert_invariants_close(result.invariants, invariants_mode(v), include_j4=True)
        assert result.residual_m1 < 1e-10
        assert result.residual_m2 < 1e-10


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


def test_schemes_agree_with_each_other():
    for g in states(50, seed_offset=7000):
        v = quad_to_mode(g)
        report = consistency_check(scheme1(v), scheme2(v))
        assert report.within_tolerance, report


def test_consistency_on_vacuum_is_exact():
    v = quad_to_mode(vacuum_state())
    report = consistency_check(scheme1(v), scheme2(v))
    assert report.delta_j1 == pytest.approx(0.0, abs=1e-15)
    assert report.delta_j2 == pytest.approx(0.0, abs=1e-15)
    assert report.delta_j3 == pytest.approx(0.0, abs=1e-15)
    assert report.within_tolerance


def test_consistency_under_finite_shots():
    # The two protocols measure different settings of the same state, so
    # their disagreement should be limited by the combined shot noise.
    v = quad_to_mode(tmsv_state(0.4))
    det = DetectorModel(kind="lossy-homodyne", eta=1.0, shots=100000)
    s1 = scheme1(v, det, seed=11)
    s2 = scheme2(v, det, seed=12)
    report = consistency_check(s1, s2)  # deltas checked against the shot noise below
    for name, delta in (
        ("j1", report.delta_j1),
        ("j2", report.delta_j2),
        ("j3", report.delta_j3),
    ):
        combined = math.hypot(s1.invariant_stderr[name], s2.invariant_stderr[name])
        assert delta < 3 * combined, name


def test_scheme1_number_combination_is_symmetric_under_arm_swap():
    # The J3 number combination treats the two direct readings N(0,0) and
    # N(pi/2,0) symmetrically, so relabeling the arms must not change J3.
    v = quad_to_mode(random_state(202, purity="mixed", symmetry="general"))
    records = list(scheme1(v).transcript)
    swapped = []
    for rec in records:
        if rec.theta == 0.0:
            swapped.append(TranscriptRecord(math.pi / 2, 0.0, rec.observable, rec.value))
        elif rec.theta == math.pi / 2:
            swapped.append(TranscriptRecord(0.0, 0.0, rec.observable, rec.value))
        else:
            swapped.append(rec)
    inv, _ = reconstruct_from_transcript(records, "scheme1")
    inv_swapped, _ = reconstruct_from_transcript(swapped, "scheme1")
    assert inv_swapped.j3 == pytest.approx(inv.j3, rel=1e-12, abs=1e-15)
    assert inv_swapped.j1 == pytest.approx(inv.j2, rel=1e-12)


def test_transcript_replay_reproduces_invariants_exactly():
    for g in states(25, seed_offset=8000):
        v = quad_to_mode(g)
        r1 = scheme1(v)
        replayed, _ = reconstruct_from_transcript(
            [TranscriptRecord.from_dict(rec.to_dict()) for rec in r1.transcript],
            "scheme1",
            special_form=r1.special_form,
        )
        assert replayed.j1 == r1.invariants.j1
        assert replayed.j2 == r1.invariants.j2
        assert replayed.j3 == r1.invariants.j3
        r2 = scheme2(v)
        replayed2, _ = reconstruct_from_transcript(
            [TranscriptRecord.from_dict(rec.to_dict()) for rec in r2.transcript],
            "scheme2",
        )
        assert replayed2.j1 == r2.invariants.j1
        assert replayed2.j2 == r2.invariants.j2
        assert replayed2.j3 == r2.invariants.j3
        assert replayed2.j4 == r2.invariants.j4


def test_replay_of_noisy_transcript_is_also_exact():
    v = quad_to_mode(tmsv_state(0.5))
    det = DetectorModel(kind="lossy-homodyne", eta=0.9, shots=2000)
    result = scheme2(v, det, seed=5)
    replayed, stderr = reconstruct_from_transcript(
        [TranscriptRecord.from_dict(rec.to_dict()) for rec in result.transcript],
        "scheme2",
    )
    assert replayed.j4 == result.invariants.j4
    assert stderr == result.invariant_stderr


def test_missing_record_raises():
    v = quad_to_mode(tmsv_state(0.5))
    records = [rec for rec in scheme2(v).transcript if rec.phi != math.pi / 2]
    with pytest.raises(ReconstructionError):
        reconstruct_from_transcript(records, "scheme2")


#: The readings each reconstruction looks up, by their plan names.
USED_READINGS = {
    "scheme1": ("J00", "J90", "J45", "J45pi", "J45p", "J45m", "N00", "N90", "N45", "N45p"),
    "scheme2": ("N00", "N90", "N45", "N45p", "J45"),
}
PLANS = {"scheme1": SCHEME1_PLAN, "scheme2": SCHEME2_PLAN}
RUNS = {"scheme1": scheme1, "scheme2": scheme2}


def _is_reading(rec, plan, name):
    (setting,) = [entry.setting for entry in plan if name in entry.readings]
    return rec.observable == name[0] and (rec.theta, rec.phi) == (setting.theta, setting.phi)


@pytest.mark.parametrize("scheme", ["scheme1", "scheme2"])
@pytest.mark.parametrize(
    "det",
    [IDEAL, DetectorModel(kind="lossy-homodyne", eta=0.9, shots=5000)],
    ids=["exact", "finite-shot"],
)
def test_shuffled_transcript_with_extra_records_replays_exactly(scheme, det):
    result = RUNS[scheme](quad_to_mode(tmsv_state(0.4)), det, seed=11)
    records = list(result.transcript)
    random.Random(3).shuffle(records)
    ignored_before = [
        TranscriptRecord(0.3, 0.0, "N", 99.0, 1.0),  # a setting no plan has
        TranscriptRecord(math.pi / 4 + 1e-6, 0.0, "N", 99.0, 1.0),  # beyond the 1e-9 match
        TranscriptRecord(math.pi / 4, math.pi / 2 + 1e-6, "N", 99.0, 1.0),
        TranscriptRecord(math.pi / 4, 0.0, "X", 99.0, 1.0),  # not an observable
    ]
    ignored_after = [TranscriptRecord(0.0, 0.0, "N", 99.0, 1.0)]  # only the first match counts
    records = ignored_before + records + ignored_after
    inv, stderr = reconstruct_from_transcript(records, scheme, result.special_form)
    assert inv == result.invariants
    assert stderr == result.invariant_stderr


@pytest.mark.parametrize(
    "scheme, name", [(scheme, name) for scheme, names in USED_READINGS.items() for name in names]
)
def test_every_reading_a_reconstruction_uses_is_required(scheme, name):
    result = RUNS[scheme](quad_to_mode(random_state(31)))
    records = [rec for rec in result.transcript if not _is_reading(rec, PLANS[scheme], name)]
    assert len(records) == len(result.transcript) - 1
    with pytest.raises(ReconstructionError, match=f"missing {name[0]} at"):
        reconstruct_from_transcript(records, scheme, result.special_form)


@pytest.mark.parametrize("name", ["J00", "J90", "J45p"])
def test_scheme2_does_not_need_its_other_readings(name):
    result = scheme2(quad_to_mode(random_state(31)))
    records = [rec for rec in result.transcript if not _is_reading(rec, SCHEME2_PLAN, name)]
    inv, _ = reconstruct_from_transcript(records, "scheme2")
    assert inv == result.invariants


def test_unknown_scheme_name_rejected():
    with pytest.raises(ValueError):
        reconstruct_from_transcript([], "scheme3")


def test_negative_mc_square_beyond_threshold_fails():
    # Fabricate a transcript where N(pi/4)^2 - J(pi/4) is clearly negative.
    records = [
        TranscriptRecord(0.0, 0.0, "N", 0.5),
        TranscriptRecord(math.pi / 2, 0.0, "N", 0.5),
        TranscriptRecord(math.pi / 4, 0.0, "N", 0.5),
        TranscriptRecord(math.pi / 4, 0.0, "J", 0.5),  # 0.25 - 0.5 < -1e-6
        TranscriptRecord(math.pi / 4, math.pi / 2, "N", 0.5),
    ]
    with pytest.raises(ReconstructionError):
        reconstruct_scheme2(records)


def test_slightly_negative_mc_square_clamps_with_warning():
    eps = 5e-8  # between the silent clamp (1e-9) and the failure cut (1e-6)
    records = [
        TranscriptRecord(0.0, 0.0, "N", 0.5),
        TranscriptRecord(math.pi / 2, 0.0, "N", 0.5),
        TranscriptRecord(math.pi / 4, 0.0, "N", 0.5),
        TranscriptRecord(math.pi / 4, 0.0, "J", 0.25 + eps),
        TranscriptRecord(math.pi / 4, math.pi / 2, "N", 0.5),
    ]
    with pytest.warns(UserWarning):
        inv, _, aux = reconstruct_scheme2(records)
    assert aux["mc_magnitude"] == 0.0
    assert inv.j4 >= 0.0


def test_nonpositive_direct_reading_raises():
    records = [
        TranscriptRecord(0.0, 0.0, "J", -0.1),
        TranscriptRecord(math.pi / 2, 0.0, "J", 0.3),
        TranscriptRecord(math.pi / 4, 0.0, "J", 0.3),
        TranscriptRecord(math.pi / 4, math.pi, "J", 0.3),
        TranscriptRecord(math.pi / 4, math.pi / 2, "J", 0.3),
        TranscriptRecord(math.pi / 4, -math.pi / 2, "J", 0.3),
        TranscriptRecord(0.0, 0.0, "N", 0.6),
        TranscriptRecord(math.pi / 2, 0.0, "N", 0.6),
        TranscriptRecord(math.pi / 4, 0.0, "N", 0.6),
        TranscriptRecord(math.pi / 4, math.pi / 2, "N", 0.6),
    ]
    with pytest.raises(ReconstructionError):
        reconstruct_from_transcript(records, "scheme1")


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
    assert a.transcript == b.transcript


def test_scheme1_eof_lower_bound_attached_for_symmetric_states():
    v = quad_to_mode(random_state(5, purity="pure", symmetry="symmetric"))
    result = scheme1(v)
    assert not math.isnan(result.entanglement.eof_lower_bound)
    assert result.entanglement.eof_lower_bound >= 0.0
