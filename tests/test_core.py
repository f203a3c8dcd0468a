"""The closed-form, elementwise moment core against the 4x4 matrix oracle.

The package converts between the quadrature and mode pictures and the bench
computes output-port moments in closed form, evaluating a whole batch of
states per call.  These tests hold it to the matrix route kept in
``matrix_oracle`` and check that a batch gives, point by point, what single
states give.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import gaussbench as gb
from gaussbench.bench import HOMODYNE_ANGLES, homodyne_variance, lossy_moments
from matrix_oracle import (
    homodyne_variances,
    mode_to_quad_by_matrix,
    observe_exact,
    quad_to_mode_by_matrix,
    standard_form_by_matrix,
)

REL_TOL = 1e-12

COMBOS = (
    ("pure", "symmetric"),
    ("pure", "general"),
    ("mixed", "symmetric"),
    ("mixed", "general"),
)


MODE_FIELDS = ("n1", "n2", "m1", "m2", "ms", "mc")


def quad_states(count, seed_offset):
    for i in range(count):
        purity, symmetry = COMBOS[i % 4]
        yield gb.random_state(seed_offset + i, purity, symmetry)


def states(count, seed_offset):
    return map(gb.quad_to_mode, quad_states(count, seed_offset))


def stack(modes):
    """One batched ModeCovariance holding the given single states."""
    return gb.ModeCovariance(
        **{name: np.array([getattr(v, name) for v in modes]) for name in MODE_FIELDS}
    )


def random_settings(rng, count):
    for _ in range(count):
        theta = rng.uniform(0.0, math.pi / 2)
        phi = rng.uniform(-math.pi, math.pi)
        yield gb.BenchSetting(theta, phi)


def assert_rel(got, want, tol=REL_TOL):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    np.testing.assert_array_less(np.abs(got - want), tol * np.abs(want) + 1e-300)


def test_closed_form_conversions_match_matrix_oracle():
    for g in quad_states(1000, seed_offset=60000):
        v, want = gb.quad_to_mode(g), quad_to_mode_by_matrix(g)
        scale = max(v.n1, v.n2)
        for name in MODE_FIELDS:
            assert abs(getattr(v, name) - getattr(want, name)) <= 1e-14 * scale, name
        got, want = gb.mode_to_quad(v).entries, mode_to_quad_by_matrix(v).entries
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_batch_conversions_equal_single_states():
    singles = list(quad_states(50, seed_offset=60500))
    batch = gb.quad_to_mode(gb.QuadCovariance(np.stack([g.entries for g in singles])))
    modes = [gb.quad_to_mode(g) for g in singles]
    for name in MODE_FIELDS:
        np.testing.assert_array_equal(getattr(batch, name), [getattr(v, name) for v in modes])
    np.testing.assert_array_equal(
        gb.mode_to_quad(batch).entries, np.stack([gb.mode_to_quad(v).entries for v in modes])
    )


@pytest.mark.parametrize("kind", ["ideal", "lossy-homodyne", "lossy-photocount"])
def test_closed_form_observation_matches_matrix_oracle(kind):
    rng = np.random.default_rng(20260417)
    for v in states(200, seed_offset=61000):
        eta = 1.0 if kind == "ideal" else float(rng.uniform(0.3, 1.0))
        det = gb.DetectorModel(kind=kind, eta=eta)
        for setting in random_settings(rng, 7):
            obs = gb.observe_mode1(v, setting, det)
            n_want, j_want = observe_exact(v, setting)
            assert_rel(obs.n_prime, n_want)
            assert_rel(obs.j_prime, j_want)


def test_closed_form_homodyne_variances_match_matrix_oracle():
    rng = np.random.default_rng(7)
    for v in states(200, seed_offset=62000):
        eta = float(rng.uniform(0.3, 1.0))
        for setting in random_settings(rng, 7):
            n, m = lossy_moments(*gb.output_mode1_moments(v, setting), eta)
            got = [homodyne_variance(n, m, angle) for angle in HOMODYNE_ANGLES]
            assert_rel(got, homodyne_variances(v, setting, eta))


def test_closed_form_standard_form_matches_matrix_conjugation():
    for v in states(100, seed_offset=63000):
        prep = gb.standard_form_prep(v)
        want = standard_form_by_matrix(v, prep.s1, prep.s2)
        scale = max(v.n1, v.n2)
        for name in ("n1", "n2", "m1", "m2", "ms", "mc"):
            assert abs(getattr(prep.vt, name) - getattr(want, name)) <= 1e-12 * scale


@pytest.mark.parametrize(
    "det",
    [
        gb.DetectorModel(),
        gb.DetectorModel(kind="lossy-homodyne", eta=0.7),
        gb.DetectorModel(kind="lossy-photocount", eta=0.9),
        gb.DetectorModel(kind="lossy-homodyne", eta=0.8, shots=3000),
        gb.DetectorModel(kind="lossy-photocount", eta=1.0, shots=3000),
    ],
    ids=["ideal", "homodyne", "photocount", "homodyne-shots", "photocount-shots"],
)
def test_batch_observation_equals_single_states(det):
    # A finite-shot call fills its batch's draws in order from one generator
    # seeded with the call's seed, so point i is the single-state call on a
    # generator that has first drawn points 0..i-1's values.
    modes = list(states(12, seed_offset=64000))
    batch = stack(modes)
    setting = gb.BenchSetting(0.6, -1.1)
    got = gb.observe_mode1(batch, setting, det, seed=np.random.SeedSequence(99))
    for i, v in enumerate(modes):
        rng = np.random.default_rng(np.random.SeedSequence(99))
        if det.kind == "lossy-homodyne" and det.shots is not None:
            rng.standard_gamma((det.shots - 1) / 2.0, size=3 * i)
        elif det.shots is not None:
            rng.standard_normal(2 * i)
        want = gb.observe_mode1(v, setting, det, seed=rng)
        for name in ("n_prime", "j_prime", "purity", "n_stderr", "j_stderr"):
            if getattr(want, name) is None:
                assert getattr(got, name) is None
            else:
                assert_rel(getattr(got, name)[i], getattr(want, name))


@pytest.mark.parametrize("kind", ["lossy-homodyne", "lossy-photocount"])
def test_finite_shot_batch_builds_one_generator(kind, monkeypatch):
    batch = stack(list(states(12, seed_offset=64000)))
    det = gb.DetectorModel(kind=kind, eta=0.8, shots=3000)
    built = []
    default_rng = np.random.default_rng

    def counting_rng(seed):
        built.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    gb.observe_mode1(batch, gb.BenchSetting(0.6, -1.1), det, seed=np.random.SeedSequence(99))
    assert len(built) == 1


def test_ideal_is_exact_photocount_at_unit_efficiency():
    # Bit for bit: the ideal readout is the bare closed-form n' and
    # n'^2 - |m'|^2, which is also what exact photocounting at eta = 1 reads.
    batch = stack(list(states(40, seed_offset=66000)))
    photocount = gb.DetectorModel(kind="lossy-photocount", eta=1.0)
    for setting in random_settings(np.random.default_rng(5), 7):
        n, m = gb.output_mode1_moments(batch, setting)
        ideal = gb.observe_mode1(batch, setting)
        exact = gb.observe_mode1(batch, setting, photocount)
        assert np.array_equal(ideal.n_prime, n)
        assert np.array_equal(ideal.j_prime, n * n - (m.real * m.real + m.imag * m.imag))
        for name in ("n_prime", "j_prime", "purity"):
            assert np.array_equal(getattr(ideal, name), getattr(exact, name))
        assert ideal.n_stderr is None and ideal.j_stderr is None


def test_batch_schemes_equal_single_states():
    modes = list(states(16, seed_offset=65000))
    batch = stack(modes)
    r1, r2 = gb.scheme1(batch), gb.scheme2(batch)
    for i, v in enumerate(modes):
        s1, s2 = gb.scheme1(v), gb.scheme2(v)
        for key in ("j1", "j2", "j3"):
            assert_rel(getattr(r1.invariants, key)[i], getattr(s1.invariants, key))
        for key in ("j1", "j2", "j3", "j4"):
            assert_rel(getattr(r2.invariants, key)[i], getattr(s2.invariants, key))
    vt = gb.standard_form_prep(batch).vt
    assert np.all(abs(vt.m1) < 1e-10) and np.all(abs(vt.m2) < 1e-10)


def test_batch_marks_unavailable_measures_with_nan():
    # A generic state has no special form, so scheme 1 cannot give J4 for
    # it; the special-form state beside it in the batch keeps its J4.  One
    # state and a batch point mark the missing J4 alike: NaN.
    generic = gb.quad_to_mode(gb.random_state(101, purity="mixed", symmetry="general"))
    special = gb.quad_to_mode(gb.tmsv_state(0.4))
    batch = gb.scheme1(stack([generic, special]))
    alone = [gb.scheme1(generic), gb.scheme1(special)]
    assert math.isnan(alone[0].invariants.j4) and not math.isnan(alone[1].invariants.j4)
    assert math.isnan(batch.invariants.j4[0])
    assert_rel(batch.invariants.j4[1], alone[1].invariants.j4)
    assert list(batch.special_form) == [alone[0].special_form, alone[1].special_form]
    for name in ("eof", "log_negativity", "simon_lhs_minus_rhs", "nu_tilde_minus"):
        values = getattr(batch.entanglement, name)
        assert math.isnan(values[0]) and math.isnan(getattr(alone[0].entanglement, name))
        assert_rel(values[1], getattr(alone[1].entanglement, name))
    assert list(batch.entanglement.separable) == [None, alone[1].entanglement.separable]

    # No point of this batch has a special form: J4 and the measures that
    # need it are still arrays, NaN at every point.
    other = gb.quad_to_mode(gb.random_state(102, purity="mixed", symmetry="general"))
    generic_only = gb.scheme1(stack([generic, other]))
    for values in (
        generic_only.invariants.j4,
        generic_only.entanglement.eof,
        generic_only.entanglement.log_negativity,
    ):
        assert isinstance(values, np.ndarray) and values.shape == (2,)
        assert np.isnan(values).all()
    assert list(generic_only.entanglement.separable) == [None, None]


def test_one_failing_point_fails_the_batch():
    settings = [(0.0, 0.0), (math.pi / 2, 0.0), (math.pi / 4, 0.0), (math.pi / 4, math.pi / 2)]
    good = [
        gb.Mode1Observation(gb.BenchSetting(*at), 0.5, 0.25, 1.0, 1.0 / math.pi)
        for at in settings
    ]
    gb.reconstruct_scheme2(good)
    # The same transcript with a second point whose |m~c|^2 is -0.25.
    batch = [
        replace(obs, **{f: np.array([getattr(obs, f)] * 2) for f in ("n_prime", "j_prime")})
        for obs in good
    ]
    batch[2] = replace(batch[2], j_prime=np.array([0.25, 0.5]))
    # A noisy reading is no failure: that point's |m~c|^2 stays signed, and
    # only its magnitude, which has no root, is NaN.
    inv, _, aux = gb.reconstruct_scheme2(batch)
    assert list(inv.j3) == [0.0, 0.25]
    assert list(inv.j4) == [0.0, -0.125]
    assert aux["mc_magnitude"][0] == 0.0 and np.isnan(aux["mc_magnitude"][1])
    with pytest.raises(gb.UnphysicalStateError):
        gb.ModeCovariance(n1=np.array([0.6, 0.4]), n2=0.5)
    with pytest.raises(ValueError):
        gb.InvariantSet(j1=np.array([0.3, np.inf]), j2=0.3, j3=0.0)
