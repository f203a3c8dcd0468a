"""Unit tests for covariance representations, invariants and standard form."""

import math

import numpy as np
import pytest

from gaussbench import (
    InvariantSet,
    ModeCovariance,
    QuadCovariance,
    UnphysicalStateError,
    invariants_quad,
    mode_to_quad,
    quad_to_mode,
    random_state,
    special_form_state,
    standard_form_prep,
    thermal_state,
    tmsv_state,
    two_mode_squeezed_thermal,
    vacuum_state,
    validate_physical,
)
from gaussbench.entanglement import _det_gamma, _quad_invariants
from gaussbench.generators import conjugate_local, random_local_symplectic
from gaussbench.states import PHYSICALITY_SLACK, cross_block_form
from matrix_oracle import (
    invariants_mode,
    invariants_quad_by_matrix,
    mode_from_matrix,
    mode_matrix,
    physical_by_general_eigensolver,
    symplectic_eigenvalues_general,
    symplectic_eigenvalues_hermitian,
)
from precise_oracle import BUDGETS, precise_oracle, spectrum_errors

N_RANDOM = 500
ROUNDTRIP_ATOL = 1e-12


def tmsv_mode_closed_form(r):
    """Independent closed form for the TMSV mode-operator moments."""
    return {
        "n": math.cosh(2 * r) / 2.0,
        "mc": -math.sinh(2 * r) / 2.0,
    }


def tmsv_invariants_closed_form(r):
    """Independent closed form for the TMSV quadrature invariants I1..I4."""
    c, s = math.cosh(2 * r), math.sinh(2 * r)
    return {"i1": c * c, "i2": c * c, "i3": -s * s, "i4": 2 * c * c * s * s}


def spectrum(g):
    """(nu_minus, nu_plus) as ``validate_physical`` reports them."""
    rep = validate_physical(g)
    return rep.nu_minus, rep.nu_plus


#: Populations that the closed forms are compared on with the matrix routes:
#: 1000 random states of the four classes as one stack, and a TMST grid.
ORACLE_POPULATIONS = pytest.mark.parametrize(
    "population",
    [
        lambda: QuadCovariance(np.stack([g.entries for g in random_population(1000, 5000)])),
        lambda: two_mode_squeezed_thermal(
            *np.meshgrid(np.linspace(0.0, 2.0, 11), [1.0, 1.7, 2.5], [1.0, 1.2, 3.0])
        ),
    ],
    ids=["random", "tmst"],
)

#: Budget of the closed-form invariants against LAPACK determinants and the
#: matrix chain: J1..J3 within 64 eps max(J1, J2), J4 within 64 eps max(J1, J2)^2
#: (measured maxima 8.3e-15 and 1.3e-15 of those scales).
MATRIX_ROUTE_BUDGET = 64 * np.finfo(float).eps


def random_population(count, seed_offset=0):
    """Mixed bag of pure/mixed, symmetric/general states, deterministic."""
    combos = [
        ("pure", "symmetric"),
        ("pure", "general"),
        ("mixed", "symmetric"),
        ("mixed", "general"),
    ]
    for i in range(count):
        purity, symmetry = combos[i % 4]
        yield random_state(seed_offset + i, purity=purity, symmetry=symmetry)


class TestQuadCovariance:
    def test_vacuum_is_identity(self):
        g = vacuum_state()
        assert np.array_equal(g.entries, np.eye(4))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            QuadCovariance(np.eye(3))

    def test_rejects_asymmetric(self):
        m = np.eye(4)
        m[0, 1] = 0.5
        with pytest.raises(ValueError):
            QuadCovariance(m)

    def test_rejects_non_finite(self):
        m = np.eye(4)
        m[2, 2] = np.inf
        with pytest.raises(ValueError):
            QuadCovariance(m)

    def test_asymmetry_near_the_float_limit_is_reported_finite(self):
        # g - g^T would overflow on opposite-sign entries of 1e308.
        m = np.eye(4)
        m[0, 1], m[1, 0] = 1e308, -1e308
        with pytest.raises(ValueError, match=r"max \|g - g\^T\|/2 = 1\.000e\+308"):
            QuadCovariance(m)

    def test_entries_read_only(self):
        g = vacuum_state()
        with pytest.raises(ValueError):
            g.entries[0, 0] = 7.0


class TestModeCovariance:
    def test_vacuum_occupations(self):
        v = ModeCovariance(n1=0.5, n2=0.5)
        assert v.ms == 0j and v.mc == 0j

    def test_rejects_occupation_below_half(self):
        with pytest.raises(UnphysicalStateError):
            ModeCovariance(n1=0.3, n2=0.5)

    def test_rejects_overlarge_single_mode_squeezing(self):
        # n^2 - |m|^2 >= 1/4 is the single-mode uncertainty floor
        with pytest.raises(UnphysicalStateError):
            ModeCovariance(n1=0.6, n2=0.5, m1=0.59)

    def test_uncertainty_floor_that_overflows_is_a_value_error(self):
        # Both n1^2 and |m1|^2 overflow, so det V1 cannot be checked.
        with pytest.raises(ValueError, match="det V1 overflows double precision"):
            ModeCovariance(n1=1e200, n2=1.0, m1=5e199)
        with pytest.raises(ValueError, match="det V2 overflows double precision"):
            ModeCovariance(n1=1.0, n2=1e200, m2=5e199j)

    def test_matrix_layout(self):
        v = ModeCovariance(n1=0.8, n2=0.9, m1=0.1j, ms=0.2, mc=-0.3 + 0.1j)
        m = mode_matrix(v)
        assert m[0, 0] == 0.8 and m[2, 2] == 0.9
        assert m[0, 1] == 0.1j and m[1, 0] == np.conj(0.1j)
        assert m[0, 2] == 0.2 and m[0, 3] == -0.3 + 0.1j
        # conjugate pairing across the two rows of each block
        assert m[1, 3] == np.conj(m[0, 2])
        assert m[1, 2] == np.conj(m[0, 3])

    def test_from_matrix_round_trip(self):
        v = ModeCovariance(n1=1.1, n2=0.7, m1=0.2 - 0.1j, m2=0.05j, ms=0.1 + 0.3j, mc=0.2j)
        w = mode_from_matrix(mode_matrix(v))
        assert w.n1 == pytest.approx(v.n1, abs=1e-14)
        assert w.mc == pytest.approx(v.mc, abs=1e-14)

    def test_from_matrix_rejects_bad_layout(self):
        v = mode_matrix(ModeCovariance(n1=0.8, n2=0.9, ms=0.2))
        v[1, 1] = 0.85  # breaks the equal-diagonal structure
        with pytest.raises(ValueError):
            mode_from_matrix(v)


class TestConversions:
    def test_vacuum_maps_to_half_occupations(self):
        v = quad_to_mode(vacuum_state())
        assert v.n1 == pytest.approx(0.5, abs=1e-14)
        assert v.n2 == pytest.approx(0.5, abs=1e-14)
        assert abs(v.m1) < 1e-14 and abs(v.ms) < 1e-14 and abs(v.mc) < 1e-14

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 1.7])
    def test_tmsv_mode_moments(self, r):
        v = quad_to_mode(tmsv_state(r))
        want = tmsv_mode_closed_form(r)
        assert v.n1 == pytest.approx(want["n"], rel=1e-12)
        assert v.n2 == pytest.approx(want["n"], rel=1e-12)
        assert v.mc == pytest.approx(want["mc"], rel=1e-12)
        assert abs(v.ms) < 1e-14 and abs(v.m1) < 1e-14 and abs(v.m2) < 1e-14

    def test_round_trip_on_random_states(self):
        for g in random_population(1000):
            g2 = mode_to_quad(quad_to_mode(g))
            np.testing.assert_allclose(
                g2.entries, g.entries, rtol=0.0, atol=ROUNDTRIP_ATOL * max(1.0, np.abs(g.entries).max())
            )


class TestInvariants:
    def test_vacuum(self):
        inv = invariants_quad(vacuum_state())
        i1, i2, i3, i4 = _quad_invariants(inv)
        assert i1 == pytest.approx(1.0, abs=1e-14)
        assert i2 == pytest.approx(1.0, abs=1e-14)
        assert i3 == pytest.approx(0.0, abs=1e-14)
        assert i4 == pytest.approx(0.0, abs=1e-14)
        assert inv.j1 == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("r", [0.2, 0.5, 1.3])
    def test_tmsv_closed_form(self, r):
        i1, i2, i3, i4 = _quad_invariants(invariants_quad(tmsv_state(r)))
        want = tmsv_invariants_closed_form(r)
        assert i1 == pytest.approx(want["i1"], rel=1e-12)
        assert i2 == pytest.approx(want["i2"], rel=1e-12)
        assert i3 == pytest.approx(want["i3"], rel=1e-12)
        assert i4 == pytest.approx(want["i4"], rel=1e-12)
        # the state is pure, so its determinant stays at the vacuum value
        assert float(np.linalg.det(tmsv_state(r).entries)) == pytest.approx(1.0, abs=1e-9)

    def test_quad_and_mode_paths_agree(self):
        # Eq.-bridge: both computations must give identical invariants.
        for g in random_population(N_RANDOM):
            iq = invariants_quad(g)
            im = invariants_mode(quad_to_mode(g))
            np.testing.assert_allclose(
                [iq.j1, iq.j2, iq.j3, iq.j4],
                [im.j1, im.j2, im.j3, im.j4],
                rtol=1e-10,
                atol=1e-13,
            )

    @ORACLE_POPULATIONS
    def test_closed_forms_match_the_matrix_chain(self, population):
        g = population()
        got, want = invariants_quad(g), invariants_quad_by_matrix(g)
        scale = np.maximum(abs(want.j1), abs(want.j2))
        for key in ("j1", "j2", "j3"):
            err = abs(getattr(got, key) - getattr(want, key))
            assert (err <= MATRIX_ROUTE_BUDGET * scale).all(), key
        assert (abs(got.j4 - want.j4) <= MATRIX_ROUTE_BUDGET * scale**2).all()

    @ORACLE_POPULATIONS
    def test_batch_invariants_are_each_states_invariants(self, population):
        g = population()
        batch = invariants_quad(g)
        for i in np.ndindex(batch.j1.shape):
            one = invariants_quad(QuadCovariance(g.entries[i]))
            assert [one.j1, one.j2, one.j3, one.j4] == [
                batch.j1[i], batch.j2[i], batch.j3[i], batch.j4[i]
            ]

    def test_determinant_identity(self):
        # det gamma = I1 I2 + I3^2 - I4 for every physical state, as the
        # measures compute it from the I's they derive.
        for g in random_population(1000):
            got = _det_gamma(*_quad_invariants(invariants_quad(g)))
            det = float(np.linalg.det(g.entries))
            assert got == pytest.approx(det, rel=1e-9, abs=1e-11)

    def test_invariance_under_local_symplectics(self):
        rng = np.random.default_rng(20240407)
        for g in random_population(N_RANDOM):
            base = invariants_quad(g)
            s1 = random_local_symplectic(rng)
            s2 = random_local_symplectic(rng)
            moved = invariants_quad(conjugate_local(g, s1, s2))
            np.testing.assert_allclose(
                _quad_invariants(moved),
                _quad_invariants(base),
                rtol=1e-9,
                atol=1e-12,
            )

    def test_partial_set_has_no_i4(self):
        inv = InvariantSet(j1=0.25, j2=0.25, j3=0.0)
        assert math.isnan(inv.j4)
        assert math.isnan(_det_gamma(*_quad_invariants(inv)))

    def test_nan_j4_constructs_for_one_state(self):
        inv = InvariantSet(0.6, 0.6, -0.3, math.nan)
        assert math.isnan(inv.j4)

    @pytest.mark.parametrize("j4", [math.inf, -math.inf, np.array([0.1, math.inf])])
    def test_infinite_j4_is_rejected(self, j4):
        with pytest.raises(ValueError, match="invariants must be finite"):
            InvariantSet(0.6, 0.6, -0.3, j4)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("index", [0, 1, 2], ids=["j1", "j2", "j3"])
    @pytest.mark.parametrize("points", [(), (3,)], ids=["one-state", "batch"])
    def test_non_finite_j1_to_j3_is_rejected(self, points, index, value):
        # A batch fails for one bad point; a NaN J4 alone is accepted.
        values = [np.full(points, x) for x in (0.6, 0.6, -0.3, math.nan)]
        assert np.isnan(InvariantSet(*values).j4).all()
        values[index][(-1,) * len(points)] = value
        with pytest.raises(ValueError, match="invariants must be finite"):
            InvariantSet(*values)


class TestPhysicality:
    def test_vacuum_is_physical(self):
        rep = validate_physical(vacuum_state())
        assert rep.physical and rep.positive_definite
        assert rep.nu_minus == pytest.approx(1.0, abs=1e-12)

    def test_williamson_eigenvalues_recovered(self):
        # A state built as S diag(nu) S^T must report exactly those nu.
        nu1, nu2 = 1.3, 2.0
        g = two_mode_squeezed_thermal(0.6, nu1, nu2)
        lo, hi = spectrum(g)
        assert lo == pytest.approx(nu1, rel=1e-12)
        assert hi == pytest.approx(nu2, rel=1e-12)

    def test_random_states_are_physical(self):
        for g in random_population(N_RANDOM):
            assert validate_physical(g).physical

    def test_squashed_state_is_unphysical(self):
        rep = validate_physical(QuadCovariance(0.5 * np.eye(4)))
        assert not rep.physical
        assert rep.nu_minus < 1.0

    @ORACLE_POPULATIONS
    def test_spectrum_matches_the_general_eigensolver(self, population):
        g = population()
        got, want = spectrum(g), symplectic_eigenvalues_general(g)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @ORACLE_POPULATIONS
    def test_spectrum_matches_the_hermitian_eigensolver(self, population):
        g = population()
        got, want = spectrum(g), symplectic_eigenvalues_hermitian(g)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @ORACLE_POPULATIONS
    def test_batch_spectrum_is_each_states_spectrum(self, population):
        g = population()
        lo, hi = spectrum(g)
        for i in np.ndindex(lo.shape):
            one = validate_physical(QuadCovariance(g.entries[i]))
            assert (one.nu_minus, one.nu_plus) == (lo[i], hi[i])

    def test_verdict_matches_the_general_eigensolver_at_the_boundary(self):
        # Pure states scaled by s have nu_minus = s: the scales straddle the
        # slack 1e-9 on both sides, with a margin of 1e-10 at the closest.
        pure = [
            random_state(i, purity="pure", symmetry=("symmetric", "general")[i % 2]).entries
            for i in range(400)
        ]
        base = np.concatenate([pure, tmsv_state(np.linspace(0.0, 3.0, 61)).entries])
        scales = np.array([1 - 1e-8, 1 - 2e-9, 1 - 1.1e-9, 1 - 0.9e-9, 1 - 5e-10, 1.0, 1 + 1e-9])
        g = QuadCovariance(scales[:, None, None, None] * base)
        verdict = validate_physical(g).physical
        np.testing.assert_array_equal(verdict, physical_by_general_eigensolver(g))
        expected = np.broadcast_to((scales >= 1 - PHYSICALITY_SLACK)[:, None], verdict.shape)
        np.testing.assert_array_equal(verdict, expected)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.5, 3.0, 4.0, 4.4, 4.5])
    def test_tmsv_at_large_squeezing_sits_on_the_bound(self, r):
        # Also at small r: nu_minus from the invariants' closed form,
        # nu_minus^2 = 2 det / (D + sqrt(D^2 - 4 det)), falls below the slack
        # already at r = 0.5 (1 - 7.5e-9), since it takes the root of a
        # rounding error.  The spectrum's self-dual split takes no such root:
        # nu_plus - nu_minus is the norm of differences of entries of K.
        # The nu's are compared with the exact ones of the rounded entries,
        # not with 1: at r = 4.4 those are 1 - 7.8e-10 under numpy's AVX-512
        # cosh and sinh and 1 + 7.3e-10 without them.
        g = tmsv_state(r)
        rep = validate_physical(g)
        assert rep.physical and rep.positive_definite
        errors = spectrum_errors(precise_oracle(g.entries.tolist()), rep.nu_minus, rep.nu_plus)
        assert all(errors[key] <= BUDGETS["tmsv"][key] for key in errors), errors

    def test_no_spectrum_off_the_positive_definite_cone(self):
        not_positive = np.diag([1.0, 1.0, 1.0, -1.0])
        rep = validate_physical(QuadCovariance(not_positive))
        assert not rep.physical and not rep.positive_definite
        assert math.isnan(rep.nu_minus) and math.isnan(rep.nu_plus)
        batch = [tmsv_state(0.3).entries, not_positive, 0.5 * np.eye(4)]
        rep = validate_physical(QuadCovariance(np.stack(batch)))
        np.testing.assert_array_equal(rep.positive_definite, [True, False, True])
        np.testing.assert_array_equal(rep.physical, [True, False, False])
        for i, g in ((0, batch[0]), (2, batch[2])):
            one = validate_physical(QuadCovariance(g))
            assert (rep.nu_minus[i], rep.nu_plus[i]) == (one.nu_minus, one.nu_plus)
        assert np.isnan(rep.nu_minus[1]) and np.isnan(rep.nu_plus[1])
        # A batch that factors in one call still gets one mask entry per point.
        rep = validate_physical(QuadCovariance(np.stack([batch[0], batch[2]])))
        assert rep.positive_definite.shape == (2,) and rep.positive_definite.all()


class TestStandardFormPrep:
    def test_already_standard_is_untouched(self):
        v = quad_to_mode(tmsv_state(0.5))
        prep = standard_form_prep(v)
        assert abs(prep.vt.m1) == 0.0 and abs(prep.vt.m2) == 0.0
        assert prep.vt.n1 == pytest.approx(v.n1, abs=1e-14)
        assert prep.vt.mc == pytest.approx(v.mc, abs=1e-14)

    @pytest.mark.parametrize("batch", [False, True], ids=["one", "batch"])
    @pytest.mark.parametrize("kind", ["tmsv", "tmst", "thermal", "vacuum"])
    def test_state_in_standard_form_is_returned_as_it_is(self, kind, batch):
        make = {
            "tmsv": lambda x: tmsv_state(0.5 * x),
            "tmst": lambda x: two_mode_squeezed_thermal(0.4 * x, 1.3, 1.1),
            "thermal": lambda x: thermal_state(1.0 + x, 1.2),
            "vacuum": lambda x: vacuum_state(),
        }[kind]
        points = [1.0, 2.0, 3.0] if batch else [1.0]
        g = QuadCovariance(np.stack([make(x).entries for x in points]) if batch else make(1.0).entries)
        v = quad_to_mode(g)
        prep = standard_form_prep(v)
        assert prep.vt is v
        for s in (prep.s1, prep.s2):
            for x in (s.alpha, s.theta):
                assert np.shape(x) == np.shape(v.n1) and not np.any(x)
                assert isinstance(x, np.ndarray) == batch

    def test_standard_form_points_of_a_mixed_batch_pass_bit_for_bit(self):
        # One squeezed random point sends the batch down the general route,
        # whose m = 0 branch must leave the TMST points as they came.
        tmst = two_mode_squeezed_thermal(np.linspace(0.0, 1.5, 4), 1.3, 1.1).entries
        v = quad_to_mode(QuadCovariance(np.concatenate([tmst, random_state(5).entries[None]])))
        assert v.m1[-1] != 0.0
        prep = standard_form_prep(v)
        assert prep.vt is not v and abs(prep.vt.m1[-1]) < 1e-10
        for name in ("n1", "n2", "m1", "m2", "ms", "mc"):
            got, want = getattr(prep.vt, name)[:-1], getattr(v, name)[:-1]
            assert got.tobytes() == want.tobytes(), name

    def test_single_mode_squeezing_removed(self):
        # m = 0.3 n: the canceling local has phase pi/2 and
        # squeezing atanh(0.3)/2; the occupation drops to sqrt(n^2 - |m|^2).
        n = 1.0
        v = ModeCovariance(n1=n, n2=0.5, m1=0.3 * n)
        prep = standard_form_prep(v)
        assert prep.s1.alpha == pytest.approx(math.pi / 2)
        assert prep.s1.theta == pytest.approx(math.atanh(0.3) / 2)
        assert prep.vt.n1 == pytest.approx(math.sqrt(n * n - 0.09), rel=1e-12)
        assert abs(prep.vt.m1) < 1e-12

    def test_residuals_small_on_random_states(self):
        for g in random_population(200):
            prep = standard_form_prep(quad_to_mode(g))
            assert abs(prep.vt.m1) < 1e-10
            assert abs(prep.vt.m2) < 1e-10

    def test_invariants_preserved(self):
        for g in random_population(100, seed_offset=900):
            v = quad_to_mode(g)
            before = invariants_mode(v)
            after = invariants_mode(standard_form_prep(v).vt)
            np.testing.assert_allclose(
                [after.j1, after.j2, after.j3, after.j4],
                [before.j1, before.j2, before.j3, before.j4],
                rtol=1e-9,
                atol=1e-12,
            )

    def test_occupations_equal_root_invariants(self):
        # In standard form n~_j = sqrt(J_j): protocol 2 reads them directly.
        for g in random_population(100, seed_offset=300):
            v = quad_to_mode(g)
            inv = invariants_mode(v)
            vt = standard_form_prep(v).vt
            assert vt.n1 == pytest.approx(math.sqrt(inv.j1), rel=1e-10)
            assert vt.n2 == pytest.approx(math.sqrt(inv.j2), rel=1e-10)

    def test_fourth_invariant_collapses_in_standard_form(self):
        # With the single-mode squeezing removed, J4 reduces to a product
        # of the occupations and the total cross-correlation strength.
        for g in random_population(100, seed_offset=1300):
            vt = standard_form_prep(quad_to_mode(g)).vt
            inv = invariants_mode(vt)
            want = 2 * vt.n1 * vt.n2 * (abs(vt.ms) ** 2 + abs(vt.mc) ** 2)
            assert inv.j4 == pytest.approx(want, rel=1e-10, abs=1e-13)


class TestDetectSpecialForm:
    def test_tmsv_is_antidiagonal(self):
        assert cross_block_form(quad_to_mode(tmsv_state(0.4))) == "antidiagonal"

    def test_beam_split_thermal_is_diagonal(self):
        g = special_form_state(5, form="diagonal")
        vt = standard_form_prep(quad_to_mode(g)).vt
        assert cross_block_form(vt) == "diagonal"

    def test_no_cross_correlations_ties_to_diagonal(self):
        v = quad_to_mode(thermal_state(1.2, 1.5))
        assert cross_block_form(v) == "diagonal"

    def test_generic_state_is_neither(self):
        vt = standard_form_prep(
            quad_to_mode(random_state(8, purity="mixed", symmetry="general"))
        ).vt
        assert cross_block_form(vt) is None

    def test_both_cross_blocks_populated_is_neither(self):
        v = ModeCovariance(n1=1.0, n2=1.0, ms=0.1, mc=0.1)
        assert cross_block_form(v) is None

    def test_requires_standard_form(self):
        v = ModeCovariance(n1=1.0, n2=0.5, m1=0.4)
        assert cross_block_form(v) is None


class TestGenerators:
    def test_same_seed_same_state(self):
        a = random_state(123)
        b = random_state(123)
        assert np.array_equal(a.entries, b.entries)

    def test_different_seeds_differ(self):
        assert not np.allclose(random_state(1).entries, random_state(2).entries)

    def test_tmsv_zero_squeezing_is_vacuum(self):
        np.testing.assert_allclose(tmsv_state(0.0).entries, np.eye(4), atol=1e-15)

    def test_pure_states_have_unit_symplectic_spectrum(self):
        for i in range(50):
            g = random_state(i, purity="pure", symmetry="general")
            lo, hi = spectrum(g)
            assert lo == pytest.approx(1.0, abs=1e-9)
            assert hi == pytest.approx(1.0, abs=1e-9)
            assert abs(float(np.linalg.det(g.entries)) - 1.0) < 1e-9

    def test_symmetric_class_pins_first_two_invariants(self):
        for i in range(50):
            i1, i2, _, _ = _quad_invariants(
                invariants_quad(random_state(i, purity="mixed", symmetry="symmetric"))
            )
            assert i1 == pytest.approx(i2, rel=1e-10)

    def test_special_form_states_satisfy_the_advertised_pattern(self):
        for i in range(25):
            for form in ("diagonal", "antidiagonal"):
                vt = standard_form_prep(quad_to_mode(special_form_state(i, form))).vt
                assert cross_block_form(vt) == form

    def test_thermal_product_invariants(self):
        i1, i2, i3, i4 = _quad_invariants(invariants_quad(thermal_state(1.4, 2.0)))
        assert i1 == pytest.approx(1.4**2, rel=1e-12)
        assert i2 == pytest.approx(2.0**2, rel=1e-12)
        assert i3 == pytest.approx(0.0, abs=1e-14)
        assert i4 == pytest.approx(0.0, abs=1e-14)
