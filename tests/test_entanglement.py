"""Separability and entanglement measures, cross-checked against brute force.

The brute-force oracle works on the full 4x4 quadrature covariance: partial
transposition is the momentum flip P = diag(1, 1, 1, -1), and the PPT
verdict comes from the smallest symplectic eigenvalue of P gamma P.  The
library must reproduce those verdicts using only the four invariants.
"""

import math

import numpy as np
import pytest

from gaussbench import (
    entanglement_report,
    invariants_quad,
    random_state,
    simon_separable,
    thermal_state,
    tmsv_state,
    vacuum_state,
)
from gaussbench.states import OMEGA, InvariantSet

PPT_FLIP = np.diag([1.0, 1.0, 1.0, -1.0])

FIELDS = ("simon_lhs_minus_rhs", "eof", "eof_lower_bound", "log_negativity", "nu_tilde_minus")


def ppt_nu_minus(g):
    """Smallest symplectic eigenvalue of the partially transposed state."""
    flipped = PPT_FLIP @ g.entries @ PPT_FLIP
    moduli = np.sort(np.abs(np.linalg.eigvals(1j * OMEGA @ flipped)))
    return float((moduli[0] + moduli[1]) / 2.0)


def tmsv_eof_closed_form(r):
    ch2, sh2 = math.cosh(r) ** 2, math.sinh(r) ** 2
    if sh2 == 0.0:
        return 0.0
    return ch2 * math.log2(ch2) - sh2 * math.log2(sh2)


def eof_and_bound(inv):
    """The symmetric EoF and its zeroed-I4 bound, both defined on ``inv``."""
    rep = entanglement_report(inv)
    assert not math.isnan(rep.eof) and not math.isnan(rep.eof_lower_bound)
    return rep.eof, rep.eof_lower_bound


def negativity(inv):
    """E_N and nu~_-, both defined on ``inv``."""
    rep = entanglement_report(inv)
    assert not math.isnan(rep.log_negativity) and not math.isnan(rep.nu_tilde_minus)
    return rep.log_negativity, rep.nu_tilde_minus


def mixed_population(count, seed_offset=0):
    purities = ("pure", "mixed")
    symmetries = ("symmetric", "general")
    for i in range(count):
        yield random_state(
            seed_offset + i,
            purity=purities[i % 2],
            symmetry=symmetries[(i // 2) % 2],
        )


def test_vacuum_is_separable_with_zero_margin():
    separable, margin = simon_separable(invariants_quad(vacuum_state()))
    assert separable
    assert margin == pytest.approx(0.0, abs=1e-12)


def test_thermal_product_margin_closed_form():
    # For nu1 (x) nu2 the margin reduces to (nu1^2 - 1)(nu2^2 - 1).
    nu1, nu2 = 1.4, 2.0
    separable, margin = simon_separable(invariants_quad(thermal_state(nu1, nu2)))
    assert separable
    assert margin == pytest.approx((nu1**2 - 1) * (nu2**2 - 1), rel=1e-12)


def test_tmsv_margin_frozen_value():
    # Frozen from the closed-form invariants at r = 0.5:
    # I1 I2 + (1-|I3|)^2 - I4 - I1 - I2 with I1 = cosh^2 2r, I3 = -sinh^2 2r.
    c2, s2 = math.cosh(1.0) ** 2, math.sinh(1.0) ** 2
    expected = c2 * c2 + (1 - s2) ** 2 - 2 * c2 * s2 - 2 * c2
    separable, margin = simon_separable(invariants_quad(tmsv_state(0.5)))
    assert not separable
    assert margin == pytest.approx(expected, rel=1e-12)
    assert margin == pytest.approx(-5.524391382167263, rel=1e-12)


@pytest.mark.parametrize("r", [0.1, 0.4, 0.9, 1.5, 2.0])
def test_tmsv_eof_closed_form(r):
    # The squeeze factor comes from a difference of cosh-sized invariants,
    # so the attainable absolute accuracy shrinks as the squeezing grows.
    tol = 1e-10 if r < 1.7 else 1e-9
    inv = invariants_quad(tmsv_state(r))
    eof, _ = eof_and_bound(inv)
    assert eof == pytest.approx(tmsv_eof_closed_form(r), abs=tol)


def test_tmsv_zero_squeezing_has_zero_eof():
    eof, _ = eof_and_bound(invariants_quad(tmsv_state(0.0)))
    assert eof == pytest.approx(0.0, abs=1e-12)


def test_separable_symmetric_state_has_zero_eof():
    # Scaled TMSV with the thermal factor beating the squeezing.
    g = random_state(0, purity="mixed", symmetry="symmetric", nu=(3.5,))
    inv = invariants_quad(g)
    separable, _ = simon_separable(inv)
    if separable:
        assert eof_and_bound(inv) == (0.0, 0.0)


def test_bound_never_exceeds_exact_value():
    kept = 0
    for i in range(3000):
        g = random_state(i, purity="mixed" if i % 2 else "pure", symmetry="symmetric")
        inv = invariants_quad(g)
        exact, bound = eof_and_bound(inv)
        assert bound <= exact + 1e-12
        kept += 1
        if kept >= 1000:
            break


def test_bound_strictly_below_for_entangled_states_with_cross_term():
    found = 0
    for i in range(4000):
        g = random_state(i, purity="pure", symmetry="symmetric")
        inv = invariants_quad(g)
        exact, bound = eof_and_bound(inv)
        if exact <= 1e-9 or inv.i4 <= 1e-6:
            continue
        assert bound < exact
        found += 1
        if found >= 200:
            break
    assert found >= 200


def test_bound_equals_exact_when_i4_vanishes():
    # Thermal product (symmetric): I4 = 0, so dropping it changes nothing.
    inv = invariants_quad(thermal_state(1.7, 1.7))
    exact, bound = eof_and_bound(inv)
    assert bound == pytest.approx(exact, abs=1e-14)


def test_eof_grows_with_the_fourth_invariant():
    # f is decreasing in x and x shrinks as I4 grows, so with the other
    # three invariants pinned E_f must be non-decreasing in I4.  Scaling
    # down only (toward the I4 = 0 bound) keeps every set in-domain.
    scales = (0.0, 0.5, 0.9, 1.0)
    checked = 0
    for i in range(400):
        g = random_state(i, purity="pure", symmetry="symmetric")
        inv = invariants_quad(g)
        if eof_and_bound(inv)[0] <= 1e-9 or inv.i4 <= 1e-9:
            continue
        values = [
            eof_and_bound(type(inv)(j1=inv.j1, j2=inv.j2, j3=inv.j3, j4=s * inv.j4))[0]
            for s in scales
        ]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-12
        checked += 1
    assert checked >= 100


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 1.8])
def test_tmsv_log_negativity_closed_form(r):
    # Same cancellation caveat as the squeeze factor: nu~_- is a difference
    # of cosh-sized terms, so precision degrades with the squeezing.
    tol = 1e-10 if r < 1.7 else 1e-9
    inv = invariants_quad(tmsv_state(r))
    value, nu = negativity(inv)
    assert value == pytest.approx(2 * r * math.log2(math.e), abs=tol)
    assert nu == pytest.approx(math.exp(-2 * r), rel=tol)


def test_log_negativity_matches_brute_force_ppt():
    for g in mixed_population(1000):
        inv = invariants_quad(g)
        value, nu = negativity(inv)
        nu_direct = ppt_nu_minus(g)
        assert nu == pytest.approx(nu_direct, rel=1e-8, abs=1e-10)
        want = max(0.0, -math.log2(nu_direct))
        assert value == pytest.approx(want, rel=1e-7, abs=1e-9)


def test_separable_states_have_zero_negativity():
    inv = invariants_quad(thermal_state(1.5, 1.1))
    value, nu = negativity(inv)
    assert value == 0.0
    assert nu >= 1.0 - 1e-12


def test_simon_verdict_matches_ppt_outside_boundary_band():
    border_band = 1e-7
    disagreements = 0
    checked = 0
    for g in mixed_population(1000, seed_offset=5000):
        inv = invariants_quad(g)
        nu_direct = ppt_nu_minus(g)
        if abs(nu_direct - 1.0) <= border_band:
            continue
        checked += 1
        separable, _ = simon_separable(inv)
        if separable != (nu_direct >= 1.0):
            disagreements += 1
    assert checked > 900  # the band should exclude almost nothing
    assert disagreements == 0


def test_report_on_full_invariant_set():
    rep = entanglement_report(invariants_quad(tmsv_state(0.5)))
    assert rep.separable is False
    assert rep.simon_lhs_minus_rhs < 0
    assert rep.eof == pytest.approx(tmsv_eof_closed_form(0.5), abs=1e-10)
    assert rep.eof_lower_bound <= rep.eof + 1e-12
    assert rep.log_negativity == pytest.approx(math.log2(math.e), abs=1e-10)
    assert rep.nu_tilde_minus == pytest.approx(math.exp(-1.0), rel=1e-10)


def test_report_without_fourth_invariant_keeps_only_the_bound():
    # r must be small here: zeroing I4 weakens the bound enough that it
    # collapses to 0 for strongly squeezed vacua (r >~ 0.42).
    inv = invariants_quad(tmsv_state(0.2))
    partial = type(inv)(j1=inv.j1, j2=inv.j2, j3=inv.j3)
    rep = entanglement_report(partial)
    assert rep.separable is None
    assert math.isnan(rep.simon_lhs_minus_rhs)
    assert math.isnan(rep.eof)
    assert math.isnan(rep.log_negativity)
    assert math.isnan(rep.nu_tilde_minus)
    assert rep.eof_lower_bound > 0


def test_simon_without_fourth_invariant_is_undecided():
    inv = invariants_quad(tmsv_state(0.2))
    separable, margin = simon_separable(type(inv)(j1=inv.j1, j2=inv.j2, j3=inv.j3))
    assert separable is None and math.isnan(margin)


def test_measures_never_raise_and_one_state_matches_its_batch_point():
    # Unphysical sets and a missing J4 give NaN measures and a None verdict,
    # never an error, and one state gets exactly what its batch point gets.
    rng = np.random.default_rng(5)
    j1, j2, j3, j4 = rng.uniform(-1.0, 3.0, (4, 200))
    j4[rng.random(200) < 0.3] = math.nan
    batch = InvariantSet(j1, j2, j3, j4)
    report = entanglement_report(batch)
    verdicts, margins = simon_separable(batch)
    assert list(report.separable) == list(verdicts)
    np.testing.assert_array_equal(report.simon_lhs_minus_rhs, margins)
    for i in range(200):
        one = InvariantSet(j1[i], j2[i], j3[i], j4[i])
        single = entanglement_report(one)
        assert single.separable == report.separable[i] == simon_separable(one)[0]
        for name in FIELDS:
            np.testing.assert_array_equal(getattr(single, name), getattr(report, name)[i])
    assert np.isnan(report.log_negativity[np.isnan(j4)]).all()


def test_report_on_asymmetric_state_drops_eof_fields():
    rep = entanglement_report(invariants_quad(thermal_state(1.2, 2.4)))
    assert math.isnan(rep.eof) and math.isnan(rep.eof_lower_bound)
    assert rep.separable is True
    assert rep.log_negativity == 0.0


def test_measures_are_invariant_under_local_symplectics():
    from gaussbench.generators import conjugate_local, random_local_symplectic

    rng = np.random.default_rng(77)
    for g in mixed_population(25, seed_offset=600):
        moved = conjugate_local(
            g, random_local_symplectic(rng), random_local_symplectic(rng)
        )
        a = entanglement_report(invariants_quad(g))
        b = entanglement_report(invariants_quad(moved))
        assert a.separable == b.separable
        assert b.simon_lhs_minus_rhs == pytest.approx(
            a.simon_lhs_minus_rhs, rel=1e-8, abs=1e-10
        )
        assert b.log_negativity == pytest.approx(a.log_negativity, rel=1e-8, abs=1e-10)
        if not math.isnan(a.eof):
            assert b.eof == pytest.approx(a.eof, rel=1e-7, abs=1e-10)
