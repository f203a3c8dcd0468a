"""The covariance-matrix oracle against a 60-digit reference.

``precise_oracle`` evaluates J1..J4 and nu+- exactly for the float entries of
gamma (up to 60-digit square roots), and each field of ``invariants_quad``
and ``validate_physical`` must stay within its own error budget of it, per
population: J1..J3 relative to max(J1, J2), J4 relative to max(J1, J2)^2 and
nu+- relative to nu_plus.  Each budget is twice the largest error measured
on the population when it was set, rounded up; a budget is tightened when a
change makes the oracle more accurate, and never widened.
"""

import math
from fractions import Fraction

import pytest

from gaussbench import (
    invariants_quad,
    random_state,
    tmsv_state,
    two_mode_squeezed_thermal,
    vacuum_state,
    validate_physical,
)
from gaussbench.generators import conjugate_local, rotation_symplectic, squeeze_symplectic
from precise_oracle import precise_oracle

CLASSES = [("pure", "symmetric"), ("pure", "general"), ("mixed", "symmetric"),
           ("mixed", "general")]


def dressed_state(seed, s=3.0):
    """``random_state(seed)`` under R(0.3) Sq(s) R(1.1) (+) R(-0.7) Sq(-s):
    local symplectics that change no invariant and grow the entries."""
    s1 = rotation_symplectic(0.3) @ squeeze_symplectic(s) @ rotation_symplectic(1.1)
    s2 = rotation_symplectic(-0.7) @ squeeze_symplectic(-s)
    return conjugate_local(random_state(seed), s1, s2)


POPULATIONS = {
    "tmsv": lambda: [tmsv_state(r) for r in (0.5, 1.0, 2.0, 3.0, 4.0, 4.4)],
    "random": lambda: [
        random_state(i, purity=CLASSES[i % 4][0], symmetry=CLASSES[i % 4][1]) for i in range(200)
    ],
    "dressed": lambda: [dressed_state(i) for i in range(100)],
}

#: Error budgets per population and field.  Largest errors measured when set
#: (J's then nu's): TMSV 8.9e-17, 8.9e-17, 8.3e-17, 2.1e-16, 8.0e-10, 8.0e-10
#: (nu at r = 4.4: a one-ulp change of entries near 3300 moves nu this much);
#: random 1.4e-15, 1.6e-15, 1.6e-16, 5.8e-16, 3.5e-15, 4.2e-15; dressed
#: 6.8e-11, 2.1e-10, 2.7e-12, 5.8e-9, 6.6e-10, 3.0e-10.
BUDGETS = {
    "tmsv": dict(j1=2e-16, j2=2e-16, j3=2e-16, j4=5e-16, nu_minus=2e-9, nu_plus=2e-9),
    "random": dict(j1=3e-15, j2=4e-15, j3=4e-16, j4=2e-15, nu_minus=8e-15, nu_plus=9e-15),
    "dressed": dict(j1=2e-10, j2=5e-10, j3=6e-12, j4=2e-8, nu_minus=2e-9, nu_plus=6e-10),
}


def _errors(g):
    """Each field's error against the reference, in its budget's units."""
    ref = precise_oracle(g.entries.tolist())
    inv, phys = invariants_quad(g), validate_physical(g)
    scale = max(abs(ref.j1), abs(ref.j2))
    errors = {key: abs(Fraction(float(getattr(inv, key))) - getattr(ref, key)) / scale
              for key in ("j1", "j2", "j3")}
    errors["j4"] = abs(Fraction(float(inv.j4)) - ref.j4) / scale**2
    for key in ("nu_minus", "nu_plus"):
        exact = Fraction(getattr(ref, key))
        errors[key] = abs(Fraction(float(getattr(phys, key))) - exact) / Fraction(ref.nu_plus)
    return errors


@pytest.mark.parametrize("population", POPULATIONS)
def test_oracle_is_within_its_budget_of_the_precise_reference(population):
    worst = dict.fromkeys(BUDGETS[population], Fraction(0))
    for g in POPULATIONS[population]():
        for key, err in _errors(g).items():
            worst[key] = max(worst[key], err)
    over = {key: float(err) for key, err in worst.items() if err > BUDGETS[population][key]}
    assert not over, f"over budget: {over}"


def test_reference_determinant_is_the_invariants_identity():
    # det gamma = I1 I2 + I3^2 - I4 holds exactly for every symmetric gamma.
    for g in [dressed_state(7), random_state(3), tmsv_state(2.0)]:
        ref = precise_oracle(g.entries.tolist())
        assert ref.det == 16 * (ref.j1 * ref.j2 + ref.j3**2 - ref.j4)


def test_reference_spectrum_of_known_states():
    ref = precise_oracle(vacuum_state().entries.tolist())
    assert (ref.nu_minus, ref.nu_plus) == (1, 1)
    assert (ref.j1, ref.j2, ref.j3, ref.j4, ref.det) == (Fraction(1, 4), Fraction(1, 4), 0, 0, 1)
    # S diag(nu) S^T: the rounded entries hold the nu's to a few ulps.
    ref = precise_oracle(two_mode_squeezed_thermal(0.6, 1.3, 2.0).entries.tolist())
    assert math.isclose(ref.nu_minus, 1.3, rel_tol=1e-14)
    assert math.isclose(ref.nu_plus, 2.0, rel_tol=1e-14)
    # TMSV: D = 0 exactly, and both nu's are sqrt(c^2 - s^2) of the rounded
    # c = cosh 2r and s = sinh 2r, off 1 by far more than the digits kept.
    g = tmsv_state(3.0).entries
    c, s = Fraction(float(g[0, 0])), Fraction(float(g[0, 2]))
    ref = precise_oracle(g.tolist())
    assert ref.det == (c * c - s * s) ** 2
    assert ref.nu_minus == ref.nu_plus
    assert abs(Fraction(ref.nu_minus) ** 2 / (c * c - s * s) - 1) < Fraction(1, 10**58)
    assert abs(float(ref.nu_minus) - 1.0) > 1e-13
