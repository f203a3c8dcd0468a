"""The covariance-matrix oracle against a 60-digit reference.

``precise_oracle`` evaluates J1..J4 and nu+- exactly for the float entries of
gamma (up to 60-digit square roots), and each field of ``invariants_quad``
and ``validate_physical`` must stay within its own error budget of it, per
population (``precise_oracle.BUDGETS``, which says how each is set).
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
from precise_oracle import BUDGETS, precise_oracle, spectrum_errors

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


def _errors(g):
    """Each field's error against the reference, in its budget's units."""
    ref = precise_oracle(g.entries.tolist())
    inv, phys = invariants_quad(g), validate_physical(g)
    scale = max(abs(ref.j1), abs(ref.j2))
    errors = {key: abs(Fraction(float(getattr(inv, key))) - getattr(ref, key)) / scale
              for key in ("j1", "j2", "j3")}
    errors["j4"] = abs(Fraction(float(inv.j4)) - ref.j4) / scale**2
    return {**errors, **spectrum_errors(ref, phys.nu_minus, phys.nu_plus)}


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
