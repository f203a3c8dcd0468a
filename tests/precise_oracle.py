"""A 60-digit reference for the covariance-matrix oracle, standard library only.

The float entries of gamma are taken as exact ``Fraction``s, so the reference
is the exact value for the state the float program holds, not for the state
it was meant to hold: an error that rounding the entries has already made is
no error of the program.  I1..I4 and det gamma are computed exactly.  The
symplectic spectrum follows from Delta = I1 + I2 + 2 I3 and det gamma,

    nu_plus^2 = (Delta + sqrt(D)) / 2,  nu_minus^2 = 2 det gamma / (Delta + sqrt(D)),

with the discriminant D = Delta^2 - 4 det gamma exact as well: rounded to 60
digits first, it comes out below zero at a pure state.  Only the square roots
are rounded, in ``decimal`` at 60 significant digits.

``BUDGETS`` holds the error that the float oracle may make against this
reference, per test population and field: J1..J3 relative to max(J1, J2),
J4 relative to max(J1, J2)^2 and nu+- relative to nu_plus
(``spectrum_errors``).  Each budget is twice the largest error measured on
the population when it was set, rounded up; a budget is tightened when a
change makes the oracle more accurate, and never widened.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction

#: Significant digits of every rounded step.
DIGITS = 60

#: Error budgets per population and field.  Largest errors measured when set
#: (J's then nu's): TMSV 8.9e-17, 8.9e-17, 8.3e-17, 2.1e-16, 8.0e-10, 8.0e-10
#: (nu at r = 4.4: a one-ulp change of entries near 3300 moves nu this much);
#: random 1.4e-15, 1.6e-15, 1.6e-16, 5.8e-16, 3.5e-15, 4.2e-15; dressed
#: 6.8e-11, 2.1e-10, 2.7e-12, 5.8e-9, 6.6e-10, 3.0e-10; thermal 5.4e-17, 0, 0,
#: 0, 0, 1.3e-16.
BUDGETS = {
    "tmsv": dict(j1=2e-16, j2=2e-16, j3=2e-16, j4=5e-16, nu_minus=2e-9, nu_plus=2e-9),
    "random": dict(j1=3e-15, j2=4e-15, j3=4e-16, j4=2e-15, nu_minus=8e-15, nu_plus=9e-15),
    "dressed": dict(j1=2e-10, j2=5e-10, j3=6e-12, j4=2e-8, nu_minus=2e-9, nu_plus=6e-10),
    "thermal": dict(j1=2e-16, j2=2e-16, j3=2e-16, j4=2e-16, nu_minus=3e-16, nu_plus=3e-16),
}

#: nu_minus relative to nu_minus itself, where nu_plus / nu_minus is large
#: enough that a budget relative to nu_plus would pass a nu_minus of 0: the
#: thermal population, where the largest error measured was 0 (two ulps).
NU_MINUS_OWN_BUDGET = 4.5e-16


@dataclass(frozen=True)
class PreciseOracle:
    """The mode-convention invariants J1..J4 and the symplectic spectrum of
    one state; J's and det gamma exact, the nu's to ``DIGITS`` digits."""

    j1: Fraction
    j2: Fraction
    j3: Fraction
    j4: Fraction
    det: Fraction
    nu_minus: decimal.Decimal
    nu_plus: decimal.Decimal


def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _matmul2(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def _det(rows):
    """Determinant of a square Fraction matrix by exact elimination."""
    m = [list(row) for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            factor = m[r][col] / m[col][col]
            m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


def _decimal(x: Fraction) -> decimal.Decimal:
    return decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)


def precise_oracle(entries) -> PreciseOracle:
    """The reference for one 4x4 covariance matrix, given as nested rows of floats."""
    g = [[Fraction(float(x)) for x in row] for row in entries]
    a = [row[:2] for row in g[:2]]
    b = [row[2:] for row in g[2:]]
    c = [row[2:] for row in g[:2]]
    j = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    c_t = [[c[0][0], c[1][0]], [c[0][1], c[1][1]]]
    chain = a
    for m in (j, c, j, b, j, c_t, j):
        chain = _matmul2(chain, m)
    i1, i2, i3, i4 = _det2(a), _det2(b), _det2(c), chain[0][0] + chain[1][1]
    det = _det(g)
    delta = i1 + i2 + 2 * i3
    with decimal.localcontext() as ctx:
        ctx.prec = DIGITS
        root = _decimal(delta * delta - 4 * det).sqrt()
        plus = _decimal(delta) + root
        nu_plus = (plus / 2).sqrt()
        nu_minus = (2 * _decimal(det) / plus).sqrt()
    return PreciseOracle(i1 / 4, i2 / 4, i3 / 4, i4 / 16, det, nu_minus, nu_plus)


def spectrum_errors(ref: PreciseOracle, nu_minus, nu_plus) -> dict:
    """The errors of a computed ``nu_minus`` and ``nu_plus`` against ``ref``,
    relative to its nu_plus: the units of the nu budgets."""
    scale = Fraction(ref.nu_plus)
    return {
        "nu_minus": abs(Fraction(float(nu_minus)) - Fraction(ref.nu_minus)) / scale,
        "nu_plus": abs(Fraction(float(nu_plus)) - Fraction(ref.nu_plus)) / scale,
    }
