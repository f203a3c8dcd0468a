"""Separability tests and entanglement measures from symplectic invariants.

Everything here consumes an :class:`~gaussbench.states.InvariantSet` only;
no covariance matrix is touched.  Logarithms are base 2 (bits).  The closed
forms are in the quadrature convention I1..I4 = 4 J1, 4 J2, 4 J3, 16 J4,
which each public call derives once and which nothing else holds.

* Simon's PPT-based criterion decides separability from the margin
  I1 I2 + (1 - |I3|)^2 - I4 - I1 - I2 together with the sign of I3
  (positively correlated cross blocks, I3 >= 0, are always separable for
  physical states).
* The entanglement of formation has a closed form for symmetric states
  (I1 = I2); dropping I4 from its inner radical can only lower the result,
  which gives a cheap lower bound that works without the fourth invariant.
  Both are NaN off the symmetric points, and the closed form is evaluated
  only where some point of the call is symmetric.
* The logarithmic negativity follows from the smallest symplectic
  eigenvalue of the partially transposed state, which depends on gamma only
  through Delta~ = I1 + I2 - 2 I3 and det gamma = I1 I2 + I3^2 - I4.

The measures are elementwise.  Each closed form yields NaN where it is
undefined, for one state as at any point of a batch; a NaN J4 leaves every
measure that needs it NaN, and nothing here raises on an invariant set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import InvariantSet, any_point, as_field

__all__ = [
    "EntanglementReport",
    "simon_separable",
    "entanglement_report",
]

#: Small negatives tolerated (and clamped) in the EoF inner radicand.
EOF_RADICAND_ATOL = 1e-12

#: Tolerance on the negativity radicand Delta~^2 - 4 det(gamma).
NEGATIVITY_RADICAND_ATOL = 1e-9

#: Relative tolerance for treating I1 and I2 as equal.
SYM_TOL = 1e-6

#: The ``separable`` label at index 2 * undecided + separable: taking it from
#: a constant array gives a plain value for one state and an array for a batch.
_SEPARABLE = np.array([False, True, None, None], dtype=object)


@dataclass(frozen=True)
class EntanglementReport:
    """Separability verdict and measures; NaN marks an undefined measure.

    ``eof``/``eof_lower_bound`` are NaN for non-symmetric states, and
    everything that needs the fourth invariant (``simon_lhs_minus_rhs``,
    ``eof``, ``log_negativity``, ``nu_tilde_minus``) is NaN where J4 is.
    ``separable`` is ``None`` where the Simon margin is NaN (undecided).
    """

    separable: bool | None
    simon_lhs_minus_rhs: float
    eof: float
    eof_lower_bound: float
    log_negativity: float
    nu_tilde_minus: float


def _quad_invariants(inv: InvariantSet):
    """(I1, I2, I3, I4) = (4 J1, 4 J2, 4 J3, 16 J4); scaling by a power of two is exact."""
    return 4.0 * inv.j1, 4.0 * inv.j2, 4.0 * inv.j3, 16.0 * inv.j4


def _det_gamma(i1, i2, i3, i4):
    """det gamma through the invariants: I1 I2 + I3^2 - I4 (NaN without I4)."""
    return i1 * i2 + i3 * i3 - i4


def simon_separable(inv: InvariantSet) -> tuple[bool | None, float]:
    """Evaluate the separability inequality.

    Returns ``(separable, margin)`` with
    margin = I1 I2 + (1 - |I3|)^2 - I4 - I1 - I2; the state is separable
    iff I3 >= 0 or the margin is non-negative.  Where the margin is NaN
    (no J4) the verdict is ``None``: undecided.
    """
    return _simon(*_quad_invariants(inv))


def _simon(i1, i2, i3, i4):
    gap = 1.0 - abs(i3)
    margin = i1 * i2 + gap * gap - i4 - i1 - i2
    undecided = (margin != margin).astype(np.intp)  # NaN
    separable = _SEPARABLE.take(2 * undecided + ((i3 >= 0.0) | (margin >= 0.0)))
    return separable, as_field(margin)


def _x_parameter(i1, i3, i4, symmetric):
    """Inner argument x = sqrt(I1 + |I3| - sqrt(I4 + 2 I1 |I3|)) of a symmetric state.

    For a two-mode squeezed vacuum this reduces to exp(-2r); generally it
    plays the role of an effective squeeze factor, with x >= 1 meaning no
    entanglement is seen by the symmetric closed form.  Small negative
    inner radicands (down to -EOF_RADICAND_ATOL) are clamped; x is NaN below
    that, where x^2 <= 0 (the EoF would diverge) and where ``symmetric`` is
    false (the closed form needs I1 = I2).
    """
    inner_sq = i4 + 2.0 * i1 * abs(i3)
    x_sq = i1 + abs(i3) - np.sqrt(np.maximum(inner_sq, 0.0))
    defined = symmetric & (inner_sq >= -EOF_RADICAND_ATOL) & (x_sq > 0.0)
    return np.sqrt(np.where(defined, x_sq, np.nan))


def _entropy_of_squeeze_factor(x):
    """E(x) = c+ log2 c+ - c- log2 c-, c± = (x^-1/2 ± x^1/2)^2 / 4.

    Strictly decreasing on (0, 1) and zero at x = 1; x >= 1 gives zero.
    """
    root = np.sqrt(np.minimum(x, 1.0))
    plus, minus = 1.0 / root + root, 1.0 / root - root
    c_plus = plus * plus / 4.0
    c_minus = minus * minus / 4.0
    # c- log2 c- -> 0 as c- -> 0; at x >= 1 (root = 1) both terms vanish.
    return c_plus * np.log2(c_plus) - c_minus * np.log2(c_minus + (c_minus == 0.0))


def _negativity(i1, i2, i3, i4):
    """Logarithmic negativity (bits) and the PPT symplectic eigenvalue, NaN where undefined.

    nu~_-^2 = (Delta~ - sqrt(Delta~^2 - 4 det gamma))/2 with
    Delta~ = I1 + I2 - 2 I3; E_N = max(0, -log2 nu~_-).  Small negative
    radicands are clamped to zero.
    """
    det_gamma = _det_gamma(i1, i2, i3, i4)
    delta_tilde = i1 + i2 - 2.0 * i3
    radicand = delta_tilde * delta_tilde - 4.0 * det_gamma
    radicand_bad = radicand < -NEGATIVITY_RADICAND_ATOL * np.maximum(1.0, delta_tilde * delta_tilde)
    nu_sq = (delta_tilde - np.sqrt(np.maximum(radicand, 0.0))) / 2.0
    nu_minus = np.sqrt(np.where(radicand_bad | (nu_sq <= 0.0), np.nan, nu_sq))
    # + 0.0 turns the -0.0 of nu~_- = 1 into 0.0.
    return np.maximum(0.0, -np.log2(nu_minus)) + 0.0, nu_minus


def entanglement_report(inv: InvariantSet) -> EntanglementReport:
    """Every verdict and measure of the given invariants, NaN where undefined.

    Everything beyond the lower bound needs J4, the EoF entries need
    I1 = I2, and any of the derived measures may be undefined when
    finite-shot noise pushed the reconstructed set outside the physical
    region.  Where no point is symmetric (every finite-shot reconstruction,
    for one), the EoF and its bound are NaN in the call's shape without
    evaluating the symmetric closed form.
    """
    i1, i2, i3, i4 = _quad_invariants(inv)
    separable, margin = _simon(i1, i2, i3, i4)
    negativity, nu_minus = _negativity(i1, i2, i3, i4)
    symmetric = abs(i1 - i2) <= SYM_TOL * np.maximum(i1, i2)
    if any_point(symmetric):
        # The symmetric EoF, and at I4 = 0 its lower bound: the inner radical
        # grows with I4 and E(x) decreases with x.
        eof, bound = (
            _entropy_of_squeeze_factor(_x_parameter(i1, i3, x, symmetric)) for x in (i4, 0.0)
        )
    else:  # the closed form would be NaN at every point
        eof = bound = np.full(np.shape(margin), np.nan)
    measures = (margin, eof, bound, negativity, nu_minus)
    return EntanglementReport(separable, *map(as_field, measures))
