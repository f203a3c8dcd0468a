"""Separability tests and entanglement measures from symplectic invariants.

Everything here consumes an :class:`~gaussbench.states.InvariantSet` only;
no covariance matrix is touched.  Logarithms are base 2 (bits).

* Simon's PPT-based criterion decides separability from the margin
  I1 I2 + (1 - |I3|)^2 - I4 - I1 - I2 together with the sign of I3
  (positively correlated cross blocks, I3 >= 0, are always separable for
  physical states).
* The entanglement of formation has a closed form for symmetric states
  (I1 = I2); dropping I4 from its inner radical can only lower the result,
  which gives a cheap lower bound that works without the fourth invariant.
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

from .states import InvariantSet, as_field

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


def simon_separable(inv: InvariantSet) -> tuple[bool | None, float]:
    """Evaluate the separability inequality.

    Returns ``(separable, margin)`` with
    margin = I1 I2 + (1 - |I3|)^2 - I4 - I1 - I2; the state is separable
    iff I3 >= 0 or the margin is non-negative.  Where the margin is NaN
    (no J4) the verdict is ``None``: undecided.
    """
    i1, i2, i3 = inv.i1, inv.i2, inv.i3
    margin = i1 * i2 + (1.0 - abs(i3)) ** 2 - inv.i4 - i1 - i2
    separable = np.where(np.isnan(margin), None, (i3 >= 0.0) | (margin >= 0.0))
    return as_field(separable, object), as_field(margin)


def _x_parameter(i1, i3, i4):
    """Inner argument x = sqrt(I1 + |I3| - sqrt(I4 + 2 I1 |I3|)).

    For a two-mode squeezed vacuum this reduces to exp(-2r); generally it
    plays the role of an effective squeeze factor, with x >= 1 meaning no
    entanglement is seen by the symmetric closed form.  Small negative
    inner radicands (down to -EOF_RADICAND_ATOL) are clamped; x is NaN below
    that and where x^2 <= 0 (the EoF would diverge).
    """
    inner_sq = i4 + 2.0 * i1 * abs(i3)
    x_sq = i1 + abs(i3) - np.sqrt(np.maximum(inner_sq, 0.0))
    inner_bad = inner_sq < -EOF_RADICAND_ATOL
    return np.sqrt(np.where(inner_bad | (x_sq <= 0.0), np.nan, x_sq))


def _entropy_of_squeeze_factor(x):
    """E(x) = c+ log2 c+ - c- log2 c-, c± = (x^-1/2 ± x^1/2)^2 / 4.

    Strictly decreasing on (0, 1) and zero at x = 1; x >= 1 gives zero.
    """
    root = np.sqrt(np.minimum(x, 1.0))
    c_plus = (1.0 / root + root) ** 2 / 4.0
    c_minus = (1.0 / root - root) ** 2 / 4.0
    # c- log2 c- -> 0 as c- -> 0; at x >= 1 (root = 1) both terms vanish.
    return c_plus * np.log2(c_plus) - c_minus * np.log2(c_minus + (c_minus == 0.0))


def _eof(inv: InvariantSet, i4):
    """Symmetric-state EoF (bits) with the given I4, NaN where undefined.

    NaN too for a non-symmetric state, |I1 - I2| > SYM_TOL * max(I1, I2).
    With I4 = 0 it is a lower bound on the EoF: the inner radical grows with
    I4 and E(x) decreases with x, and the bound needs just I1 and I3.
    """
    value = _entropy_of_squeeze_factor(_x_parameter(inv.i1, inv.i3, i4))
    symmetric = abs(inv.i1 - inv.i2) <= SYM_TOL * np.maximum(inv.i1, inv.i2)
    return np.where(symmetric, value, np.nan)


def _negativity(inv: InvariantSet):
    """Logarithmic negativity (bits) and the PPT symplectic eigenvalue, NaN where undefined.

    nu~_-^2 = (Delta~ - sqrt(Delta~^2 - 4 det gamma))/2 with
    Delta~ = I1 + I2 - 2 I3; E_N = max(0, -log2 nu~_-).  Small negative
    radicands are clamped to zero.
    """
    det_gamma = inv.quad_determinant()
    delta_tilde = inv.i1 + inv.i2 - 2.0 * inv.i3
    radicand = delta_tilde * delta_tilde - 4.0 * det_gamma
    radicand_bad = radicand < -NEGATIVITY_RADICAND_ATOL * np.maximum(1.0, delta_tilde**2)
    nu_sq = (delta_tilde - np.sqrt(np.maximum(radicand, 0.0))) / 2.0
    nu_minus = np.sqrt(np.where(radicand_bad | (nu_sq <= 0.0), np.nan, nu_sq))
    return np.maximum(0.0, -np.log2(nu_minus)), nu_minus


def entanglement_report(inv: InvariantSet) -> EntanglementReport:
    """Every verdict and measure of the given invariants, NaN where undefined.

    Everything beyond the lower bound needs J4, the EoF entries need
    I1 = I2, and any of the derived measures may be undefined when
    finite-shot noise pushed the reconstructed set outside the physical
    region.
    """
    separable, margin = simon_separable(inv)
    negativity, nu_minus = _negativity(inv)
    measures = (margin, _eof(inv, inv.i4), _eof(inv, 0.0), negativity, nu_minus)
    return EntanglementReport(separable, *map(as_field, measures))
