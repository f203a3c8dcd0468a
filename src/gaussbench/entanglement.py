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
undefined plus its ordered domain checks: :func:`entanglement_report` reports
NaN as ``None`` (one state) and the public measures raise on a failed check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetricError, NumericalDomainError
from .states import InvariantSet, any_point, as_field, first_where, optional_field

__all__ = [
    "EntanglementReport",
    "simon_separable",
    "eof_symmetric",
    "eof_lower_bound",
    "log_negativity",
    "entanglement_report",
]

#: Small negatives tolerated (and clamped) in the EoF radicands.
EOF_RADICAND_ATOL = 1e-12

#: Tolerance on the negativity radicand Delta~^2 - 4 det(gamma).
NEGATIVITY_RADICAND_ATOL = 1e-9

#: Relative tolerance for treating I1 and I2 as equal.
SYM_TOL = 1e-6


@dataclass(frozen=True)
class EntanglementReport:
    """Separability verdict and measures; fields are None when undecidable.

    ``eof``/``eof_lower_bound`` are absent for non-symmetric states, and
    everything that needs the fourth invariant (``separable``,
    ``simon_lhs_minus_rhs``, ``log_negativity``, ``nu_tilde_minus``) is
    absent when the invariant set lacks it.  In a batch, NaN (``None`` in
    ``separable``) marks an absent value.
    """

    separable: bool | None
    simon_lhs_minus_rhs: float | None
    eof: float | None
    eof_lower_bound: float | None
    log_negativity: float | None
    nu_tilde_minus: float | None


def simon_separable(inv: InvariantSet) -> tuple[bool, float]:
    """Evaluate the separability inequality.

    Returns ``(separable, margin)`` with
    margin = I1 I2 + (1 - |I3|)^2 - I4 - I1 - I2; the state is separable
    iff I3 >= 0 or the margin is non-negative.
    """
    i1, i2, i3 = inv.i1, inv.i2, inv.i3
    i4 = inv.require_i4()
    margin = i1 * i2 + (1.0 - abs(i3)) ** 2 - i4 - i1 - i2
    return as_field((i3 >= 0.0) | (margin >= 0.0), bool), as_field(margin)


def _symmetric(inv: InvariantSet):
    return abs(inv.i1 - inv.i2) <= SYM_TOL * np.maximum(inv.i1, inv.i2)


def _require_symmetric(inv: InvariantSet) -> None:
    asymmetric = np.logical_not(_symmetric(inv))
    if any_point(asymmetric):
        raise NotSymmetricError(
            f"I1 = {first_where(asymmetric, inv.i1)} and "
            f"I2 = {first_where(asymmetric, inv.i2)} differ beyond SYM_TOL = {SYM_TOL}"
        )


def _checked(value, checks):
    """``value``, after raising NumericalDomainError for the first failed domain check."""
    for failed, message, bad in checks:
        if any_point(failed):
            raise NumericalDomainError(f"{message}: {first_where(failed, bad)}")
    return as_field(value)


def _x_parameter(i1, i3, i4):
    """Inner argument x = sqrt(I1 + |I3| - sqrt(I4 + 2 I1 |I3|)).

    For a two-mode squeezed vacuum this reduces to exp(-2r); generally it
    plays the role of an effective squeeze factor, with x >= 1 meaning no
    entanglement is seen by the symmetric closed form.  Small negative
    radicands (down to -EOF_RADICAND_ATOL) are clamped.
    """
    inner_sq = i4 + 2.0 * i1 * abs(i3)
    x_sq = i1 + abs(i3) - np.sqrt(np.maximum(inner_sq, 0.0))
    inner_bad = inner_sq < -EOF_RADICAND_ATOL
    checks = (
        (inner_bad, "EoF inner radicand is negative beyond tolerance", inner_sq),
        (x_sq < -EOF_RADICAND_ATOL, "EoF x^2 is negative", x_sq),
        (x_sq <= 0.0, "EoF diverges (x = 0) at this invariant set; x^2", x_sq),
    )
    return np.sqrt(np.where(inner_bad | (x_sq <= 0.0), np.nan, x_sq)), checks


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
    """Symmetric-state EoF with the given I4, NaN where undefined, plus its checks."""
    x, checks = _x_parameter(inv.i1, inv.i3, i4)
    value = _entropy_of_squeeze_factor(x)
    return np.where(_symmetric(inv), value, np.nan), checks


def eof_symmetric(inv: InvariantSet) -> float:
    """Entanglement of formation (bits) for a symmetric state (I1 = I2).

    Raises :class:`NotSymmetricError` when |I1 - I2| exceeds
    ``SYM_TOL * max(I1, I2)``; callers should fall back to the logarithmic
    negativity in that case.
    """
    _require_symmetric(inv)
    return _checked(*_eof(inv, inv.require_i4()))


def eof_lower_bound(inv: InvariantSet) -> float:
    """Lower bound on the symmetric EoF obtained by zeroing I4.

    Since the inner radical grows with I4 and E(x) decreases with x, using
    I4 = 0 can only underestimate; the bound needs just I1 and I3 and so
    works for invariant sets whose fourth entry is unknown.
    """
    _require_symmetric(inv)
    return _checked(*_eof(inv, 0.0))


def _negativity(inv: InvariantSet):
    """E_N and nu~_-, NaN where undefined, plus the domain checks in order."""
    det_gamma = inv.quad_determinant()
    delta_tilde = inv.i1 + inv.i2 - 2.0 * inv.i3
    radicand = delta_tilde * delta_tilde - 4.0 * det_gamma
    radicand_bad = radicand < -NEGATIVITY_RADICAND_ATOL * np.maximum(1.0, delta_tilde**2)
    nu_sq = (delta_tilde - np.sqrt(np.maximum(radicand, 0.0))) / 2.0
    checks = (
        (radicand_bad, "negativity radicand is negative beyond tolerance", radicand),
        (nu_sq <= 0.0, "PPT symplectic eigenvalue squared <= 0", nu_sq),
    )
    nu_minus = np.sqrt(np.where(radicand_bad | (nu_sq <= 0.0), np.nan, nu_sq))
    return np.maximum(0.0, -np.log2(nu_minus)), nu_minus, checks


def log_negativity(inv: InvariantSet) -> tuple[float, float]:
    """Logarithmic negativity (bits) and the PPT symplectic eigenvalue.

    nu~_-^2 = (Delta~ - sqrt(Delta~^2 - 4 det gamma))/2 with
    Delta~ = I1 + I2 - 2 I3; E_N = max(0, -log2 nu~_-).  Small negative
    radicands are clamped to zero.
    """
    value, nu_minus, checks = _negativity(inv)
    return _checked(value, checks), as_field(nu_minus)


def entanglement_report(inv: InvariantSet) -> EntanglementReport:
    """Assemble all verdicts/measures computable from the given invariants.

    Fields the invariant set cannot support stay None: everything beyond
    the lower bound needs J4, the EoF entries need I1 = I2, and any of the
    derived measures may be undefined when finite-shot noise pushed the
    reconstructed set outside the physical region.
    """
    bound, _ = _eof(inv, 0.0)
    eof = negativity = nu_minus = margin = separable = None
    if inv.j4 is not None:
        separable, margin = simon_separable(inv)
        negativity, nu_minus, _ = _negativity(inv)
        eof, _ = _eof(inv, inv.i4)
        separable = as_field(np.where(np.isnan(margin), None, separable), object)
    measures = (margin, eof, bound, negativity, nu_minus)
    return EntanglementReport(separable, *(optional_field(x) for x in measures))
