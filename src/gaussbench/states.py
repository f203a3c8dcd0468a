"""Covariance-matrix representations of two-mode Gaussian states.

Conventions used throughout the package:

* Quadrature ordering is (x1, p1, x2, p2) with a_j = (x_j + i p_j)/sqrt(2),
  and the covariance matrix gamma is normalized so that vacuum gives the
  identity.  All states are zero-mean.
* The mode-operator form collects the symmetrized second moments of
  w = (a1, a1+, a2, a2+) into the Hermitian matrix
  V_ij = (-1)^(i+j) <w_i w_j+ + w_j+ w_i>/2, which has the block layout

      V = [[ n1 ,  m1 ,  ms ,  mc ],
           [ m1*,  n1 ,  mc*,  ms*],
           [ ms*,  mc ,  n2 ,  m2 ],
           [ mc*,  ms ,  m2*,  n2 ]]

  with n_j = <a_j+ a_j> + 1/2 real, m_j = -<a_j^2>,
  ms = <a1 a2+ + a2+ a1>/2 and mc = -<a1 a2>.  Vacuum is n_j = 1/2, m = 0.
* The two pictures are connected entry by entry.  With A_j the 2x2 block
  of mode j in gamma (A and B below) and C the cross block,
  n_j = tr A_j / 4, m_j = (A_j[1,1] - A_j[0,0] - 2i A_j[0,1]) / 4,
  ms = (C00 + C11 + i (C10 - C01)) / 4 and mc = (C11 - C00 - i (C01 + C10)) / 4,
  and mode_to_quad inverts these closed forms.

Local Gaussian unitaries act on gamma as S1 (+) S2 with S_j in Sp(2, R);
four polynomial combinations of the blocks are unchanged by them.  The
package keeps them in the mode picture only, with Z = diag(1, -1) and
V blocks V1, V2, C_V:

    J1 = det V1,  J2 = det V2,  J3 = det C_V,
    J4 = tr(V1 Z C_V Z V2 Z C_V+ Z).

invariants_quad evaluates them from gamma = [[A, C], [C^T, B]], with
J = [[0, 1], [-1, 0]]: det A = 4 J1, det B = 4 J2, det C = 4 J3 and
tr(A J C J B J C^T J) = 16 J4.  Those quadrature-convention values are the
I1..I4 that :mod:`gaussbench.entanglement` writes its closed forms in.

The symplectic eigenvalues nu_minus <= nu_plus of gamma (Williamson's
theorem) come from its Cholesky factor gamma = L L^T.  K = L^T Omega L is
real antisymmetric and similar to Omega gamma, whose eigenvalues are
+-i nu_minus and +-i nu_plus, and its Pfaffian is det L > 0.  So the
self-dual and anti-self-dual parts of K,

    a = (k01 + k23, k02 - k13, k03 + k12),
    b = (k01 - k23, k02 + k13, k03 - k12),

have the norms |a| = nu_plus + nu_minus and |b| = nu_plus - nu_minus: two
sums of squares, with no root of a cancellation at a pure state.  Where
nu_minus is below 2^-26 of |a|, |a| - |b| cancels its digits away, and
nu_minus = det L / nu_plus is taken instead (det gamma = (det L)^2 =
(nu_plus nu_minus)^2).  The
factorisation is also the positive-definiteness test, and where gamma has
no factor it has no symplectic spectrum: nu_minus and nu_plus are NaN.

The package is elementwise: a QuadCovariance may hold a (..., 4, 4) stack
and a ModeCovariance equal-shape arrays, one entry per point of a grid.
Results keep that shape (plain numbers for one state), every check runs on
every point, and a check failing anywhere raises for the whole call.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalStateError

__all__ = [
    "SYMMETRY_ATOL",
    "PHYSICALITY_SLACK",
    "OMEGA",
    "as_field",
    "first_where",
    "any_point",
    "PROPAGATION_STEP",
    "propagate",
    "QuadCovariance",
    "ModeCovariance",
    "J_KEYS",
    "InvariantSet",
    "PhysicalityReport",
    "SingleModeSymplectic",
    "StandardFormResult",
    "validate_physical",
    "quad_to_mode",
    "mode_to_quad",
    "invariants_quad",
    "standard_form_prep",
    "cross_block_form",
]

#: Absolute tolerance for the symmetry check on input covariance matrices.
SYMMETRY_ATOL = 1e-12

#: Slack allowed below the uncertainty bound nu >= 1 before a state is
#: declared unphysical (double-precision rounding of the spectrum).
PHYSICALITY_SLACK = 1e-9

#: Relative tolerance on the entries that :func:`cross_block_form` needs to vanish.
SPECIAL_FORM_TOL = 1e-9

#: Central-difference step of :func:`propagate`, in units of each input's
#: standard error: the stencil is exact (up to rounding, about eps / step) on
#: formulas at most quadratic in an input.
PROPAGATION_STEP = 1e-2

_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: Symplectic form for two modes in (x1, p1, x2, p2) ordering.
OMEGA = np.block([[_J2, np.zeros((2, 2))], [np.zeros((2, 2)), _J2]])


def as_field(x, kind=float):
    """``x`` as a plain scalar if it has no shape, else as an array (``object`` for labels)."""
    x = np.asarray(x, dtype=kind)
    return x.item() if x.ndim == 0 else x


def any_point(mask) -> bool:
    """Whether ``mask`` holds anywhere; cheap for the scalars of a single state."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def first_where(mask, values):
    """The first entry of ``values`` at which ``mask`` holds, for error messages."""
    mask, values = np.broadcast_arrays(mask, values)
    return values[mask][0]


@functools.cache
def _stencil_rows(k: int):
    """Input index i of each moved entry, and its rows 1 + i (up) and 1 + K + i
    (down), read-only: every call with K inputs shares them."""
    rows = np.arange(k), np.arange(1, k + 1), np.arange(k + 1, 2 * k + 1)
    for index in rows:
        index.flags.writeable = False
    return rows


def _stacked(values):
    """Inputs on a leading axis of one float array, broadcast to one shape."""
    try:  # inputs of one shape, the bench's and the reconstructions' case
        return np.array(values, dtype=float)
    except ValueError:
        return np.array(np.broadcast_arrays(*values), dtype=float)


def propagate(f, values, errors):
    """``(f(*values), stderr)`` for independent inputs with standard errors ``errors``.

    stderr = sqrt(sum_k (df/dx_k e_k)^2), each derivative a central difference
    over x_k +- PROPAGATION_STEP e_k.  The value and the 2K moved points go
    through one call of ``f`` on a stacked leading axis, so ``f`` must be
    elementwise, must not raise, and must round alike on plain numbers and
    on rows (square by ``x * x``: a numpy scalar's ``x**2`` is C's ``pow``);
    a tuple of outputs gives a tuple of values and one of errors.  With
    ``errors`` None nothing is stacked: ``(f(*values), None)``, so one
    state's exact values stay plain numbers.
    """
    if errors is None:
        return f(*values), None
    k = len(values)
    x = _stacked((*values, *errors))
    # moved[i] is input i in every row: row 0 is the value, row 1 + j moves
    # input j up by its step and row 1 + K + j down.  Only the moved entry
    # is added to, so a -0.0 input stays -0.0 in every other row.
    moved = np.empty((k, 2 * k + 1) + x.shape[1:])
    moved[:] = x[:k, None]
    step = PROPAGATION_STEP * x[k:]
    inputs, up, down = _stencil_rows(k)
    moved[inputs, up] += step
    moved[inputs, down] -= step
    out = f(*moved)
    several = isinstance(out, tuple)
    y = np.array(out) if several else np.asarray(out)[None]
    slope = (y[:, 1 : k + 1] - y[:, k + 1 :]) / (2.0 * PROPAGATION_STEP)
    value, stderr = y[:, 0], np.sqrt((slope * slope).sum(axis=1))
    if value.ndim == 1:  # one state: plain numbers
        value, stderr = value.tolist(), stderr.tolist()
    return (tuple(value), tuple(stderr)) if several else (value[0], stderr[0])


@dataclass(frozen=True, eq=False)
class QuadCovariance:
    """4x4 real symmetric covariance matrix in (x1, p1, x2, p2) ordering.

    Entries are vacuum-normalized (vacuum -> identity).  The matrix (or
    stack) is symmetrized on construction and stored read-only.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        g = np.array(self.entries, dtype=float)
        if g.shape[-2:] != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("covariance entries must be finite")
        # Halves first: the sum or difference of two entries near the float
        # limit overflows.  The check compares |g - g^T|/2 with half the tolerance.
        half = g / 2.0
        skew = float(np.max(np.abs(half - half.swapaxes(-1, -2)), initial=0.0))
        if skew > SYMMETRY_ATOL / 2.0:
            raise ValueError(
                f"covariance matrix is not symmetric (max |g - g^T|/2 = {skew:.3e})"
            )
        g = half + half.swapaxes(-1, -2)
        g.flags.writeable = False
        object.__setattr__(self, "entries", g)

    @property
    def block_a(self) -> np.ndarray:
        """Mode-1 2x2 diagonal block."""
        return self.entries[..., :2, :2]

    @property
    def block_b(self) -> np.ndarray:
        """Mode-2 2x2 diagonal block."""
        return self.entries[..., 2:, 2:]

    @property
    def block_c(self) -> np.ndarray:
        """Cross-correlation 2x2 block (mode 1 rows, mode 2 columns)."""
        return self.entries[..., :2, 2:]


@dataclass(frozen=True)
class ModeCovariance:
    """Scalar block entries of the mode-operator covariance matrix V.

    ``n1``/``n2`` are the symmetrized occupations <a+a> + 1/2, ``m1``/``m2``
    the single-mode squeeze correlations -<a^2>, and ``ms``/``mc`` the
    beam-splitter-like and two-mode-squeeze-like cross correlations.  Fields
    are scalars or arrays; arrays and scalars given together are broadcast.
    """

    n1: float
    n2: float
    m1: complex = 0j
    m2: complex = 0j
    ms: complex = 0j
    mc: complex = 0j

    def __post_init__(self) -> None:
        names = ("n1", "n2", "m1", "m2", "ms", "mc")
        values = [getattr(self, name) for name in names]
        if any(isinstance(x, np.ndarray) for x in values):
            values = np.broadcast_arrays(*values)
        for name, x in zip(names, values):
            object.__setattr__(self, name, as_field(x, float if name[0] == "n" else complex))
        if not np.isfinite([getattr(self, name) for name in names]).all():
            raise ValueError("mode covariance entries must be finite")
        for n, m, label in (
            (self.n1, self.m1, "1"),
            (self.n2, self.m2, "2"),
        ):
            below = n < 0.5 - PHYSICALITY_SLACK
            if any_point(below):
                raise UnphysicalStateError(
                    f"n{label} = {first_where(below, n)} violates the vacuum floor 1/2"
                )
            det = n * n - (m.real * m.real + m.imag * m.imag)
            if any_point(np.isnan(det)):  # inf - inf: both squares overflow
                raise ValueError(f"det V{label} overflows double precision")
            if any_point(det < 0.25 - PHYSICALITY_SLACK):
                raise UnphysicalStateError(
                    f"reduced mode {label} violates det V{label} >= 1/4"
                )


#: The names of J1..J4, in order: the fields of :class:`InvariantSet` and
#: the keys of a report's ``invariants`` and ``stderr``.
J_KEYS = ("j1", "j2", "j3", "j4")


@dataclass(frozen=True)
class InvariantSet:
    """The four local-symplectic invariants J1..J4 in the mode convention,
    the package's one form of them (:mod:`gaussbench.entanglement` derives
    its I1..I4 inside each call).  J1..J3 must be finite; ``j4`` is NaN, for
    one state and at any point of a batch, where a measurement scheme could
    not determine it (the default), and finite elsewhere.  One state's are
    numpy scalars, so their arithmetic obeys ``np.errstate``.
    """

    j1: float
    j2: float
    j3: float
    j4: float = math.nan

    def __post_init__(self) -> None:
        for name in J_KEYS:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float)[()])
        # |x| < inf is false for NaN and for an infinity.
        finite = (abs(self.j1) < math.inf) & (abs(self.j2) < math.inf) & (abs(self.j3) < math.inf)
        if any_point(~finite | (abs(self.j4) == math.inf)):
            raise ValueError("invariants must be finite (J4 may be NaN)")


@dataclass(frozen=True)
class PhysicalityReport:
    """Outcome of the uncertainty-bound check on a quadrature covariance.

    ``nu_minus`` and ``nu_plus`` are the symplectic eigenvalues of gamma, in
    closed form from its Cholesky factor (see :func:`validate_physical`), NaN
    at a point where gamma is not positive definite (``positive_definite``
    false), where they are undefined.  Fields are plain values for one state
    and arrays for a batch.
    """

    physical: bool
    nu_minus: float
    nu_plus: float
    positive_definite: bool


def _cholesky(entries):
    """Lower Cholesky factors of a (..., 4, 4) stack and the mask of points
    that have one, which is the positive-definiteness test.

    The whole stack is factored in one call; only when that raises is it
    factored again point by point to find the points without a factor, whose
    factor is left as the identity (their spectrum is masked out).
    """
    try:
        return np.linalg.cholesky(entries), np.ones(entries.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        pass
    stack = entries.reshape(-1, 4, 4)
    factors = np.broadcast_to(np.eye(4), stack.shape).copy()
    positive = np.zeros(len(stack), dtype=bool)
    for i, g in enumerate(stack):
        with contextlib.suppress(np.linalg.LinAlgError):
            factors[i], positive[i] = np.linalg.cholesky(g), True
    return factors.reshape(entries.shape), positive.reshape(entries.shape[:-2])


def _spectrum(g: QuadCovariance):
    """(nu_minus, nu_plus, positive_definite) of gamma, NaN off the positive-definite cone."""
    factor, positive = _cholesky(g.entries)
    # The upper entries of K = L^T Omega L, written out for a lower triangular L.
    l00, l11 = factor[..., 0, 0], factor[..., 1, 1]
    l20, l21, l22 = factor[..., 2, 0], factor[..., 2, 1], factor[..., 2, 2]
    l30, l31, l32, l33 = factor[..., 3, 0], factor[..., 3, 1], factor[..., 3, 2], factor[..., 3, 3]
    k01 = l00 * l11 + l20 * l31 - l30 * l21
    k02, k03, k23 = l20 * l32 - l30 * l22, l20 * l33, l22 * l33
    k12, k13 = l21 * l32 - l31 * l22, l21 * l33
    # Norms by nested hypot, whose squares would overflow before K does; K is
    # not halved, so |a| + |b| overflows exactly where nu_plus does.
    plus = np.hypot(np.hypot(k01 + k23, k02 - k13), k03 + k12)  # nu_plus + nu_minus
    minus = np.hypot(np.hypot(k01 - k23, k02 + k13), k03 - k12)  # nu_plus - nu_minus
    nu_plus = (plus + minus) / 2
    # Where nu_minus < 2^-26 (nu_plus + nu_minus), plus - minus has lost its
    # digits to cancellation; det L = nu_plus nu_minus keeps them, in an
    # order whose partial products overflow only where gamma's entries do.
    nu_minus = np.where(
        plus - minus < plus * 2.0**-26, l00 * l11 / nu_plus * (l22 * l33), (plus - minus) / 2
    )
    nu_minus = np.where(positive, nu_minus, math.nan)
    nu_plus = np.where(positive, nu_plus, math.nan)
    return as_field(nu_minus), as_field(nu_plus), as_field(positive, bool)


def validate_physical(g: QuadCovariance) -> PhysicalityReport:
    """Check a covariance matrix against the uncertainty bound nu >= 1.

    A matrix is physical when it is positive definite (it has a Cholesky
    factor) and its smaller symplectic eigenvalue is at least
    ``1 - PHYSICALITY_SLACK``.  It reports the symplectic spectrum from the
    same factorisation, in closed form from the entries of L^T Omega L (see
    the module docstring), and NaN where there is no factor.
    """
    nu_minus, nu_plus, positive = _spectrum(g)
    return PhysicalityReport(
        physical=as_field(positive & (np.asarray(nu_minus) >= 1.0 - PHYSICALITY_SLACK), bool),
        nu_minus=nu_minus,
        nu_plus=nu_plus,
        positive_definite=positive,
    )


def _mode_of_block(a):
    """(n, m) of one mode from its 2x2 quadrature block."""
    a00, a01, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 1]
    return (a00 + a11) / 4.0, (a11 - a00 - 2j * a01) / 4.0


def quad_to_mode(g: QuadCovariance) -> ModeCovariance:
    """Convert a quadrature covariance matrix to mode-operator form."""
    (n1, m1), (n2, m2) = _mode_of_block(g.block_a), _mode_of_block(g.block_b)
    c = g.block_c
    c00, c01, c10, c11 = c[..., 0, 0], c[..., 0, 1], c[..., 1, 0], c[..., 1, 1]
    return ModeCovariance(
        n1=n1,
        n2=n2,
        m1=m1,
        m2=m2,
        ms=(c00 + c11 + 1j * (c10 - c01)) / 4.0,
        mc=(c11 - c00 - 1j * (c01 + c10)) / 4.0,
    )


def mode_to_quad(v: ModeCovariance) -> QuadCovariance:
    """Convert mode-operator form back to the quadrature picture."""
    g = np.empty(np.shape(v.n1) + (4, 4))
    for i, n, m in ((0, v.n1, v.m1), (2, v.n2, v.m2)):
        g[..., i, i] = 2.0 * (n - m.real)
        g[..., i + 1, i + 1] = 2.0 * (n + m.real)
        g[..., i, i + 1] = g[..., i + 1, i] = -2.0 * m.imag
    ms, mc = v.ms, v.mc
    g[..., 0, 2] = g[..., 2, 0] = 2.0 * (ms.real - mc.real)
    g[..., 0, 3] = g[..., 3, 0] = -2.0 * (ms.imag + mc.imag)
    g[..., 1, 2] = g[..., 2, 1] = 2.0 * (ms.imag - mc.imag)
    g[..., 1, 3] = g[..., 3, 1] = 2.0 * (ms.real + mc.real)
    return QuadCovariance(g)


def invariants_quad(g: QuadCovariance) -> InvariantSet:
    """Evaluate the four invariants from the quadrature blocks of gamma.

    Each 2x2 product is written out entry by entry.  I4 keeps the order
    ((A JCJ) B) JC^TJ, then the trace; JCJ = [[-c11, c10], [c01, -c00]].
    """
    e = g.entries
    a00, a01, a11 = e[..., 0, 0], e[..., 0, 1], e[..., 1, 1]
    b00, b01, b11 = e[..., 2, 2], e[..., 2, 3], e[..., 3, 3]
    c00, c01, c10, c11 = e[..., 0, 2], e[..., 0, 3], e[..., 1, 2], e[..., 1, 3]
    p00, p01 = a01 * c01 - a00 * c11, a00 * c10 - a01 * c00  # A JCJ
    p10, p11 = a11 * c01 - a01 * c11, a01 * c10 - a11 * c00
    q00, q01 = p00 * b00 + p01 * b01, p00 * b01 + p01 * b11  # (A JCJ) B
    q10, q11 = p10 * b00 + p11 * b01, p10 * b01 + p11 * b11
    # times JC^TJ = [[-c11, c01], [c10, -c00]], diagonal only
    i4 = (q01 * c10 - q00 * c11) + (q10 * c01 - q11 * c00)
    return InvariantSet(
        j1=(a00 * a11 - a01 * a01) / 4,
        j2=(b00 * b11 - b01 * b01) / 4,
        j3=(c00 * c11 - c01 * c10) / 4,
        j4=i4 / 16,
    )


@dataclass(frozen=True)
class SingleModeSymplectic:
    """One-mode rotation+squeeze transformation on the (a, a+) pair.

    The matrix is

        [[exp(-i alpha) cosh theta,  exp(i alpha) sinh theta],
         [exp(-i alpha) sinh theta,  exp(i alpha) cosh theta]]

    with unit determinant; ``alpha`` is the phase and ``theta`` the squeeze
    magnitude.
    """

    alpha: float
    theta: float


@dataclass(frozen=True)
class StandardFormResult:
    """Local transformations and the resulting block-diagonalized state."""

    s1: SingleModeSymplectic
    s2: SingleModeSymplectic
    vt: ModeCovariance


def _standardizing_local(n, m, label: str) -> SingleModeSymplectic:
    """Rotation+squeeze that cancels a single mode's m = -<a^2> correlation.

    With m = |m| e^(i mu) the choice alpha = (mu + pi)/2,
    tanh(2 theta) = |m|/n sends the off-diagonal of S V_j S+ to
    n sinh(2 theta) - |m| cosh(2 theta) = 0 and the diagonal to
    sqrt(n^2 - |m|^2).  For m = 0 the exact identity is returned, so that
    the points of a batch that are already block-diagonal pass through
    untouched; :func:`standard_form_prep` does not call this for a state
    (or batch) that is block-diagonal at every point.
    """
    magnitude = abs(m)
    if any_point(magnitude >= n):
        raise UnphysicalStateError(
            f"|m{label}| >= n{label}: reduced mode {label} is unphysical"
        )
    zero = magnitude == 0.0
    phase = as_field(np.where(zero, 0.0, (np.angle(m) + math.pi) / 2))
    theta = as_field(np.where(zero, 0.0, 0.5 * np.arctanh(magnitude / n)))
    return SingleModeSymplectic(alpha=phase, theta=theta)


def standard_form_prep(v: ModeCovariance) -> StandardFormResult:
    """Block-diagonalize both single-mode blocks by local transformations.

    Returns the per-mode transformations S1, S2 and vt = S V S+ with
    m1, m2 driven to zero up to double-precision residuals, which are
    ``abs(vt.m1)`` and ``abs(vt.m2)``.  All four invariants of ``vt`` equal
    those of ``v`` since det S_j = 1.  With S_j = [[e c, f s], [f* s, e* c]]
    the conjugation is written out entry by entry.

    A state already in standard form (m1 = m2 = 0 at every point) is
    returned as it is: identity transformations (alpha = theta = 0 in the
    state's shape) and ``vt`` is ``v`` itself, signed zeros included.
    """
    if not any_point((v.m1 != 0) | (v.m2 != 0)):
        zero = as_field(np.zeros(np.shape(v.n1)))
        identity = SingleModeSymplectic(alpha=zero, theta=zero)
        return StandardFormResult(identity, identity, v)
    s1 = _standardizing_local(v.n1, v.m1, "1")
    s2 = _standardizing_local(v.n2, v.m2, "2")
    (e1, f1, c1, h1), (e2, f2, c2, h2) = (
        (np.exp(-1j * s.alpha), np.exp(1j * s.alpha), np.cosh(s.theta), np.sinh(s.theta))
        for s in (s1, s2)
    )

    def block(n, m, e, f, c, s):  # S_j V_j S_j+ -> (n~, m~)
        n_t = n * (c * c + s * s) + 2.0 * c * s * (e * np.conj(f) * m).real
        return n_t, 2.0 * e * f * c * s * n + f * f * s * s * np.conj(m) + e * e * c * c * m

    (n1, m1), (n2, m2) = block(v.n1, v.m1, e1, f1, c1, h1), block(v.n2, v.m2, e2, f2, c2, h2)
    row_s = e1 * c1 * v.ms + f1 * h1 * np.conj(v.mc)  # first row of S1 C_V
    row_c = e1 * c1 * v.mc + f1 * h1 * np.conj(v.ms)
    ms = row_s * np.conj(e2) * c2 + row_c * np.conj(f2) * h2
    vt = ModeCovariance(n1=n1, n2=n2, m1=m1, m2=m2, ms=ms, mc=row_s * f2 * h2 + row_c * e2 * c2)
    return StandardFormResult(s1, s2, vt)


def cross_block_form(v: ModeCovariance):
    """Classify the cross block of a block-diagonalized state.

    Returns ``"diagonal"`` when the cross block is diag(ms, ms*) (the mc
    entry negligible relative to the block), ``"antidiagonal"`` when it is
    antidiag(mc, mc*), and ``None`` otherwise.  A vanishing cross block
    satisfies both patterns and is reported as ``"diagonal"`` by tie-break.
    A state that is not block-diagonal (m1 = m2 = 0 within
    ``SPECIAL_FORM_TOL``) has no special form either: ``None``.
    """
    tol = SPECIAL_FORM_TOL
    block_diagonal = (abs(v.m1) <= tol * np.maximum(1.0, v.n1)) & (
        abs(v.m2) <= tol * np.maximum(1.0, v.n2)
    )
    ms_mag, mc_mag = abs(v.ms), abs(v.mc)
    total = ms_mag + mc_mag
    antidiagonal = np.where(ms_mag <= tol * total, "antidiagonal", None)
    form = np.where((mc_mag <= tol * total) | (total == 0.0), "diagonal", antidiagonal)
    return as_field(np.where(block_diagonal, form, None), object)
