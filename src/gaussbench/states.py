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
four polynomial combinations of the blocks are unchanged by them.  Writing
gamma = [[A, C], [C^T, B]] and J = [[0, 1], [-1, 0]]:

    I1 = det A,  I2 = det B,  I3 = det C,  I4 = tr(A J C J B J C^T J)

and in the mode picture, with Z = diag(1, -1) and V blocks V1, V2, C_V:

    J1 = det V1,  J2 = det V2,  J3 = det C_V,
    J4 = tr(V1 Z C_V Z V2 Z C_V+ Z),

related exactly by I1 = 4 J1, I2 = 4 J2, I3 = 4 J3, I4 = 16 J4.

The package is elementwise: a QuadCovariance may hold a (..., 4, 4) stack
and a ModeCovariance equal-shape arrays, one entry per point of a grid.
Results keep that shape (plain numbers for one state), every check runs on
every point, and a check failing anywhere raises for the whole call.
"""

from __future__ import annotations

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
    "InvariantSet",
    "PhysicalityReport",
    "SingleModeSymplectic",
    "StandardFormResult",
    "symplectic_eigenvalues",
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
#: declared unphysical (double-precision 4x4 eigenvalue noise).
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


def propagate(f, values, errors):
    """First-order standard error of ``f(*values)`` for independent inputs.

    Returns sqrt(sum_k (df/dx_k e_k)^2), each derivative a central difference
    over x_k +- PROPAGATION_STEP e_k.  All 2K moved points go through one call
    of ``f`` on a stacked leading axis, so ``f`` must be elementwise and must
    not raise; a tuple of outputs gives a tuple of standard errors.
    """
    k = len(values)
    x = np.array(np.broadcast_arrays(*values, *errors), dtype=float)
    step = PROPAGATION_STEP * x[k:]
    moved, axis = np.repeat(x[None, :k], 2 * k, axis=0), np.arange(k)
    moved[axis, axis] += step
    moved[axis + k, axis] -= step
    out = f(*moved.swapaxes(0, 1))

    def spread(y):
        slope = (y[:k] - y[k:]) / (2.0 * PROPAGATION_STEP)
        return as_field(np.sqrt((slope * slope).sum(axis=0)))

    return tuple(map(spread, out)) if isinstance(out, tuple) else spread(out)


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


@dataclass(frozen=True)
class InvariantSet:
    """The four local-symplectic invariants in the mode convention.

    The quadrature-convention values I1..I4 are derived properties with the
    exact scaling I1 = 4 J1, I2 = 4 J2, I3 = 4 J3, I4 = 16 J4, so the two
    conventions can never drift apart.  J1..J3 must be finite; ``j4`` is
    NaN, for one state and at any point of a batch, where a measurement
    scheme could not determine it (the default), and finite elsewhere.
    """

    j1: float
    j2: float
    j3: float
    j4: float = math.nan

    def __post_init__(self) -> None:
        for name in ("j1", "j2", "j3", "j4"):
            object.__setattr__(self, name, as_field(getattr(self, name)))
        finite = all(np.isfinite(x).all() for x in (self.j1, self.j2, self.j3))
        if not finite or np.isinf(self.j4).any():
            raise ValueError("invariants must be finite (J4 may be NaN)")

    @property
    def i1(self) -> float:
        return 4.0 * self.j1

    @property
    def i2(self) -> float:
        return 4.0 * self.j2

    @property
    def i3(self) -> float:
        return 4.0 * self.j3

    @property
    def i4(self) -> float:
        return 16.0 * self.j4

    def quad_determinant(self) -> float:
        """det(gamma) expressed through the invariants: I1 I2 + I3^2 - I4 (NaN without J4)."""
        return self.i1 * self.i2 + self.i3**2 - self.i4


@dataclass(frozen=True)
class PhysicalityReport:
    """Outcome of the uncertainty-bound check on a quadrature covariance."""

    physical: bool
    nu_minus: float
    nu_plus: float
    positive_definite: bool


def symplectic_eigenvalues(g: QuadCovariance) -> tuple[float, float]:
    """Symplectic spectrum of gamma: moduli of the eigenvalues of i*Omega*gamma.

    The four eigenvalue moduli come in two degenerate pairs; each pair is
    averaged to suppress eigensolver noise.  Returns (nu_minus, nu_plus).
    """
    ev = np.linalg.eigvals(1j * OMEGA @ g.entries)
    mods = np.sort(np.abs(ev), axis=-1)
    return as_field((mods[..., 0] + mods[..., 1]) / 2), as_field((mods[..., 2] + mods[..., 3]) / 2)


def validate_physical(g: QuadCovariance) -> PhysicalityReport:
    """Check a covariance matrix against the uncertainty bound nu >= 1.

    A matrix is physical when it is positive definite and both symplectic
    eigenvalues are at least ``1 - PHYSICALITY_SLACK``.
    """
    nu_minus, nu_plus = symplectic_eigenvalues(g)
    positive = np.all(np.linalg.eigvalsh(g.entries) > 0.0, axis=-1)
    return PhysicalityReport(
        physical=as_field(positive & (np.asarray(nu_minus) >= 1.0 - PHYSICALITY_SLACK), bool),
        nu_minus=nu_minus,
        nu_plus=nu_plus,
        positive_definite=as_field(positive, bool),
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
    """Evaluate the four invariants from the quadrature blocks of gamma."""
    a, b, c = g.block_a, g.block_b, g.block_c
    i1 = np.linalg.det(a)
    i2 = np.linalg.det(b)
    i3 = np.linalg.det(c)
    i4 = np.trace(a @ _J2 @ c @ _J2 @ b @ _J2 @ c.swapaxes(-1, -2) @ _J2, axis1=-2, axis2=-1)
    return InvariantSet(j1=i1 / 4, j2=i2 / 4, j3=i3 / 4, j4=i4 / 16)


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
    residual_m1: float
    residual_m2: float


def _standardizing_local(n, m, label: str) -> SingleModeSymplectic:
    """Rotation+squeeze that cancels a single mode's m = -<a^2> correlation.

    With m = |m| e^(i mu) the choice alpha = (mu + pi)/2,
    tanh(2 theta) = |m|/n sends the off-diagonal of S V_j S+ to
    n sinh(2 theta) - |m| cosh(2 theta) = 0 and the diagonal to
    sqrt(n^2 - |m|^2).  For m = 0 the exact identity is returned so that an
    already block-diagonal state passes through untouched.
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
    m1, m2 driven to zero (up to double-precision residuals, reported in
    ``residual_m1``/``residual_m2``).  All four invariants of ``vt`` equal
    those of ``v`` since det S_j = 1.  With S_j = [[e c, f s], [f* s, e* c]]
    the conjugation is written out entry by entry.
    """
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
    return StandardFormResult(s1, s2, vt, as_field(abs(vt.m1)), as_field(abs(vt.m2)))


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
