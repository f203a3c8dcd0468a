"""The bench as 4x4 / 2x2 matrix algebra: an independent oracle for the tests.

The package computes output-port moments, losses, quadrature variances, the
standard form and the quadrature <-> mode conversions in closed form.  This
module keeps the matrix route to the same numbers, assembling the Hermitian
mode matrix V, changing basis by the fixed unitary K (V = K (gamma/2) K+)
and conjugating by the Bogoliubov transformation of the bench, so the tests
can compare the two.  Apart from the conversions and the layout helpers,
which take stacks, it works on single states only.
"""

import cmath
import math

import numpy as np

from gaussbench.bench import HOMODYNE_ANGLES, BenchSetting
from gaussbench.states import (
    InvariantSet,
    ModeCovariance,
    QuadCovariance,
    SingleModeSymplectic,
    any_point,
)

_Z2 = np.diag([1.0, -1.0]).astype(complex)

# Basis change between quadrature and mode-operator second moments,
# V = _K (gamma/2) _K+.  Rows correspond to (a1, -a1+, a2, -a2+) built from
# (x1, p1, x2, p2); the sign flips on the conjugate rows produce the
# alternating-sign convention of the V layout.
_K1 = np.array([[1.0, 1.0j], [-1.0, 1.0j]], dtype=complex) / math.sqrt(2.0)
_K = np.block(
    [[_K1, np.zeros((2, 2), dtype=complex)], [np.zeros((2, 2), dtype=complex), _K1]]
)


def _assemble(rows) -> np.ndarray:
    """Nested rows of equal-shape entries as a (..., rows, columns) matrix stack."""
    return np.moveaxis(np.array(rows, dtype=complex), (0, 1), (-2, -1))


def mode_matrix(v: ModeCovariance) -> np.ndarray:
    """Assemble the full 4x4 Hermitian matrix V from the six scalars."""
    n1, n2, m1, m2, ms, mc = v.n1, v.n2, v.m1, v.m2, v.ms, v.mc
    return _assemble(
        [
            [n1, m1, ms, mc],
            [np.conj(m1), n1, np.conj(mc), np.conj(ms)],
            [np.conj(ms), mc, n2, m2],
            [np.conj(mc), ms, np.conj(m2), n2],
        ]
    )


def block1(v: ModeCovariance) -> np.ndarray:
    return _assemble([[v.n1, v.m1], [np.conj(v.m1), v.n1]])


def block2(v: ModeCovariance) -> np.ndarray:
    return _assemble([[v.n2, v.m2], [np.conj(v.m2), v.n2]])


def cross(v: ModeCovariance) -> np.ndarray:
    return _assemble([[v.ms, v.mc], [np.conj(v.mc), np.conj(v.ms)]])


def mode_from_matrix(v: np.ndarray, atol: float = 1e-10) -> ModeCovariance:
    """Extract the six scalars from a 4x4 matrix, checking the layout.

    ``v`` may be a (..., 4, 4) stack; ``atol`` bounds the Hermiticity error
    and the internal repetitions of the layout (an array gives one per matrix).
    """
    v = np.asarray(v, dtype=complex)
    if v.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {v.shape}")
    if any_point(np.max(np.abs(v - v.swapaxes(-1, -2).conj()), axis=(-2, -1)) > atol):
        raise ValueError("matrix is not Hermitian within tolerance")
    repeats = [v[..., 0, 0] - v[..., 1, 1], v[..., 2, 2] - v[..., 3, 3]]
    repeats += [v[..., 0, 2] - np.conj(v[..., 1, 3]), v[..., 0, 3] - np.conj(v[..., 1, 2])]
    if any_point(np.abs(repeats).max(axis=0) > atol):
        raise ValueError("matrix does not have the two-mode block layout")
    return ModeCovariance(
        n1=(v[..., 0, 0] + v[..., 1, 1]).real / 2,
        n2=(v[..., 2, 2] + v[..., 3, 3]).real / 2,
        m1=v[..., 0, 1],
        m2=v[..., 2, 3],
        ms=(v[..., 0, 2] + np.conj(v[..., 1, 3])) / 2,
        mc=(v[..., 0, 3] + np.conj(v[..., 1, 2])) / 2,
    )


def quad_to_mode_by_matrix(g: QuadCovariance) -> ModeCovariance:
    """V = K (gamma/2) K+, parsed back into the six scalars."""
    v = _K @ (g.entries / 2.0) @ _K.conj().T
    return mode_from_matrix(v, atol=1e-9 * np.maximum(1.0, np.abs(v).max((-2, -1))))


def mode_to_quad_by_matrix(v: ModeCovariance) -> QuadCovariance:
    """gamma = 2 K+ V K, checked to be real."""
    g = 2.0 * _K.conj().T @ mode_matrix(v) @ _K
    scale = np.maximum(1.0, np.abs(g).max((-2, -1)))
    if any_point(np.abs(g.imag).max((-2, -1)) > 1e-10 * scale):
        raise ValueError("mode covariance does not map to a real quadrature matrix")
    return QuadCovariance(g.real)


def invariants_mode(v: ModeCovariance) -> InvariantSet:
    """Evaluate the four invariants from the mode-operator blocks of V."""
    v1, v2, c = block1(v), block2(v), cross(v)
    c_dagger = c.swapaxes(-1, -2).conj()
    j1 = np.linalg.det(v1).real
    j2 = np.linalg.det(v2).real
    j3 = np.linalg.det(c).real
    j4 = np.trace(v1 @ _Z2 @ c @ _Z2 @ v2 @ _Z2 @ c_dagger @ _Z2, axis1=-2, axis2=-1).real
    return InvariantSet(j1=j1, j2=j2, j3=j3, j4=j4)


def bogoliubov(setting: BenchSetting) -> np.ndarray:
    """4x4 unitary mixing (a1, a1+, a2, a2+) for the given bench setting.

    Block form [[R, S], [-S*, R*]] with R = diag(e^{i phi} cos theta,
    e^{-i phi} cos theta) and S = sin(theta) I.
    """
    c, s = math.cos(setting.theta), math.sin(setting.theta)
    phase = np.exp(1j * setting.phi)
    r_block = np.diag([phase * c, np.conj(phase) * c])
    s_block = s * np.eye(2, dtype=complex)
    return np.block([[r_block, s_block], [-np.conj(s_block), np.conj(r_block)]])


def transform_covariance(v: ModeCovariance, setting: BenchSetting) -> np.ndarray:
    """Full output covariance U+ V U (both modes)."""
    u = bogoliubov(setting)
    return u.conj().T @ mode_matrix(v) @ u


def output_mode1_covariance(v: ModeCovariance, setting: BenchSetting) -> np.ndarray:
    """Covariance block of output mode 1, written out term by term.

    V'_1 = R* V1 R + S V2 S* - S C+ R - R* C S*, where V1, V2, C are the
    input blocks and R, S the Bogoliubov blocks.  Agrees with the (1,1)
    block of :func:`transform_covariance`; kept as an independent expression
    so the two can cross-check each other.
    """
    c, s = math.cos(setting.theta), math.sin(setting.theta)
    phase = np.exp(1j * setting.phi)
    r_block = np.diag([phase * c, np.conj(phase) * c])
    s_block = s * np.eye(2, dtype=complex)
    v1, v2, c_v = block1(v), block2(v), cross(v)
    return (
        np.conj(r_block) @ v1 @ r_block
        + s_block @ v2 @ np.conj(s_block)
        - s_block @ c_v.conj().T @ r_block
        - np.conj(r_block) @ c_v @ np.conj(s_block)
    )


def output_mode2_covariance(v: ModeCovariance, setting: BenchSetting) -> np.ndarray:
    """Covariance block of output mode 2, from the full conjugation."""
    return transform_covariance(v, setting)[2:, 2:]


def mode_block_to_quad(block: np.ndarray) -> np.ndarray:
    """Convert a single-mode 2x2 block from mode to quadrature convention."""
    g = 2.0 * _K1.conj().T @ np.asarray(block, dtype=complex) @ _K1
    return g.real


def quadrature_variance(quad_block: np.ndarray, angle: float) -> float:
    """Variance of the rotated quadrature x cos(angle) + p sin(angle)."""
    u = np.array([math.cos(angle), math.sin(angle)])
    return float(u @ quad_block @ u)


def apply_loss(v1p: np.ndarray, eta: float) -> np.ndarray:
    """Vacuum admixture of an inefficient detector: eta V + (1 - eta)/2 I."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta = {eta} outside (0, 1]")
    v1p = np.asarray(v1p, dtype=complex)
    return eta * v1p + (1.0 - eta) * 0.5 * np.eye(2, dtype=complex)


def homodyne_variances(v: ModeCovariance, setting: BenchSetting, eta: float) -> list:
    """The lossy output mode's variances at the three homodyne angles."""
    quad = mode_block_to_quad(apply_loss(output_mode1_covariance(v, setting), eta))
    return [quadrature_variance(quad, a) for a in HOMODYNE_ANGLES]


def observe_exact(v: ModeCovariance, setting: BenchSetting):
    """(n', j') that every exact-moment detector reports, by the matrix route.

    Each kind undoes its loss exactly, so it reads the unattenuated output mode.
    """
    v1p = output_mode1_covariance(v, setting)
    return v1p[0, 0].real, np.linalg.det(v1p).real


def local_symplectic_matrix(s: SingleModeSymplectic) -> np.ndarray:
    """The 2x2 matrix of a one-mode rotation+squeeze on (a, a+)."""
    ch, sh = math.cosh(s.theta), math.sinh(s.theta)
    e = cmath.exp(-1j * s.alpha)
    return np.array([[e * ch, np.conj(e) * sh], [e * sh, np.conj(e) * ch]], dtype=complex)


def standard_form_by_matrix(v: ModeCovariance, s1, s2) -> ModeCovariance:
    """(S1 (+) S2) V (S1 (+) S2)+ as a full 4x4 conjugation."""
    zero = np.zeros((2, 2), dtype=complex)
    s = np.block(
        [[local_symplectic_matrix(s1), zero], [zero, local_symplectic_matrix(s2)]]
    )
    vt = s @ mode_matrix(v) @ s.conj().T
    return mode_from_matrix(vt, atol=1e-9 * max(1.0, float(np.max(np.abs(vt)))))
