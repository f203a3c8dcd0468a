"""The bench as 4x4 / 2x2 matrix algebra: an independent oracle for the tests.

The package computes output-port moments, losses, quadrature variances and
the standard form in closed form.  This module keeps the matrix route to
the same numbers, conjugating full covariance matrices by the Bogoliubov
transformation of the bench, so the tests can compare the two.  It works
on single states only.
"""

import cmath
import math

import numpy as np

from gaussbench.bench import HOMODYNE_ANGLES, BenchSetting, DetectorModel, invert_loss_homodyne
from gaussbench.states import ModeCovariance, SingleModeSymplectic

_K1 = np.array([[1.0, 1.0j], [-1.0, 1.0j]], dtype=complex) / math.sqrt(2.0)


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
    return u.conj().T @ v.matrix() @ u


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
    v1, v2, cross = v.block1(), v.block2(), v.cross()
    return (
        np.conj(r_block) @ v1 @ r_block
        + s_block @ v2 @ np.conj(s_block)
        - s_block @ cross.conj().T @ r_block
        - np.conj(r_block) @ cross @ np.conj(s_block)
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


def observe_exact(v: ModeCovariance, setting: BenchSetting, det: DetectorModel):
    """(n', j') that an exact-moment detector reports, by the matrix route."""
    v1p = output_mode1_covariance(v, setting)
    if det.kind == "ideal":
        return v1p[0, 0].real, np.linalg.det(v1p).real
    if det.kind == "lossy-photocount":
        lossy = apply_loss(v1p, det.eta)
        return lossy[0, 0].real, np.linalg.det(lossy).real
    v0, v90, v45 = homodyne_variances(v, setting, det.eta)
    off = v45 - (v0 + v90) / 2.0
    w = np.linalg.eigvalsh(np.array([[v0, off], [off, v90]]))
    corrected = invert_loss_homodyne(float(w[0]), float(w[1]), det.eta)
    return corrected.n_prime, corrected.j_prime


def local_symplectic_matrix(s: SingleModeSymplectic) -> np.ndarray:
    """The 2x2 matrix of a one-mode rotation+squeeze on (a, a+)."""
    ch, sh = math.cosh(s.theta), math.sinh(s.theta)
    ea, eb = cmath.exp(-1j * s.alpha), cmath.exp(1j * s.beta)
    return np.array(
        [[ea * ch, eb * sh], [np.conj(eb) * sh, np.conj(ea) * ch]], dtype=complex
    )


def standard_form_by_matrix(v: ModeCovariance, s1, s2) -> ModeCovariance:
    """(S1 (+) S2) V (S1 (+) S2)+ as a full 4x4 conjugation."""
    zero = np.zeros((2, 2), dtype=complex)
    s = np.block(
        [[local_symplectic_matrix(s1), zero], [zero, local_symplectic_matrix(s2)]]
    )
    vt = s @ v.matrix() @ s.conj().T
    return ModeCovariance.from_matrix(vt, atol=1e-9 * max(1.0, float(np.max(np.abs(vt)))))
