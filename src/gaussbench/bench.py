"""A virtual optical bench for two-mode Gaussian states.

One mode of the input state is phase-shifted and mixed with the other on a
beam splitter of transmittance T = cos(theta); the detectors then read out
mode 1 of the output.  Two single-mode quantities are observed:

* ``N``: the symmetrized occupation <a'+ a' + 1/2> (photon counting), and
* ``J``: det of the output mode's 2x2 covariance block, equivalently the
  purity through purity = 1/(2 sqrt J) and the Wigner function at the
  origin through W(0) = purity / pi.

The output mode's moments have closed forms.  With c = cos theta and
s = sin theta,

    n' = c^2 n1 + s^2 n2 - 2 s c Re(ms e^{-i phi})
    m' = c^2 m1 e^{-2i phi} + s^2 m2 - 2 s c mc e^{-i phi}
    j' = n'^2 - |m'|^2,

evaluated elementwise over a batch of states (see :mod:`gaussbench.states`).

Detector imperfections are modeled as a vacuum admixture
V -> eta V + (1 - eta)/2 I (a fictitious beam splitter of transmittance
eta in front of an ideal detector), that is n -> eta n + (1 - eta)/2 and
m -> eta m.  For homodyne readout the admixture is exactly invertible per
quadrature variance, which is what :func:`invert_loss_homodyne` does;
photon counting reports the moments of the attenuated mode.

Finite-shot homodyne readout samples each quadrature's sample variance
directly.  By Cochran's theorem the sample variance of k standard normals is
distributed as chi^2_{k-1}/(k-1) = Gamma((k-1)/2) * 2/(k-1), so one gamma
draw per angle replaces k simulated shots and a reading costs the same at
any shot count.  Such a reading is an estimate: the vacuum floor that
:func:`invert_loss_homodyne` enforces applies to exact readings only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalMeasurementError
from .states import ModeCovariance, any_point, as_field, first_where, propagate

__all__ = [
    "HOMODYNE_ANGLES",
    "DETECTOR_KINDS",
    "BenchSetting",
    "DetectorModel",
    "Mode1Observation",
    "LossInversion",
    "output_mode1_moments",
    "lossy_moments",
    "homodyne_variance",
    "invert_loss_homodyne",
    "observe_mode1",
]

#: Quadrature angles measured by the homodyne readout; these three determine
#: the full 2x2 real covariance of the output mode.
HOMODYNE_ANGLES = (0.0, math.pi / 2, math.pi / 4)

DETECTOR_KINDS = ("ideal", "lossy-homodyne", "lossy-photocount")


def _check_efficiency(eta, name: str = "eta") -> None:
    bad = np.logical_not((eta > 0.0) & (eta <= 1.0))
    if any_point(bad):
        raise ValueError(f"{name} = {first_where(bad, eta)} outside (0, 1]")


@dataclass(frozen=True)
class BenchSetting:
    """Beam-splitter angle theta (transmittance cos theta) and phase phi."""

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "phi", float(self.phi))
        if not -1e-12 <= self.theta <= math.pi / 2 + 1e-12:
            raise ValueError(f"theta = {self.theta} outside [0, pi/2]")
        if not -math.pi - 1e-12 < self.phi <= math.pi + 1e-12:
            raise ValueError(f"phi = {self.phi} outside (-pi, pi]")


@dataclass(frozen=True)
class DetectorModel:
    """Detector kind, efficiency and shot budget (None = unlimited).

    ``eta`` may be an array, one efficiency per point of a batch.  The
    ideal detector is exact photon counting at eta = 1, so it takes neither
    another efficiency nor a shot budget.
    """

    kind: str = "ideal"
    eta: float = 1.0
    shots: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in DETECTOR_KINDS:
            raise ValueError(f"unknown detector kind {self.kind!r}")
        object.__setattr__(self, "eta", as_field(self.eta))
        _check_efficiency(self.eta)
        if self.shots is not None:
            object.__setattr__(self, "shots", int(self.shots))
            if self.shots <= 0:
                raise ValueError("shots must be positive when finite")
            if self.kind == "lossy-homodyne" and self.shots < 2:
                raise ValueError("finite-shot homodyne needs at least two shots")
        if self.kind == "ideal" and np.any(self.eta != 1.0):
            raise ValueError("eta != 1 requires a lossy detector kind")
        if self.kind == "ideal" and self.shots is not None:
            raise ValueError("shots require a lossy detector kind")


@dataclass(frozen=True)
class Mode1Observation:
    """Readout of output mode 1 at one bench setting.

    ``n_prime`` is <a'+ a' + 1/2>, ``j_prime`` the determinant of the
    output mode's covariance block; ``purity`` and ``wigner0`` are the
    derived 1/(2 sqrt j) and purity/pi (NaN when a noisy j_prime fell
    non-positive).  Standard errors are populated for finite-shot
    detectors, None otherwise.
    """

    setting: BenchSetting
    n_prime: float
    j_prime: float
    purity: float
    wigner0: float
    n_stderr: float | None = None
    j_stderr: float | None = None


@dataclass(frozen=True)
class LossInversion:
    """Loss-corrected principal variances and the derived moments."""

    v_min: float
    v_max: float
    j_prime: float
    n_prime: float


def output_mode1_moments(v: ModeCovariance, setting: BenchSetting):
    """Closed-form moments (n', m') of output mode 1 at one bench setting.

    n' = c^2 n1 + s^2 n2 - 2 s c Re(ms e^{-i phi}) and
    m' = c^2 m1 e^{-2i phi} + s^2 m2 - 2 s c mc e^{-i phi}, with
    c = cos theta and s = sin theta.
    """
    c, s = math.cos(setting.theta), math.sin(setting.theta)
    phase = cmath.exp(-1j * setting.phi)
    n = c * c * v.n1 + s * s * v.n2 - 2.0 * s * c * (v.ms * phase).real
    m = c * c * v.m1 * phase * phase + s * s * v.m2 - 2.0 * s * c * v.mc * phase
    return n, m


def lossy_moments(n, m, eta):
    """Vacuum admixture of an inefficient detector: eta V + (1 - eta)/2 I on (n, m)."""
    _check_efficiency(eta)
    return eta * n + (1.0 - eta) * 0.5, eta * m


def _determinant(n, m):
    """det [[n, m], [m*, n]] = n^2 - |m|^2."""
    return n * n - (m.real * m.real + m.imag * m.imag)


def homodyne_variance(n, m, angle: float):
    """Variance of the rotated quadrature x cos(angle) + p sin(angle).

    The mode (n, m) has quadrature covariance
    2 [[n - Re m, -Im m], [-Im m, n + Re m]], so the variance is
    2 n - 2 Re(m e^{-2i angle}).
    """
    return 2.0 * n - 2.0 * (m * cmath.exp(-2j * angle)).real


def _inversion(v_min_meas, v_max_meas, eta):
    """The fields of :class:`LossInversion`, unchecked."""
    floor = 1.0 - eta
    v_min = (v_min_meas - floor) / eta
    v_max = (v_max_meas - floor) / eta
    return v_min, v_max, v_min * v_max / 4.0, (v_min + v_max) / 4.0


def invert_loss_homodyne(v_min_meas, v_max_meas, eta_hom) -> LossInversion:
    """Undo the vacuum admixture on measured principal quadrature variances.

    Each measured variance satisfies meas = eta * true + (1 - eta), so
    true = (meas - 1 + eta)/eta.  The output moments follow from the
    corrected pair: tr gamma'_1 = 2 tr V'_1 = 4 n' gives
    n' = (v_min + v_max)/4, and det gamma'_1 = 4 det V'_1 gives
    j' = v_min v_max / 4.  A variance below the vacuum floor 1 - eta raises
    :class:`UnphysicalMeasurementError`.
    """
    _check_efficiency(eta_hom, "eta_hom")
    below = (v_min_meas < 1.0 - eta_hom - 1e-12) | (v_max_meas < 1.0 - eta_hom - 1e-12)
    if any_point(below):
        eta = first_where(below, eta_hom)
        raise UnphysicalMeasurementError(
            f"measured variance below the vacuum floor {1.0 - eta} for eta = {eta}"
        )
    return LossInversion(*_inversion(v_min_meas, v_max_meas, eta_hom))


def _principal_variances(v0, v90, v45):
    """Eigenvalues mean -+ sqrt(half_diff^2 + off^2) of the 2x2 quadrature
    covariance read at HOMODYNE_ANGLES; the pi/4 variance fixes the off-diagonal."""
    off = v45 - (v0 + v90) / 2.0
    mean = (v0 + v90) / 2.0
    radius = np.hypot((v0 - v90) / 2.0, off)
    return mean - radius, mean + radius


def _derived_purity(j_prime):
    positive = j_prime > 0.0
    purity = np.where(positive, 1.0 / (2.0 * np.sqrt(np.where(positive, j_prime, 1.0))), math.nan)
    return as_field(purity), as_field(purity / math.pi)


def _observe_homodyne(n, m, det: DetectorModel, seed):
    variances = [homodyne_variance(n, m, a) for a in HOMODYNE_ANGLES]
    # The admixture is isotropic, so undoing it on the principal variances
    # equals undoing it per angle.
    if det.shots is None:
        corrected = invert_loss_homodyne(*_principal_variances(*variances), det.eta)
        return corrected.n_prime, corrected.j_prime, None, None

    # One draw per call: every point of a batch scales the same three unit
    # sample variances, each Gamma((shots-1)/2) * 2/(shots-1) by Cochran's
    # theorem, so the cost does not grow with ``shots``.
    dof = det.shots - 1
    rng = np.random.default_rng(seed)
    unit = rng.standard_gamma(dof / 2.0, size=len(HOMODYNE_ANGLES)) * (2.0 / dof)
    variances = [variance * u for variance, u in zip(variances, unit)]
    stderrs = [math.sqrt(2.0 / dof) * variance for variance in variances]

    # A finite-shot reading is an estimate: shot noise may carry it below
    # the vacuum floor, so it is inverted unchecked (a non-positive j' then
    # leaves the purity undefined).  The errors carry the three sampled
    # variances through that same inversion.
    def estimate(*v):
        _, _, j_prime, n_prime = _inversion(*_principal_variances(*v), det.eta)
        return j_prime, n_prime

    j_prime, n_prime = estimate(*variances)
    j_err, n_err = propagate(estimate, variances, stderrs)
    return n_prime, j_prime, n_err, j_err


def _observe_photocount(n, m, det: DetectorModel, seed):
    if det.shots is None:
        return n, _determinant(n, m), None, None
    # Photon-number variance of a Gaussian mode with moments (n, m):
    # <dN^2> = n^2 - 1/4 + |m|^2; the purity-route j estimate is modeled
    # with a 2 j / sqrt(shots) error.
    j_true = _determinant(n, m)
    m_sq = m.real * m.real + m.imag * m.imag
    n_err = np.sqrt(np.maximum(n * n - 0.25 + m_sq, 0.0) / det.shots)
    j_err = 2.0 * j_true / math.sqrt(det.shots)
    rng = np.random.default_rng(seed)
    z_n, z_j = rng.standard_normal(), rng.standard_normal()
    return n + n_err * z_n, j_true + j_err * z_j, n_err, j_err


def observe_mode1(
    v: ModeCovariance,
    setting: BenchSetting,
    det: DetectorModel = DetectorModel(),
    seed=None,
) -> Mode1Observation:
    """Measure N and J of output mode 1 at one bench setting.

    Every kind first mixes in vacuum noise via :func:`lossy_moments`; the
    ideal detector is exact photon counting at eta = 1, where that admixture
    leaves the closed-form moments unchanged.  Homodyne readout then inverts
    the admixture on three quadrature variances; for finite shots each is
    scaled by one chi-square (gamma) draw, at a cost independent of
    ``shots``, and inverted without the vacuum floor check, so a noisy
    non-positive j' leaves purity and wigner0 NaN.  Photocount readout
    perturbs the lossy moments with Gaussian noise at the physical
    shot-noise scale.  Deterministic in ``seed``: a call builds one
    generator from ``seed`` and draws once, and every point of a batch
    scales those same draws, so it reads what its single-state call with
    that seed reads.
    """
    n, m = lossy_moments(*output_mode1_moments(v, setting), det.eta)
    observe = _observe_homodyne if det.kind == "lossy-homodyne" else _observe_photocount
    n_prime, j_prime, n_err, j_err = observe(n, m, det, seed)
    return Mode1Observation(setting, n_prime, j_prime, *_derived_purity(j_prime), n_err, j_err)
