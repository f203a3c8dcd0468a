"""A virtual optical bench for two-mode Gaussian states.

One mode of the input state is phase-shifted and mixed with the other on a
beam splitter of transmittance T = cos(theta); the detectors then read out
mode 1 of the output.  Two single-mode quantities are observed:

* ``N``: the symmetrized occupation <a'+ a' + 1/2> (photon counting), and
* ``J``: det of the output mode's 2x2 covariance block, equivalently the
  purity through purity = 1/(2 sqrt J) (the Wigner function at the origin
  is W(0) = purity / pi).

The output mode's moments have closed forms.  With c = cos theta and
s = sin theta,

    n' = c^2 n1 + s^2 n2 - 2 s c Re(ms e^{-i phi})
    m' = c^2 m1 e^{-2i phi} + s^2 m2 - 2 s c mc e^{-i phi}
    j' = n'^2 - |m'|^2,

evaluated elementwise over a batch of states (see :mod:`gaussbench.states`)
and over all settings of a measurement plan at once, in one bench call.

Detector imperfections are modeled as a vacuum admixture
V -> eta V + (1 - eta)/2 I (a fictitious beam splitter of transmittance
eta in front of an ideal detector), that is n -> eta n + (1 - eta)/2 and
m -> eta m.  Every detector kind reads the attenuated mode's (n, j) and
undoes the admixture exactly with :func:`invert_loss`: photon counting
reads the pair directly, and homodyne readout takes it in closed form from
three quadrature variances (a quarter of the trace and of the determinant
of the quadrature covariance they fix).

Finite-shot homodyne readout samples each quadrature's sample variance
directly.  By Cochran's theorem the sample variance of k standard normals is
distributed as chi^2_{k-1}/(k-1) = Gamma((k-1)/2) * 2/(k-1), so one gamma
draw per angle, plan entry and batch point replaces k simulated shots, and
a reading costs the same at any shot count.  Such a reading is an estimate:
the check that the corrected mode's quadrature variances are not negative
applies to exact readings only.
"""

from __future__ import annotations

import cmath
import functools
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
    "output_mode1_moments",
    "lossy_moments",
    "homodyne_variance",
    "invert_loss",
    "observe_mode1",
    "transcript",
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

    ``eta`` may be an array, one efficiency per point of a batch; it is
    stored as a read-only copy, so the efficiency check made here holds for
    the model's life and the bench does not repeat it.  Loss correction
    divides by eta^2, so an eta whose square is not a normal double
    (eta < 1.49e-154) is rejected too.  The ideal detector
    is exact photon counting at eta = 1, so it takes neither another
    efficiency nor a shot budget.
    """

    kind: str = "ideal"
    eta: float = 1.0
    shots: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in DETECTOR_KINDS:
            raise ValueError(f"unknown detector kind {self.kind!r}")
        eta = as_field(np.array(self.eta, dtype=float))
        if isinstance(eta, np.ndarray):
            eta.flags.writeable = False
        object.__setattr__(self, "eta", eta)
        _check_efficiency(eta)
        tiny = eta * eta < np.finfo(float).tiny
        if any_point(tiny):
            raise ValueError(f"eta = {first_where(tiny, eta)} too small: eta^2 underflows")
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
    output mode's covariance block; ``purity`` the derived 1/(2 sqrt j_prime),
    NaN when a noisy j_prime fell non-positive.  Standard errors are populated
    for finite-shot detectors, None otherwise.  One state's numbers are numpy
    scalars, so a reconstruction from them obeys ``np.errstate``.
    """

    setting: BenchSetting
    n_prime: float
    j_prime: float
    purity: float
    n_stderr: float | None = None
    j_stderr: float | None = None


@functools.lru_cache(maxsize=64)
def _plan_terms(settings: tuple, ndim: int):
    """c^2, s^2, 2 s c and e^{-i phi} of each setting (c = cos theta,
    s = sin theta), on a leading axis ahead of ``ndim`` batch axes."""
    cs = [(math.cos(x.theta), math.sin(x.theta), cmath.exp(-1j * x.phi)) for x in settings]
    terms = zip(*[(c * c, s * s, 2.0 * s * c, phase) for c, s, phase in cs])
    return [np.reshape(t, (len(settings),) + (1,) * ndim) for t in terms]


def output_mode1_moments(v: ModeCovariance, settings):
    """Closed-form moments (n', m') of output mode 1 at one bench setting.

    n' = c^2 n1 + s^2 n2 - 2 s c Re(ms e^{-i phi}) and
    m' = c^2 m1 e^{-2i phi} + s^2 m2 - 2 s c mc e^{-i phi}, with
    c = cos theta and s = sin theta.  A sequence of settings gives them at
    each setting, along a leading axis.
    """
    lone = isinstance(settings, BenchSetting)
    cc, ss, tsc, phase = _plan_terms((settings,) if lone else tuple(settings), np.ndim(v.n1))
    n = cc * v.n1 + ss * v.n2 - tsc * (v.ms * phase).real
    m = cc * v.m1 * phase * phase + ss * v.m2 - tsc * v.mc * phase
    return (n[0], m[0]) if lone else (n, m)


def lossy_moments(n, m, eta):
    """Vacuum admixture of an inefficient detector: eta V + (1 - eta)/2 I on (n, m)."""
    _check_efficiency(eta)
    return _lossy_moments(n, m, eta)


def _lossy_moments(n, m, eta):
    """:func:`lossy_moments` on an efficiency already checked."""
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


def invert_loss(n, j, eta):
    """Undo the vacuum admixture of :func:`lossy_moments` on a mode's measured (n, j).

    The attenuated mode has n_m = eta n + (1 - eta)/2 and
    j_m = n_m^2 - eta^2 |m|^2, so
    n = (n_m - (1 - eta)/2)/eta and
    j = (j_m - (1 - eta) n_m + (1 - eta)^2/4)/eta^2.
    Elementwise and unchecked: a noisy estimate may come out unphysical.
    At eta = 1 it returns (n, j) unchanged.  The j numerator cancels down to
    O(eta^2), so its rounding error grows like eps/eta^2 at small eta.
    """
    _check_efficiency(eta)
    return _invert_loss(n, j, eta)


def _invert_loss(n, j, eta):
    """:func:`invert_loss` on an efficiency already checked."""
    loss = 1.0 - eta
    return (n - loss * 0.5) / eta, (j - loss * n + loss * loss * 0.25) / (eta * eta)


def _homodyne_moments(v0, v90, v45):
    """(n, j) of a mode from its variances at HOMODYNE_ANGLES: a quarter of
    the trace and of the determinant of its 2x2 quadrature covariance, whose
    off-diagonal the pi/4 variance fixes."""
    off = v45 - (v0 + v90) / 2.0
    return (v0 + v90) / 4.0, (v0 * v90 - off * off) / 4.0


def _check_exact(n_prime, j_prime, eta):
    """Raise unless the corrected mode's quadrature variances are >= -delta.

    With delta = 1e-12/eta (a slack of 1e-12 on the attenuated mode), the
    eigenvalues 2 n' -+ 2 sqrt(n'^2 - j') of the quadrature covariance are
    >= -delta exactly when n' >= -delta/2 and j' >= -delta (n' + delta/4).
    """
    delta = 1e-12 / eta
    below = (n_prime < -delta / 2.0) | (j_prime < -delta * (n_prime + delta / 4.0))
    if any_point(below):
        raise UnphysicalMeasurementError(
            "loss-corrected mode has a negative quadrature variance "
            f"(n' = {first_where(below, n_prime)}, j' = {first_where(below, j_prime)})"
        )


def _derived_purity(j_prime):
    """1/(2 sqrt j') of an array of readings, NaN where j' <= 0."""
    positive = j_prime > 0.0
    return np.where(positive, 1.0 / (2.0 * np.sqrt(np.where(positive, j_prime, 1.0))), math.nan)


def _homodyne_readings(n, m, det: DetectorModel, seed):
    """The three quadrature variances of the attenuated mode, and their
    standard errors (None when exact)."""
    variances = [homodyne_variance(n, m, a) for a in HOMODYNE_ANGLES]
    if det.shots is None:
        return variances, None
    dof = det.shots - 1
    unit = np.random.default_rng(seed).standard_gamma(dof / 2.0, size=n.shape[1:] + (3, len(n)))
    unit = (unit * (2.0 / dof)).transpose(-2, -1, *range(n.ndim - 1))  # batch axes last, as in n
    variances = [variance * u for variance, u in zip(variances, unit)]
    return variances, [math.sqrt(2.0 / dof) * variance for variance in variances]


def _photocount_readings(n, m, det: DetectorModel, seed):
    """(n, j) of the attenuated mode, and their standard errors (None when exact)."""
    j = _determinant(n, m)
    if det.shots is None:
        return [n, j], None
    # Photon-number variance of a Gaussian mode with moments (n, m):
    # <dN^2> = n^2 - 1/4 + |m|^2; the purity-route j estimate is modeled
    # with a 2 j / sqrt(shots) error.
    m_sq = m.real * m.real + m.imag * m.imag
    n_err = np.sqrt(np.maximum(n * n - 0.25 + m_sq, 0.0) / det.shots)
    j_err = 2.0 * j / math.sqrt(det.shots)
    z = np.random.default_rng(seed).standard_normal(n.shape[1:] + (2, len(n)))
    z_n, z_j = z.transpose(-2, -1, *range(n.ndim - 1))  # batch axes last, as in n
    return [n + n_err * z_n, j + j_err * z_j], [n_err, j_err]


def observe_mode1(v: ModeCovariance, settings, det: DetectorModel = DetectorModel(), seed=None):
    """Measure N and J of output mode 1 at each bench setting of a plan.

    One elementwise pass over a leading settings axis, broadcast against the
    batch (points or an eta grid), gives a tuple of observations in plan
    order; a lone :class:`BenchSetting` is a one-entry plan and gives its
    one observation.  Every kind reads the mode after the vacuum admixture
    of :func:`lossy_moments` and undoes it with :func:`invert_loss` (at
    eta = 1 the ideal detector, exact photon counting, leaves the moments
    unchanged): homodyne readout from three quadrature variances, photon
    counting directly.  An exact reading whose corrected mode has a negative
    quadrature variance raises :class:`UnphysicalMeasurementError`, naming
    the first in plan order.  A finite-shot reading is one chi-square draw
    per homodyne variance or Gaussian noise on each photocount reading,
    inverted unchecked (a noisy j' <= 0 leaves the purity NaN), with
    standard errors propagated through the same inversion.  Deterministic in
    ``seed``: a finite-shot call draws all its noise at once from one
    generator, ``np.random.default_rng(seed)``: batch + (3, entries) gammas
    for homodyne (angle by entry) or batch + (2, entries) normals for photon
    counting (N noise, then J noise), filled in order, so every batch point
    has its own noise and point 0 reads what a one-state call draws.  An
    exact call draws nothing, so it leaves a caller's ``SeedSequence`` as it
    was.
    """
    lone = isinstance(settings, BenchSetting)
    if lone:
        settings = (settings,)
    n, m = output_mode1_moments(v, settings)
    if np.ndim(det.eta) > np.ndim(v.n1):  # one state over an eta grid
        n, m = n[:, None], m[:, None]
    n, m = _lossy_moments(n, m, det.eta)  # DetectorModel checked det.eta
    homodyne = det.kind == "lossy-homodyne"
    read = _homodyne_readings if homodyne else _photocount_readings
    readings, errors = read(n, m, det, seed)

    def estimate(*raw):
        return _invert_loss(*(_homodyne_moments(*raw) if homodyne else raw), det.eta)

    (n_prime, j_prime), errors = propagate(estimate, readings, errors)
    if errors is None:
        _check_exact(n_prime, j_prime, det.eta)
    observations = transcript(settings, n_prime, j_prime, *(errors or ()))
    return observations[0] if lone else observations


def transcript(settings, n_prime, j_prime, n_stderr=None, j_stderr=None):
    """One observation per setting, from readings along a leading settings
    axis, with the purity derived from its j'.  A standard error is ``None``
    or one entry (a number or ``None``) per setting.  One split per field:
    numpy scalars for one state, arrays for a batch."""
    columns = [n_prime, j_prime, _derived_purity(j_prime), n_stderr, j_stderr]
    fields = [[None] * len(settings) if x is None else list(x) for x in columns]
    return tuple(map(Mode1Observation, settings, *fields))
