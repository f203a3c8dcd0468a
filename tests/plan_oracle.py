"""The bench one setting at a time: an independent oracle for the tests.

The package reads a whole measurement plan in one bench call, over a
leading settings axis.  This module keeps the route it replaced: a loop
over the plan's entries, and for each entry a readout of its one setting
with plain-number arithmetic for a single state.  A finite-shot plan's noise
is drawn once, from one generator, in the layout ``observe_mode1``
documents (batch + (3, entries) for homodyne, batch + (2, entries) for
photon counting), and each entry reads its own slice.  The tests compare
the two by exact equality.
"""

import cmath
import math

import numpy as np

from gaussbench.bench import (
    HOMODYNE_ANGLES,
    Mode1Observation,
    _check_exact,
    _derived_purity,
    _determinant,
    _homodyne_moments,
    homodyne_variance,
    invert_loss,
    lossy_moments,
)
from gaussbench.states import propagate


def _moments(v, setting):
    c, s = math.cos(setting.theta), math.sin(setting.theta)
    phase = cmath.exp(-1j * setting.phi)
    n = c * c * v.n1 + s * s * v.n2 - 2.0 * s * c * (v.ms * phase).real
    m = c * c * v.m1 * phase * phase + s * s * v.m2 - 2.0 * s * c * v.mc * phase
    return n, m


def _homodyne_readings(n, m, det, noise):
    variances = [homodyne_variance(n, m, a) for a in HOMODYNE_ANGLES]
    if det.shots is None:
        return variances, None
    dof = det.shots - 1
    unit = noise * (2.0 / dof)
    variances = [variance * unit[..., a] for a, variance in enumerate(variances)]
    return variances, [math.sqrt(2.0 / dof) * variance for variance in variances]


def _photocount_readings(n, m, det, noise):
    j = _determinant(n, m)
    if det.shots is None:
        return [n, j], None
    m_sq = m.real * m.real + m.imag * m.imag
    n_err = np.sqrt(np.maximum(n * n - 0.25 + m_sq, 0.0) / det.shots)
    j_err = 2.0 * j / math.sqrt(det.shots)
    z_n, z_j = noise[..., 0], noise[..., 1]
    return [n + n_err * z_n, j + j_err * z_j], [n_err, j_err]


def observe_setting(v, setting, det, noise):
    """N and J of output mode 1 at one setting; ``noise`` holds its unit draws
    on a last axis (three gammas or two normals), over the batch."""
    n, m = lossy_moments(*_moments(v, setting), det.eta)
    homodyne = det.kind == "lossy-homodyne"
    read = _homodyne_readings if homodyne else _photocount_readings
    readings, errors = read(n, m, det, noise)

    def estimate(*raw):
        return invert_loss(*(_homodyne_moments(*raw) if homodyne else raw), det.eta)

    n_prime, j_prime = estimate(*readings)
    if errors is None:
        _check_exact(n_prime, j_prime, det.eta)
        n_err = j_err = None
    else:
        _, (n_err, j_err) = propagate(estimate, readings, errors)
    purity = _derived_purity(j_prime)[()]  # a number for one state
    return Mode1Observation(setting, n_prime, j_prime, purity, n_err, j_err)


def plan_noise(v, plan, det, seed):
    """A finite-shot plan's unit draws, batch + (values, entries), from one
    generator built from ``seed``; None for an exact detector."""
    if det.shots is None:
        return None
    batch = np.broadcast_shapes(np.shape(v.n1), np.shape(det.eta))
    rng = np.random.default_rng(seed)
    if det.kind == "lossy-homodyne":
        return rng.standard_gamma((det.shots - 1) / 2.0, size=batch + (3, len(plan)))
    return rng.standard_normal(batch + (2, len(plan)))


def run_plan_by_entry(v, plan, det, seed):
    """Observe every entry of ``plan`` on its own, in plan order, each on its
    slice of the plan's one draw."""
    noise = plan_noise(v, plan, det, seed)
    return tuple(
        observe_setting(v, entry.setting, det, None if noise is None else noise[..., i])
        for i, entry in enumerate(plan)
    )
