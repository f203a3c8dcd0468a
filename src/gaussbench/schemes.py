"""Measurement protocols reconstructing symplectic invariants.

Both protocols observe only output mode 1 of the bench, at a handful of
fixed (theta, phi) settings:

* Protocol 1 reads J1 and J2 directly from the determinant observable at
  full transmission / full reflection and combines six determinant and
  four photon-number readings at theta = pi/4 into J3.  The fourth
  invariant is out of reach unless the state's cross block is known to be
  diagonal or antidiagonal, in which case J4 = 2 |J3| sqrt(J1 J2) exactly.
* Protocol 2 first block-diagonalizes the state by local operations
  (standard_form_prep), after which four settings determine all four
  invariants, including the decomposition of the cross block into
  Re m~s, Im m~s and |m~c|.

Each protocol's settings and readings are declared once, in ``SCHEME1_PLAN``
and ``SCHEME2_PLAN``: the bench observes the settings, the reconstruction
reads the readings.

Reconstruction is a pure function of the transcript, the bench's
observations (plus, for protocol 1, the recorded special-form flag):
:func:`reconstruct_from_transcript` rebuilds a run's result bit for bit.  A
transcript is one observation at each setting of its protocol's plan, in any
order; any other raises :class:`ReconstructionError`.  Each protocol writes
its invariants once, as one elementwise function of the readings; the
standard errors are that function's first-order propagation
(:func:`~gaussbench.states.propagate`), with the readings taken as independent.

A noisy reading is reconstructed as it came out, negatives included, and a
number it cannot support is NaN, J4 included: a NaN J4 marks a result that
has the symmetric lower bound only.

Both protocols are elementwise: one bench call reads a whole plan for a batch
of states, and its observations hold arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bench import BenchSetting, DetectorModel, Mode1Observation, observe_mode1
from .entanglement import EntanglementReport, entanglement_report
from .errors import ReconstructionError
from .states import (
    J_KEYS,
    InvariantSet,
    ModeCovariance,
    as_field,
    cross_block_form,
    propagate,
    standard_form_prep,
)

__all__ = [
    "PlanEntry",
    "SCHEME1_PLAN",
    "SCHEME2_PLAN",
    "SchemeResult",
    "scheme1",
    "scheme2",
    "reconstruct_scheme1",
    "reconstruct_scheme2",
    "reconstruct_from_transcript",
]

@dataclass(frozen=True)
class PlanEntry:
    """One bench setting and the named readings taken from its observation.

    A reading's name starts with its observable letter, ``N`` or ``J``; the
    rest tags the setting (``"J45pi"`` is J at theta = pi/4, phi = pi).
    """

    setting: BenchSetting
    readings: tuple[str, ...]


#: Protocol 1: both observables at four settings, J alone at two more.
SCHEME1_PLAN = (
    PlanEntry(BenchSetting(0.0, 0.0), ("N00", "J00")),
    PlanEntry(BenchSetting(math.pi / 2, 0.0), ("N90", "J90")),
    PlanEntry(BenchSetting(math.pi / 4, 0.0), ("N45", "J45")),
    PlanEntry(BenchSetting(math.pi / 4, math.pi / 2), ("N45p", "J45p")),
    PlanEntry(BenchSetting(math.pi / 4, math.pi), ("J45pi",)),
    PlanEntry(BenchSetting(math.pi / 4, -math.pi / 2), ("J45m",)),
)

#: Protocol 2: both observables at the four standard-form settings.
SCHEME2_PLAN = SCHEME1_PLAN[:4]


@dataclass(frozen=True)
class SchemeResult:
    """Reconstructed invariants plus everything needed to audit them; the
    ``observations`` and scheme 1's ``special_form`` fix every field."""

    scheme: str
    invariants: InvariantSet
    entanglement: EntanglementReport
    observations: tuple[Mode1Observation, ...]
    invariant_stderr: dict | None
    special_form: str | None = None
    ms_real: float | None = None
    ms_imag: float | None = None
    mc_magnitude: float | None = None  # sign is unrecoverable; NaN where |m~c|^2 < 0


def _at(setting: BenchSetting) -> str:
    """A setting as an error message names it, exactly."""
    return f"theta={setting.theta!r}, phi={setting.phi!r}"


def _readings(observations, plan, names):
    """Values and standard errors of the named readings of ``plan``, from
    one observation at each plan setting (``==``), in any order; else
    :class:`ReconstructionError` names the first setting off the plan or
    observed twice, or else the first missing.  The errors are ``None`` when
    every named reading is exact, otherwise a missing stderr counts as 0.
    """
    # Keyed on (theta, phi), which BenchSetting equality compares, for a
    # faster hash than the dataclass's.
    index = {(entry.setting.theta, entry.setting.phi): i for i, entry in enumerate(plan)}
    found = [None] * len(plan)
    for obs in observations:
        i = index.get((obs.setting.theta, obs.setting.phi))
        if i is None:
            raise ReconstructionError(
                f"transcript has an observation off its plan at {_at(obs.setting)}"
            )
        if found[i] is not None:
            raise ReconstructionError(f"transcript has two observations at {_at(obs.setting)}")
        found[i] = obs
    for entry, obs in zip(plan, found):
        if obs is None:
            raise ReconstructionError(f"transcript has no observation at {_at(entry.setting)}")
    obs_of = {name: obs for entry, obs in zip(plan, found) for name in entry.readings}
    values, errors = [], []
    for name in names:
        obs = obs_of[name]
        n = name[0] == "N"
        values.append(obs.n_prime if n else obs.j_prime)
        errors.append(obs.n_stderr if n else obs.j_stderr)
    if all(e is None for e in errors):
        return values, None
    return values, [0.0 if e is None else e for e in errors]


def _known(special_form):
    """Where a special form is recorded; ``None`` marks an unknown cross block."""
    return np.asarray(special_form, dtype=object) != None  # noqa: E711 (elementwise)


def _scheme1_j3(j1, j2, j45, j45_pi, j45_p, j45_m, n00, n90, n45, n45_p):
    det_comb = j45 + j45_pi + j45_p + j45_m - j1 - j2
    num_comb = (
        n00**2 + n90**2 + 2.0 * n45**2 + 2.0 * n45_p**2 - 2.0 * (n00 + n90) * (n45 + n45_p)
    )
    return (det_comb + num_comb) / 4.0


def reconstruct_scheme1(
    observations, special_form: str | None = None
) -> tuple[InvariantSet, dict | None]:
    """Protocol-1 reconstruction from a transcript.

    J1 and J2 are the determinant readings at (0, 0) and (pi/2, 0); J3
    combines the four theta = pi/4 determinant readings with the
    photon-number readings, all three as measured.  J4 = 2 |J3| sqrt(J1 J2)
    where ``special_form`` says the cross block is diagonal or antidiagonal,
    and NaN where it is ``None`` or J1 <= 0 or J2 <= 0.  Always four invariants,
    and four standard errors (the J4 error NaN with J4) unless every reading
    is exact.
    """
    names = ("J00", "J90", "J45", "J45pi", "J45p", "J45m", "N00", "N90", "N45", "N45p")
    values, errors = _readings(observations, SCHEME1_PLAN, names)
    j1, j2 = values[:2]
    # The measured point fixes where J4 is defined, so that no copy moved by
    # ``propagate`` takes a root where the measured point has none.
    defined = _known(special_form) & (j1 > 0.0) & (j2 > 0.0)

    def invariants(j1, j2, *readings):
        j3 = _scheme1_j3(j1, j2, *readings)
        # np.multiply, so that one state's overflows obey np.errstate as a
        # batch's do.  A moved copy past J1 J2 = 0 has no square root: its
        # J4, and with it the J4 error, is NaN.
        j1j2 = np.multiply(j1, j2)
        j1j2 = np.where(defined & (j1j2 > 0.0), j1j2, np.nan)
        return j1, j2, j3, np.multiply(2.0, j3) * np.sqrt(j1j2)

    (j1, j2, j3, signed_j4), stderr = propagate(invariants, values, errors)
    # J4 = 2 |J3| sqrt(J1 J2) with the sign of the measured J3 for every moved
    # copy: the signed formula has no kink at J3 = 0 for the stencil to
    # straddle, and one sign for all copies leaves the error as it is.  A
    # product by -1, unlike a negation, leaves a NaN J4 as it is.
    inv = InvariantSet(j1, j2, j3, np.where(j3 < 0.0, -1.0, 1.0) * signed_j4)
    return inv, None if stderr is None else dict(zip(J_KEYS, stderr))


def reconstruct_scheme2(observations) -> tuple[InvariantSet, dict | None, dict]:
    """Protocol-2 reconstruction from a standard-form transcript.

    Returns the invariant set, the propagated standard errors (None for
    exact readings) and the auxiliary cross-block pieces
    {ms_real, ms_imag, mc_magnitude}.  J3 and J4 use the signed, unbiased
    |m~c|^2 = N45^2 - J45, whose root ``mc_magnitude`` is NaN where it is
    negative; J4 is NaN where n1 <= 0 or n2 <= 0.
    """
    values, errors = _readings(observations, SCHEME2_PLAN, ("N00", "N90", "N45", "N45p", "J45"))
    n1t, n2t = values[:2]
    # Fixed at the measured point, so that the copies ``propagate`` moves keep it.
    defined = (n1t > 0.0) & (n2t > 0.0)

    def invariants(n1t, n2t, n45, n45_p, j45):
        # J1..J4, Re m~s, Im m~s, |m~c|^2.
        mc_sq = n45**2 - j45
        ms_re = (n1t + n2t) / 2.0 - n45
        ms_im = (n1t + n2t) / 2.0 - n45_p
        ms_sq = ms_re**2 + ms_im**2
        j4 = np.where(defined, 2.0 * n1t * n2t * (ms_sq + mc_sq), np.nan)
        return n1t**2, n2t**2, ms_sq - mc_sq, j4, ms_re, ms_im, mc_sq

    (*invariant_values, ms_re, ms_im, mc_sq), stderr = propagate(invariants, values, errors)
    mc_magnitude = as_field(np.sqrt(np.where(mc_sq < 0.0, np.nan, mc_sq)))
    aux = {"ms_real": ms_re, "ms_imag": ms_im, "mc_magnitude": mc_magnitude}
    stderr = None if stderr is None else dict(zip(J_KEYS, stderr))
    return InvariantSet(*invariant_values), stderr, aux


def reconstruct_from_transcript(observations, scheme: str, special_form=None) -> SchemeResult:
    """Everything a transcript of observations determines: invariants,
    stderr, measures, and the observations themselves.

    ``special_form`` is scheme 1's recorded cross-block form; scheme 2 has
    none.  Scheme 2's result also carries the cross-block pieces.
    """
    if scheme == "scheme1":
        inv, stderr = reconstruct_scheme1(observations, special_form)
        aux = {}
    elif scheme == "scheme2":
        inv, stderr, aux = reconstruct_scheme2(observations)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return SchemeResult(
        scheme=scheme,
        invariants=inv,
        entanglement=entanglement_report(inv),
        observations=tuple(observations),
        invariant_stderr=stderr,
        special_form=special_form,
        **aux,
    )


def scheme1(v: ModeCovariance, det: DetectorModel = DetectorModel(), seed=0) -> SchemeResult:
    """Run protocol 1: J1, J2, J3 from ten single-mode readings.

    If the input is block-diagonal with a diagonal or antidiagonal cross
    block, that structural fact (recorded in ``special_form``) upgrades the
    result with the exact J4 wherever J1, J2 > 0; elsewhere J4 is NaN and the
    entanglement report has the symmetric lower bound only (every other
    measure NaN).
    """
    observations = observe_mode1(v, [entry.setting for entry in SCHEME1_PLAN], det, seed)
    return reconstruct_from_transcript(observations, "scheme1", cross_block_form(v))


def scheme2(v: ModeCovariance, det: DetectorModel = DetectorModel(), seed=0) -> SchemeResult:
    """Run protocol 2: all four invariants after standard-form preparation.

    The local preparation uses only the single-mode blocks of ``v`` (never
    the cross correlations); the bench then measures the transformed state
    at four settings and reconstructs J1..J4 plus the cross-block pieces.
    A state already in standard form is measured as it is.  What rounding
    leaves of the prepared squeezing is ``abs(standard_form_prep(v).vt.m1)``
    (and ``m2``), which no reading sees.
    """
    vt = standard_form_prep(v).vt
    observations = observe_mode1(vt, [entry.setting for entry in SCHEME2_PLAN], det, seed)
    return reconstruct_from_transcript(observations, "scheme2")
