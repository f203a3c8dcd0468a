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
The formulas square by multiplication, ``x * x``, never by a power, which on
a numpy scalar is C's ``pow`` and misrounds some squares; so they round alike
on one state's scalars and on a batch's rows: one state gives the bits of
the same readings read as a batch of one.

A noisy reading is reconstructed as it came out, negatives included, and a
number it cannot support is NaN, J4 included: a NaN J4 marks a result that
has the symmetric lower bound only.

Both protocols are elementwise: one bench call reads a whole plan for a batch
of states, and its observations hold arrays.

A result's invariants, measures and cross-block pieces come from the central
readings when it is made.  Its transcript and standard errors are built from
the same draw when first read, and kept: a table, which prints neither,
builds no :class:`~gaussbench.bench.Mode1Observation` and evaluates no
stencil.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bench import BenchSetting, DetectorModel, Mode1Observation, draw_mode1
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


def _picks(plan, names):
    """Each named reading of ``plan`` as (its entry's index, whether it is N)."""
    entry_of = {name: i for i, entry in enumerate(plan) for name in entry.readings}
    return tuple((entry_of[name], name[0] == "N") for name in names)


#: Each protocol's plan, and the readings its invariants take, in argument order.
_PROTOCOLS = {
    "scheme1": (SCHEME1_PLAN, _picks(
        SCHEME1_PLAN, ("J00", "J90", "J45", "J45pi", "J45p", "J45m", "N00", "N90", "N45", "N45p")
    )),
    "scheme2": (SCHEME2_PLAN, _picks(SCHEME2_PLAN, ("N00", "N90", "N45", "N45p", "J45"))),
}


@dataclass(frozen=True)
class SchemeResult:
    """Reconstructed invariants plus everything needed to audit them; the
    ``observations`` and scheme 1's ``special_form`` fix every field.

    The ``observations`` and the ``invariant_stderr`` (``None`` for exact
    readings) are built on first read and kept, so a caller that reads
    neither pays for neither.  An overflow in their stencils raises at that
    read, under the ``np.errstate`` in force there.
    """

    scheme: str
    invariants: InvariantSet
    entanglement: EntanglementReport
    special_form: str | None = None
    ms_real: float | None = None
    ms_imag: float | None = None
    mc_magnitude: float | None = None  # sign is unrecoverable; NaN where |m~c|^2 < 0
    _transcript: Callable[[], tuple] = field(kw_only=True, repr=False, compare=False)

    @functools.cached_property
    def observations(self) -> tuple[Mode1Observation, ...]:
        return self._transcript()

    @functools.cached_property
    def invariant_stderr(self) -> dict | None:
        values, errors = _readings(self.observations, *_PROTOCOLS[self.scheme])
        if errors is None:
            return None
        stderr = propagate(_formula(self.scheme, values, self.special_form), values, errors)[1]
        return dict(zip(J_KEYS, stderr))


def _at(setting: BenchSetting) -> str:
    """A setting as an error message names it, exactly."""
    return f"theta={setting.theta!r}, phi={setting.phi!r}"


def _readings(observations, plan, picks):
    """Values and standard errors of the readings ``picks`` of ``plan``, from
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
    values = [found[i].n_prime if n else found[i].j_prime for i, n in picks]
    errors = [found[i].n_stderr if n else found[i].j_stderr for i, n in picks]
    if all(e is None for e in errors):
        return values, None
    return values, [0.0 if e is None else e for e in errors]


def _scheme1_j3(j1, j2, j45, j45_pi, j45_p, j45_m, n00, n90, n45, n45_p):
    det_comb = j45 + j45_pi + j45_p + j45_m - j1 - j2
    num_comb = (
        n00 * n00 + n90 * n90 + 2.0 * (n45 * n45) + 2.0 * (n45_p * n45_p)
        - 2.0 * (n00 + n90) * (n45 + n45_p)
    )
    return (det_comb + num_comb) / 4.0


def _scheme1_invariants(defined, j1, j2, *readings):
    """J1, J2, J3 and the signed J4 = 2 J3 sqrt(J1 J2), NaN off ``defined``."""
    j3 = _scheme1_j3(j1, j2, *readings)
    # np.multiply, so that one state's overflows obey np.errstate as a
    # batch's do.  A moved copy past J1 J2 = 0 has no square root: its
    # J4, and with it the J4 error, is NaN.
    j1j2 = np.multiply(j1, j2)
    j1j2 = np.where(defined & (j1j2 > 0.0), j1j2, np.nan)
    return j1, j2, j3, np.multiply(2.0, j3) * np.sqrt(j1j2)


def _scheme2_invariants(defined, n1t, n2t, n45, n45_p, j45):
    """J1..J4, Re m~s, Im m~s and the signed |m~c|^2, J4 NaN off ``defined``."""
    mc_sq = n45 * n45 - j45
    ms_re = (n1t + n2t) / 2.0 - n45
    ms_im = (n1t + n2t) / 2.0 - n45_p
    ms_sq = ms_re * ms_re + ms_im * ms_im
    j4 = np.where(defined, 2.0 * n1t * n2t * (ms_sq + mc_sq), np.nan)
    return n1t * n1t, n2t * n2t, ms_sq - mc_sq, j4, ms_re, ms_im, mc_sq


def _formula(scheme, values, special_form):
    """The protocol's invariants (and scheme 2's cross-block pieces) as one
    elementwise function of its readings in ``_PROTOCOLS`` order, J4 NaN
    unless the first two readings (J1 and J2, or n1 and n2) are positive as
    measured in ``values``, so that no copy moved by ``propagate`` takes a
    root where the measured point has none; scheme 1's J4 needs a known
    ``special_form`` too."""
    defined = (values[0] > 0.0) & (values[1] > 0.0)
    if scheme == "scheme1":
        known = np.asarray(special_form, dtype=object) != None  # noqa: E711 (elementwise)
        return functools.partial(_scheme1_invariants, known & defined)
    return functools.partial(_scheme2_invariants, defined)


def _result(scheme, values, special_form, transcript) -> SchemeResult:
    """The result of a protocol's central readings ``values``, in
    ``_PROTOCOLS`` order, whose observations ``transcript`` builds.

    Scheme 1's J1 and J2 are the determinant readings at (0, 0) and
    (pi/2, 0), and J3 combines the four theta = pi/4 determinant readings
    with the photon-number readings; J4 = 2 |J3| sqrt(J1 J2) where
    ``special_form`` (``None`` for an unknown cross block) says the cross
    block is diagonal or antidiagonal.  Scheme 2 reads a standard-form
    state: J3 and J4 use the signed, unbiased |m~c|^2 = N45^2 - J45, whose
    root ``mc_magnitude`` is NaN where it is negative.
    """
    outputs = _formula(scheme, values, special_form)(*values)
    aux = {}
    if scheme == "scheme1":
        j1, j2, j3, signed_j4 = outputs
        # J4 = 2 |J3| sqrt(J1 J2) is the signed formula times the sign of
        # J3: the signed formula has no kink at J3 = 0 for the error stencil
        # to straddle, and its error is J4's.  A product by -1, unlike a
        # negation, leaves a NaN J4 as it is.
        inv = InvariantSet(j1, j2, j3, np.where(j3 < 0.0, -1.0, 1.0) * signed_j4)
    else:
        *invariants, ms_re, ms_im, mc_sq = outputs
        inv = InvariantSet(*invariants)
        mc_magnitude = as_field(np.sqrt(np.where(mc_sq < 0.0, np.nan, mc_sq)))
        aux = {"ms_real": ms_re, "ms_imag": ms_im, "mc_magnitude": mc_magnitude}
    return SchemeResult(
        scheme, inv, entanglement_report(inv), special_form, **aux, _transcript=transcript
    )


def reconstruct_from_transcript(observations, scheme: str, special_form=None) -> SchemeResult:
    """Everything a transcript of observations determines: invariants,
    stderr, measures, and the observations themselves.

    ``special_form`` is scheme 1's recorded cross-block form; scheme 2 has
    none.  Scheme 2's result also carries the cross-block pieces.
    """
    if scheme not in _PROTOCOLS:
        raise ValueError(f"unknown scheme {scheme!r}")
    observations = tuple(observations)
    values = _readings(observations, *_PROTOCOLS[scheme])[0]
    # Numpy scalars, so that one state's readings obey np.errstate.
    values = [x if isinstance(x, (np.ndarray, np.generic)) else np.float64(x) for x in values]
    return _result(scheme, values, special_form, lambda: observations)


def _run(scheme, v, det, seed, special_form) -> SchemeResult:
    """One bench draw of the protocol's plan on ``v``, and its result."""
    plan, picks = _PROTOCOLS[scheme]
    n_prime, j_prime, transcript = draw_mode1(v, [entry.setting for entry in plan], det, seed)
    values = [(n_prime if n else j_prime)[i] for i, n in picks]
    return _result(scheme, values, special_form, transcript)


def scheme1(v: ModeCovariance, det: DetectorModel = DetectorModel(), seed=0) -> SchemeResult:
    """Run protocol 1: J1, J2, J3 from ten single-mode readings.

    If the input is block-diagonal with a diagonal or antidiagonal cross
    block, that structural fact (recorded in ``special_form``) upgrades the
    result with the exact J4 wherever J1, J2 > 0; elsewhere J4 is NaN and the
    entanglement report has the symmetric lower bound only (every other
    measure NaN).
    """
    return _run("scheme1", v, det, seed, cross_block_form(v))


def scheme2(v: ModeCovariance, det: DetectorModel = DetectorModel(), seed=0) -> SchemeResult:
    """Run protocol 2: all four invariants after standard-form preparation.

    The local preparation uses only the single-mode blocks of ``v`` (never
    the cross correlations); the bench then measures the transformed state
    at four settings and reconstructs J1..J4 plus the cross-block pieces.
    A state already in standard form is measured as it is.  What rounding
    leaves of the prepared squeezing is ``abs(standard_form_prep(v).vt.m1)``
    (and ``m2``), which no reading sees.
    """
    return _run("scheme2", standard_form_prep(v).vt, det, seed, None)
