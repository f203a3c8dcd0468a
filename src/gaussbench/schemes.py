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
and ``SCHEME2_PLAN``: the bench run records them, the reconstruction reads them.

Reconstruction is a pure function of the recorded transcript (plus, for
protocol 1, the recorded special-form flag), so replaying a stored
transcript reproduces the reported invariants bit for bit.  Each protocol
writes its invariants once, as one elementwise function of the readings; the
standard errors are that function's first-order propagation
(:func:`~gaussbench.states.propagate`), with the readings taken as independent.

Both protocols are elementwise: a batch of states runs each setting once,
and its records hold arrays.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bench import BenchSetting, DetectorModel, Mode1Observation, observe_mode1
from .entanglement import EntanglementReport, entanglement_report
from .errors import ReconstructionError
from .states import (
    InvariantSet,
    ModeCovariance,
    any_point,
    as_field,
    cross_block_form,
    first_where,
    propagate,
    standard_form_prep,
)

__all__ = [
    "PlanEntry",
    "SCHEME1_PLAN",
    "SCHEME2_PLAN",
    "TranscriptRecord",
    "SchemeResult",
    "ConsistencyReport",
    "scheme1",
    "scheme2",
    "reconstruct_scheme1",
    "reconstruct_scheme2",
    "reconstruct_from_transcript",
    "consistency_check",
]

#: Thresholds for a reconstructed |m~c|^2 that fluctuated negative: values
#: in (-CLAMP_WARN, 0) clamp silently, in (-CLAMP_FAIL, -CLAMP_WARN] clamp
#: with a warning, below -CLAMP_FAIL the reconstruction is rejected.
MC2_CLAMP_WARN = 1e-9
MC2_CLAMP_FAIL = 1e-6

#: Largest J1..J3 difference between the protocols that :func:`consistency_check`
#: accepts.
CONSISTENCY_TOL = 1e-9

_J_KEYS = ("j1", "j2", "j3", "j4")


@dataclass(frozen=True)
class PlanEntry:
    """One bench setting and the named readings recorded there.

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
class TranscriptRecord:
    """One recorded measurement: setting, observable letter, value, stderr."""

    theta: float
    phi: float
    observable: str
    value: float
    stderr: float | None = None

    def to_dict(self) -> dict:
        out = {
            "theta": self.theta,
            "phi": self.phi,
            "observable": self.observable,
            "value": self.value,
        }
        if self.stderr is not None:
            out["stderr"] = self.stderr
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TranscriptRecord":
        """A record from its JSON object; ``stderr`` may be absent or null.

        ``theta``, ``phi``, ``value`` and ``stderr`` must be finite numbers;
        a bool or a string there is a ``TypeError``, not a number.
        """
        keys = ("theta", "phi", "value") + (() if data.get("stderr") is None else ("stderr",))
        numbers = {key: data[key] for key in keys}
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in numbers.values()):
            raise TypeError(f"transcript numbers must be JSON numbers, got {numbers!r}")
        numbers = {key: float(x) for key, x in numbers.items()}
        if not all(map(math.isfinite, numbers.values())):
            raise ValueError("transcript theta, phi, value and stderr must be finite")
        return cls(observable=str(data["observable"]), **numbers)


@dataclass(frozen=True)
class SchemeResult:
    """Reconstructed invariants plus everything needed to audit them."""

    scheme: str
    invariants: InvariantSet
    entanglement: EntanglementReport
    observations: tuple[Mode1Observation, ...]
    transcript: tuple[TranscriptRecord, ...]
    invariant_stderr: dict | None
    status: str
    special_form: str | None = None
    ms_real: float | None = None
    ms_imag: float | None = None
    mc_magnitude: float | None = None  # sign is unrecoverable; magnitude only
    residual_m1: float | None = None
    residual_m2: float | None = None


@dataclass(frozen=True)
class ConsistencyReport:
    """Per-invariant deltas between the two protocols on the same state."""

    delta_j1: float
    delta_j2: float
    delta_j3: float
    max_delta: float
    tol: float
    within_tolerance: bool


def _run_plan(v, plan, det, seed):
    """Observe every entry of ``plan``, one seed child per entry, and record
    its readings in plan order."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    observations = []
    records = []
    for entry, child in zip(plan, seq.spawn(len(plan))):
        obs = observe_mode1(v, entry.setting, det, seed=child)
        observations.append(obs)
        readout = {"N": (obs.n_prime, obs.n_stderr), "J": (obs.j_prime, obs.j_stderr)}
        records += [
            TranscriptRecord(entry.setting.theta, entry.setting.phi, name[0], *readout[name[0]])
            for name in entry.readings
        ]
    return tuple(observations), tuple(records)


def _readings(records, plan, names):
    """Values and standard errors of the named readings of ``plan``.

    Each reading is the first record with its observable within 1e-9 of its
    entry's (theta, phi); records the names do not ask for are ignored.  The
    errors are ``None`` when every named reading is exact, otherwise a
    missing stderr counts as 0.
    """
    settings = {name: entry.setting for entry in plan for name in entry.readings}
    found = []
    for name in names:
        setting = settings[name]
        for rec in records:
            if (
                rec.observable == name[0]
                and math.isclose(rec.theta, setting.theta, rel_tol=0.0, abs_tol=1e-9)
                and math.isclose(rec.phi, setting.phi, rel_tol=0.0, abs_tol=1e-9)
            ):
                found.append(rec)
                break
        else:
            raise ReconstructionError(
                f"transcript is missing {name[0]} at "
                f"theta={setting.theta:.6f}, phi={setting.phi:.6f}"
            )
    values = [rec.value for rec in found]
    if all(rec.stderr is None for rec in found):
        return values, None
    return values, [0.0 if rec.stderr is None else rec.stderr for rec in found]


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
    records, special_form: str | None = None
) -> tuple[InvariantSet, dict | None]:
    """Protocol-1 reconstruction from a transcript.

    J1 and J2 are the determinant readings at (0, 0) and (pi/2, 0); J3
    combines the four theta = pi/4 determinant readings with the
    photon-number readings.  J4 = 2 |J3| sqrt(J1 J2) where ``special_form``
    says the cross block is diagonal or antidiagonal, and NaN where it is
    ``None``.  Always four invariants, and four standard errors (the J4
    error NaN with J4) unless every reading is exact.
    """
    names = ("J00", "J90", "J45", "J45pi", "J45p", "J45m", "N00", "N90", "N45", "N45p")
    values, errors = _readings(records, SCHEME1_PLAN, names)
    j1, j2 = values[:2]
    bad = (j1 <= 0.0) | (j2 <= 0.0)
    if any_point(bad):
        shown = f"{first_where(bad, j1)}, {first_where(bad, j2)}"
        raise ReconstructionError(f"non-positive J1/J2 reconstructed: {shown}")
    known, negative = _known(special_form), _scheme1_j3(*values) < 0.0

    def invariants(j1, j2, *readings):
        # |J3| keeps the branch of the measured J3, so that no copy moved by
        # ``propagate`` straddles the kink at J3 = 0.
        j3 = _scheme1_j3(j1, j2, *readings)
        j4 = 2.0 * np.where(negative, -j3, j3) * np.sqrt(j1 * j2)
        return j1, j2, j3, np.where(known, j4, np.nan)

    inv = InvariantSet(*invariants(*values))
    if errors is None:
        return inv, None
    return inv, dict(zip(_J_KEYS, propagate(invariants, values, errors)))


def reconstruct_scheme2(records) -> tuple[InvariantSet, dict | None, dict]:
    """Protocol-2 reconstruction from a standard-form transcript.

    Returns the invariant set, the propagated standard errors (None for
    exact records) and the auxiliary cross-block pieces
    {ms_real, ms_imag, mc_magnitude}.
    """
    values, errors = _readings(records, SCHEME2_PLAN, ("N00", "N90", "N45", "N45p", "J45"))
    n1t, n2t, n45, _, j45 = values
    bad = (n1t <= 0.0) | (n2t <= 0.0)
    if any_point(bad):
        raise ReconstructionError(
            f"non-positive occupations: {first_where(bad, n1t)}, {first_where(bad, n2t)}"
        )
    mc_sq = n45**2 - j45
    fail, loud = mc_sq < -MC2_CLAMP_FAIL, mc_sq < -MC2_CLAMP_WARN
    if any_point(fail):
        value = first_where(fail, mc_sq)
        raise ReconstructionError(f"|m~c|^2 reconstructed as {value}, beyond the clamp threshold")
    if any_point(loud):
        value = first_where(loud, mc_sq)
        warnings.warn(f"clamping negative |m~c|^2 = {value} to zero", stacklevel=2)
    clamped = mc_sq < 0.0

    def invariants(n1t, n2t, n45, n45_p, j45):
        # J1..J4, Re m~s, Im m~s, |m~c|^2; |m~c|^2 is zero where the measured
        # value fell negative, on moved copies too.
        mc_sq = np.where(clamped, 0.0, n45**2 - j45)
        ms_re = (n1t + n2t) / 2.0 - n45
        ms_im = (n1t + n2t) / 2.0 - n45_p
        ms_sq = ms_re**2 + ms_im**2
        j4 = 2.0 * n1t * n2t * (ms_sq + mc_sq)
        return n1t**2, n2t**2, ms_sq - mc_sq, j4, ms_re, ms_im, mc_sq

    *invariant_values, ms_re, ms_im, mc_sq = invariants(*values)
    inv = InvariantSet(*invariant_values)
    aux = {"ms_real": ms_re, "ms_imag": ms_im, "mc_magnitude": as_field(np.sqrt(mc_sq))}
    if errors is None:
        return inv, None, aux
    return inv, dict(zip(_J_KEYS, propagate(invariants, values, errors))), aux


def reconstruct_from_transcript(
    records, scheme: str, special_form: str | None = None
):
    """Replay a stored transcript through the matching reconstruction."""
    if scheme == "scheme1":
        return reconstruct_scheme1(records, special_form)
    if scheme == "scheme2":
        inv, stderr, _ = reconstruct_scheme2(records)
        return inv, stderr
    raise ValueError(f"unknown scheme {scheme!r}")


def scheme1(v: ModeCovariance, det: DetectorModel = DetectorModel(), seed=0) -> SchemeResult:
    """Run protocol 1: J1, J2, J3 from ten single-mode readings.

    If the input is block-diagonal with a diagonal or antidiagonal cross
    block, that structural fact (recorded in ``special_form``) upgrades the
    result with the exact J4; otherwise J4 is NaN and the entanglement
    report has the symmetric lower bound only (every other measure NaN).
    """
    observations, records = _run_plan(v, SCHEME1_PLAN, det, seed)
    special = cross_block_form(v)
    inv, stderr = reconstruct_scheme1(records, special)
    return SchemeResult(
        scheme="scheme1",
        invariants=inv,
        entanglement=entanglement_report(inv),
        observations=observations,
        transcript=records,
        invariant_stderr=stderr,
        status=as_field(np.where(_known(special), "full", "lower-bound-only"), object),
        special_form=special,
    )


def scheme2(v: ModeCovariance, det: DetectorModel = DetectorModel(), seed=0) -> SchemeResult:
    """Run protocol 2: all four invariants after standard-form preparation.

    The local preparation uses only the single-mode blocks of ``v`` (never
    the cross correlations); the bench then measures the transformed state
    at four settings and reconstructs J1..J4 plus the cross-block pieces.
    """
    prep = standard_form_prep(v)
    observations, records = _run_plan(prep.vt, SCHEME2_PLAN, det, seed)
    inv, stderr, aux = reconstruct_scheme2(records)
    return SchemeResult(
        scheme="scheme2",
        invariants=inv,
        entanglement=entanglement_report(inv),
        observations=observations,
        transcript=records,
        invariant_stderr=stderr,
        status="full",
        ms_real=aux["ms_real"],
        ms_imag=aux["ms_imag"],
        mc_magnitude=aux["mc_magnitude"],
        residual_m1=prep.residual_m1,
        residual_m2=prep.residual_m2,
    )


def consistency_check(s1: SchemeResult, s2: SchemeResult) -> ConsistencyReport:
    """Compare the invariants both protocols can reconstruct (J1, J2, J3),
    within ``CONSISTENCY_TOL``."""
    d1 = abs(s1.invariants.j1 - s2.invariants.j1)
    d2 = abs(s1.invariants.j2 - s2.invariants.j2)
    d3 = abs(s1.invariants.j3 - s2.invariants.j3)
    max_delta = np.maximum(np.maximum(d1, d2), d3)
    return ConsistencyReport(d1, d2, d3, max_delta, CONSISTENCY_TOL, max_delta <= CONSISTENCY_TOL)
