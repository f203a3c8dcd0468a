"""Two-mode Gaussian states: invariants from single-mode measurements.

The package simulates an optical bench that mixes two modes of a Gaussian
state on a tunable beam splitter and reads out only one output port.
From a handful of photon-number and purity readings it reconstructs the
four symplectic invariants of the state, and from those the separability
verdict, the entanglement of formation (exact for symmetric states, a
lower bound otherwise) and the logarithmic negativity.  Everything is
cross-checkable against direct covariance-matrix computations.
"""

from .bench import (
    BenchSetting,
    DetectorModel,
    Mode1Observation,
    invert_loss,
    observe_mode1,
    output_mode1_moments,
)
from .entanglement import (
    EntanglementReport,
    entanglement_report,
    simon_separable,
)
from .errors import (
    ConfigError,
    GaussBenchError,
    ReconstructionError,
    UnphysicalMeasurementError,
    UnphysicalStateError,
)
from .generators import (
    random_state,
    special_form_state,
    thermal_state,
    tmsv_state,
    two_mode_squeezed_thermal,
    vacuum_state,
)
from .schemes import (
    SCHEME1_PLAN,
    SCHEME2_PLAN,
    PlanEntry,
    SchemeResult,
    reconstruct_from_transcript,
    scheme1,
    scheme2,
)
from .stateio import load_state, save_state, state_from_dict, state_to_dict
from .states import (
    InvariantSet,
    ModeCovariance,
    PhysicalityReport,
    QuadCovariance,
    SingleModeSymplectic,
    StandardFormResult,
    invariants_quad,
    mode_to_quad,
    quad_to_mode,
    standard_form_prep,
    validate_physical,
)

__version__ = "0.1.0"

__all__ = [
    "SCHEME1_PLAN",
    "SCHEME2_PLAN",
    "BenchSetting",
    "ConfigError",
    "DetectorModel",
    "EntanglementReport",
    "GaussBenchError",
    "InvariantSet",
    "Mode1Observation",
    "ModeCovariance",
    "PhysicalityReport",
    "PlanEntry",
    "QuadCovariance",
    "ReconstructionError",
    "SchemeResult",
    "SingleModeSymplectic",
    "StandardFormResult",
    "UnphysicalMeasurementError",
    "UnphysicalStateError",
    "entanglement_report",
    "invariants_quad",
    "invert_loss",
    "load_state",
    "mode_to_quad",
    "observe_mode1",
    "output_mode1_moments",
    "quad_to_mode",
    "random_state",
    "reconstruct_from_transcript",
    "save_state",
    "scheme1",
    "scheme2",
    "simon_separable",
    "special_form_state",
    "standard_form_prep",
    "state_from_dict",
    "state_to_dict",
    "thermal_state",
    "tmsv_state",
    "two_mode_squeezed_thermal",
    "vacuum_state",
    "validate_physical",
]
