"""Exception types shared across the package."""


class GaussBenchError(Exception):
    """Base class for all package-specific errors."""


class UnphysicalStateError(GaussBenchError):
    """A covariance matrix violates the uncertainty bound or positivity."""


class UnphysicalMeasurementError(GaussBenchError):
    """A measured variance fell below the vacuum-noise floor for the given efficiency."""


class ReconstructionError(GaussBenchError):
    """A transcript is not one observation at each setting of its plan: a
    setting is missing, observed twice or off the plan."""


class ConfigError(GaussBenchError):
    """Invalid command-line or config-file input."""
