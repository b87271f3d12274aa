"""Exception types shared across the package.

Every error carries a ``stage`` name so batch front ends can report where a
pipeline failed without parsing messages.
"""


class PairDvaError(Exception):
    """Base class for all package errors."""

    stage = None

    def __init__(self, message, stage=None):
        super().__init__(message)
        if stage is not None:
            self.stage = stage


class ConfigError(PairDvaError, ValueError):
    """Invalid parameter, grid, or configuration value."""

    stage = "config"


class IntegrationError(PairDvaError, RuntimeError):
    """Integrator state left the valid SOC band mid-run."""

    stage = "simulate"


class SpanError(PairDvaError, ValueError):
    """Trace or window too short for the requested resampling or filtering."""

    stage = "resample"


class EmptyWindowError(PairDvaError, ValueError):
    """No samples fall inside the requested voltage window."""

    stage = "dvdq_curve"


class NoPeakError(PairDvaError, ValueError):
    """Windowed curve is monotone: no interior local maximum to report."""

    stage = "peak_height"


class FeatureError(PairDvaError, ValueError):
    """Skewness pipeline produced a degenerate or undersized density."""

    stage = "skewness_pipeline"


class SweepError(PairDvaError, ValueError):
    """Sweep aggregation failed (for example, no successful cells to bin)."""

    stage = "product_curve"


class IdentifyError(PairDvaError, ValueError):
    """Measured features are not finite or lie outside the identification
    curve's range."""

    stage = "identify_product"


class FormatError(PairDvaError, ValueError):
    """Malformed input file or non-monotone data column."""

    stage = "io"


class FitWarning(UserWarning):
    """Raised when the surrogate fit is rank deficient (step amplitude ~ 0)."""
