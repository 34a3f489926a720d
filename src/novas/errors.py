"""Exception hierarchy shared across the package."""


class NovasError(Exception):
    """Base class for all library errors."""

    category = "internal"


class DataError(NovasError):
    """Bad or insufficient input data (CSV parsing, degenerate series)."""

    category = "input"


class InfeasibleWeightsError(NovasError):
    """A weight construction violated one of its admissibility constraints.

    ``reason`` names the constraint that broke so callers can distinguish a
    negative solved intercept weight from a trimming-bound or dominance
    violation.
    """

    category = "infeasible"

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason

    def __reduce__(self):
        # rebuild from both constructor arguments, so that the error survives
        # pickling on its way back from a worker process
        return type(self), (self.reason, str(self))


class CalibrationError(NovasError):
    """No feasible grid point, or the input window is too degenerate to fit."""

    category = "infeasible"


class DegenerateWindowError(NovasError):
    """A studentizing denominator collapsed to zero (all-zero window)."""

    category = "input"


class TrimBoundError(NovasError):
    """An inverse-transform denominator fell below the guard epsilon.

    Innovations must be pre-trimmed to the transform's bound; hitting this
    signals a sampler bug, not a data problem.
    """

    category = "internal"


class FitError(NovasError):
    """Likelihood optimization failed to produce a usable optimum."""

    category = "infeasible"
