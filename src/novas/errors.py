"""Exception hierarchy shared across the package, and its one integer and
one flag check."""

import operator

import numpy as np


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


def as_count(name: str, value) -> int:
    """``value`` as a Python int through ``operator.index``, so that a float or
    a string is refused when a config is built; a numpy integer is accepted,
    a bool is refused, although ``operator.index(True)`` is 1."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DataError(f"{name} must be an integer, got {value!r}")


def as_flag(name: str, value) -> bool:
    """``value`` as a Python bool; anything but a bool or a numpy bool is
    refused, so that a string such as ``"no"`` cannot act as true."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise DataError(f"{name} must be a bool, got {value!r}")
