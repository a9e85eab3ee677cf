"""Exception taxonomy.

Input problems (bad metrics, malformed files, off-domain points) and
runtime problems (failed iterations, violated hypotheses, degenerate
trials) are kept in separate branches so callers — the command line
driver in particular — can map them to distinct exit codes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RelYamabeError",
    "InvalidMetricError",
    "InputFormatError",
    "ChartDomainError",
    "ChartConsistencyError",
    "DegenerateTrialError",
    "NumericalFailureError",
    "HypothesisViolationError",
]


class RelYamabeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMetricError(RelYamabeError):
    """A metric, parameter set, or field fails a structural invariant
    (not symmetric, not positive definite, wrong shape, out of range)."""


class InputFormatError(RelYamabeError):
    """An input file or argument string does not parse into a valid request."""


class ChartDomainError(RelYamabeError):
    """A point handed to the chart machinery does not lie on the sphere."""


class ChartConsistencyError(RelYamabeError):
    """Internal cross-check of the chart construction failed (the frame
    did not reproduce the coordinate vectors)."""


class DegenerateTrialError(RelYamabeError):
    """A trial function is unusable (identically zero, or with vanishing
    or overflowing critical norm)."""


class NumericalFailureError(RelYamabeError):
    """An iterative computation produced non-finite values or failed to
    make progress; `trace` carries the objective history when one exists."""

    def __init__(self, message: str, trace: list | None = None):
        super().__init__(message)
        self.trace = trace


class HypothesisViolationError(RelYamabeError):
    """Data handed to a conditional statement does not satisfy its
    hypotheses; the message names the violated condition."""


def _whole(x, name: str, least: int, error: type[RelYamabeError] = InputFormatError) -> int:
    """x as an int, when it is a whole number >= least (8.0 passes as 8);
    anything else, nan, inf and bools included, raises `error` naming `name`."""
    try:
        n = None if isinstance(x, (bool, np.bool_)) else int(x)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != x or n < least:
        kinds = {0: "a non-negative integer", 1: "a positive integer"}
        raise error(f"{name} must be {kinds.get(least, f'an integer >= {least}')}, got {x}")
    return n
