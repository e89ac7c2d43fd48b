"""Exception types shared across the package, and the one positive-value check.

The command line front-end maps these onto exit codes: file and parse
problems exit with 1, domain and validation problems exit with 2.
"""

import math


class ValidationError(ValueError):
    """An argument or state is outside its documented domain."""


def require_positive(**values: float) -> None:
    """Raise :class:`ValidationError` naming the first value that is not
    finite and > 0 (NaN fails every comparison, so it cannot slip through)."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValidationError(f"{name} must be positive and finite, got {value}")


class MotionError(ValidationError):
    """A motion target lies outside the gantry travel limits."""


class UnsupportedRegimeError(ValidationError):
    """An operating point falls outside the calibrated cutting regime."""


class DomainError(ValidationError):
    """A query lies outside the calibrated knot range (no extrapolation)."""


class CalibrationError(RuntimeError):
    """Color calibration failed because no palette points were visible."""


class PcdParseError(ValueError):
    """A PCD file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ScenarioError(ValueError):
    """A scenario file is malformed or references unknown keys."""
