"""Exception types shared across the package, the one positive-value
check, and the one UTF-8 decode of the text inputs.

The command line front-end maps these onto exit codes: file and parse
problems exit with 1, domain and validation problems exit with 2.
"""

import math
from collections.abc import Callable


class ValidationError(ValueError):
    """An argument or state is outside its documented domain."""


def require_positive(**values: float) -> None:
    """Raise :class:`ValidationError` naming the first value that is not
    finite and > 0 (NaN fails every comparison, so it cannot slip through)."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValidationError(f"{name} must be positive and finite, got {value}")


def decode_utf8(raw: bytes, fail: Callable[[str, int], Exception]) -> str:
    """``raw`` decoded as UTF-8, whatever the locale. A bad byte raises
    ``fail(message, line)``, the line numbered as ``str.splitlines()`` does."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((raw[:exc.start].decode("utf-8") + "x").splitlines())
        raise fail(f"byte 0x{raw[exc.start]:02x} at offset {exc.start} is not valid UTF-8",
                   line) from None


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
