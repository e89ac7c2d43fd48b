"""Exception types shared across the package, the one domain check
(:func:`require`: finite, positive, non-negative), and the one UTF-8
decode of the text inputs.

The command line front-end maps these onto exit codes: file and parse
problems exit with 1, domain and validation problems exit with 2.
"""

import math
from collections.abc import Callable


class ValidationError(ValueError):
    """An argument or state is outside its documented domain."""


#: Each rule of :func:`require` and its test; NaN fails every comparison.
_RULES = {
    "finite": lambda v: -math.inf < v < math.inf,
    "positive": lambda v: v > 0,
    "positive and finite": lambda v: 0 < v < math.inf,
    "non-negative and finite": lambda v: 0 <= v < math.inf,
}


def require(*rules: str, error: type[Exception] = ValidationError, **values) -> None:
    """Raise ``error(f"{name} must be {rule}, got {value}")`` for the first of
    ``values`` that fails one of ``rules``, which are tried in order on each
    value (a rule is a key of ``_RULES``). Item i of a tuple or list is
    named ``name[i]``; None passes."""
    for name, value in values.items():
        if isinstance(value, (tuple, list)):
            require(*rules, error=error, **{f"{name}[{i}]": v for i, v in enumerate(value)})
        elif value is not None:
            for rule in rules:
                if not _RULES[rule](value):
                    raise error(f"{name} must be {rule}, got {value}")


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
