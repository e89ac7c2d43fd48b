"""Loading of the embedded stem-cutting calibration datasets.

Three CSV files ship with the package: a coarse and a fine stationary-beam
piercing sweep over spot diameter, and a lateral beam-speed sweep. A
table's header is its record's field names; lines starting with ``#``
are comments. Every table, shipped or external, is decoded as UTF-8
whatever the locale, and every error names the file line.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .errors import ValidationError, decode_utf8
from .laser import LateralCutRecord, PierceRecord


@dataclass(frozen=True)
class Datasets:
    """The three embedded calibration tables."""

    lateral: tuple[LateralCutRecord, ...]
    coarse: tuple[PierceRecord, ...]
    fine: tuple[PierceRecord, ...]


def _records(raw: bytes, record_type: type, source: str) -> tuple:
    """Typed records of a table whose header is ``record_type``'s field names."""
    fail = lambda message, line: ValidationError(f"{source} line {line}: {message}")
    lines = [(n, ln) for n, ln in enumerate(decode_utf8(raw, fail).splitlines(), start=1)
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValidationError(f"{source}: empty dataset")
    (_, head), *rows = lines
    header = [f.name for f in fields(record_type)]
    got = [h.strip() for h in head.split(",")]
    if got != header:
        raise ValidationError(f"{source}: bad header {got}, expected {header}")
    if not rows:
        raise ValidationError(f"{source}: no data rows")
    records = []
    for n, row in rows:
        values = row.split(",")
        if len(values) != len(header):
            raise fail(f"expected {len(header)} fields, got {len(values)}", n)
        try:
            records.append(record_type(*map(float, values)))
        except ValueError as exc:   # a bad float, or a ValidationError from the record
            raise fail(exc, n) from exc
    return tuple(records)


def load_pierce_csv(path: str | Path) -> tuple[PierceRecord, ...]:
    """Parse a piercing-sweep CSV from an arbitrary path."""
    path = Path(path)
    return _records(path.read_bytes(), PierceRecord, path.name)


def load_lateral_csv(path: str | Path) -> tuple[LateralCutRecord, ...]:
    """Parse a lateral-sweep CSV from an arbitrary path."""
    path = Path(path)
    return _records(path.read_bytes(), LateralCutRecord, path.name)


def _embedded(name: str, record_type: type) -> tuple:
    return _records((resources.files("laserberry") / "data" / name).read_bytes(),
                    record_type, name)


def embedded_pierce(dataset: str) -> tuple[PierceRecord, ...]:
    """Parse one embedded pierce sweep, ``"fine"`` or ``"coarse"``."""
    return _embedded(f"pierce_{dataset}.csv", PierceRecord)


def load_datasets() -> Datasets:
    """Load the three embedded calibration tables."""
    return Datasets(lateral=_embedded("lateral_velocity.csv", LateralCutRecord),
                    coarse=embedded_pierce("coarse"), fine=embedded_pierce("fine"))
