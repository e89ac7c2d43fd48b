"""Loading of the embedded stem-cutting calibration datasets.

Three CSV files ship with the package: a coarse and a fine stationary-beam
piercing sweep over spot diameter, and a lateral beam-speed sweep. Headers
are fixed; lines starting with ``#`` are comments. Every table, shipped or
external, is decoded as UTF-8 whatever the locale.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ValidationError
from .laser import LateralCutRecord, PierceRecord

PIERCE_HEADER = ["spot_diameter_mm", "stem_diameter_mm", "pierce_time_s",
                 "pierce_velocity_mm_s", "pierce_constant_mm2_s"]
LATERAL_HEADER = ["spot_diameter_mm", "lateral_velocity_mm_s", "stem_diameter_mm",
                  "cut_time_s", "cut_velocity_mm_s"]


@dataclass(frozen=True)
class Datasets:
    """The three embedded calibration tables."""

    lateral: tuple[LateralCutRecord, ...]
    coarse: tuple[PierceRecord, ...]
    fine: tuple[PierceRecord, ...]


def _records(raw: bytes, header: list[str], record_type: type, source: str) -> tuple:
    """Typed records of a CSV with a fixed header; errors name the data row,
    or the line of a byte that is not UTF-8."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # number the line as the splitlines() below does
        line = len((raw[:exc.start].decode("utf-8") + "x").splitlines())
        raise ValidationError(f"{source} line {line}: byte 0x{raw[exc.start]:02x} at "
                              f"offset {exc.start} is not valid UTF-8") from None
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    if not rows:
        raise ValidationError(f"{source}: empty dataset")
    got = [h.strip() for h in rows[0]]
    if got != header:
        raise ValidationError(f"{source}: bad header {got}, expected {header}")
    records = []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise ValidationError(f"{source} row {i}: expected {len(header)} fields, got {len(row)}")
        try:
            records.append(record_type(*(float(v) for v in row)))
        except ValueError as exc:   # a bad float, or a ValidationError from the record
            raise ValidationError(f"{source} row {i}: {exc}") from exc
    return tuple(records)


def load_pierce_csv(path: str | Path) -> tuple[PierceRecord, ...]:
    """Parse a piercing-sweep CSV from an arbitrary path."""
    path = Path(path)
    return _records(path.read_bytes(), PIERCE_HEADER, PierceRecord, path.name)


def load_lateral_csv(path: str | Path) -> tuple[LateralCutRecord, ...]:
    """Parse a lateral-sweep CSV from an arbitrary path."""
    path = Path(path)
    return _records(path.read_bytes(), LATERAL_HEADER, LateralCutRecord, path.name)


def _embedded(name: str) -> bytes:
    return (resources.files("laserberry") / "data" / name).read_bytes()


def load_datasets() -> Datasets:
    """Load the three embedded calibration tables."""
    return Datasets(
        lateral=_records(_embedded("lateral_velocity.csv"), LATERAL_HEADER,
                         LateralCutRecord, "lateral_velocity.csv"),
        coarse=_records(_embedded("pierce_coarse.csv"), PIERCE_HEADER, PierceRecord,
                        "pierce_coarse.csv"),
        fine=_records(_embedded("pierce_fine.csv"), PIERCE_HEADER, PierceRecord,
                      "pierce_fine.csv"),
    )
