"""Calibrated laser stem-cutting model.

The model rests on a single bench observation: a stationary beam of spot
diameter ``phi_ls`` pierces a stem of diameter ``phi_s`` in time ``t_p``,
giving a pierce velocity ``v_p = phi_s / t_p`` and a pierce constant
``C_p = v_p * phi_ls`` (mm^2/s) that captures how much stem section the
beam removes per second. Severing a stem of cross-section
``pi * (phi_s / 2)^2`` with an oscillating beam then takes

    t_c = k * pi * (phi_s / 2)^2 / C_p(phi_ls)

where ``k`` scales stem toughness (1.0 for fresh stems). Cut time is
insensitive to the lateral beam speed within the calibrated regime (10 to
96 mm/s); below that the cut is unreliable and the model refuses to
predict.

The bench tables are CSV files, three shipped with the package (coarse and fine
pierce sweeps over spot diameter, a lateral beam-speed sweep), headed by their
record's field names, read as UTF-8 whatever the locale; errors name the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DomainError, UnsupportedRegimeError, ValidationError, decode_utf8, require

#: Lateral beam speeds below this (mm/s) are outside the calibrated regime.
V_L_MIN = 10.0


@dataclass(frozen=True)
class PierceRecord:
    """One stationary-beam piercing measurement (averaged trials)."""

    spot_diameter_mm: float
    stem_diameter_mm: float
    pierce_time_s: float
    pierce_velocity_mm_s: float
    pierce_constant_mm2_s: float

    def __post_init__(self):
        require("positive and finite", **vars(self))


@dataclass(frozen=True)
class LateralCutRecord:
    """One oscillating-beam cutting measurement (averaged trials)."""

    spot_diameter_mm: float
    lateral_velocity_mm_s: float
    stem_diameter_mm: float
    cut_time_s: float
    cut_velocity_mm_s: float

    def __post_init__(self):
        require("positive and finite", **vars(self))


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
    return _records(Path(path).read_bytes(), PierceRecord, Path(path).name)


def load_lateral_csv(path: str | Path) -> tuple[LateralCutRecord, ...]:
    """Parse a lateral-sweep CSV from an arbitrary path."""
    return _records(Path(path).read_bytes(), LateralCutRecord, Path(path).name)


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


def pierce_velocity(stem_diameter_mm: float, pierce_time_s: float) -> float:
    """Stem diameter over pierce time, mm/s. Zero diameter gives zero."""
    require("non-negative and finite", **{"stem diameter": stem_diameter_mm})
    require("positive and finite", pierce_time_s=pierce_time_s)
    return stem_diameter_mm / pierce_time_s


def pierce_constant(pierce_velocity_mm_s: float, spot_diameter_mm: float) -> float:
    """Pierce velocity times spot diameter, mm^2/s. Zero velocity gives zero."""
    require("non-negative and finite", **{"pierce velocity": pierce_velocity_mm_s})
    require("positive and finite", spot_diameter_mm=spot_diameter_mm)
    return pierce_velocity_mm_s * spot_diameter_mm


@dataclass(frozen=True)
class CutModel:
    """Pierce-constant curve plus toughness.

    Sorts ``records`` by spot diameter, refusing an empty table or a repeated
    diameter, and keeps their ``knots`` (mm) and ``cps`` (mm^2/s) as
    read-only arrays. ``toughness`` scales cut time (>1 for woodier stems).
    """

    records: tuple[PierceRecord, ...]
    toughness: float = 1.0
    knots: np.ndarray = field(init=False, repr=False, compare=False)
    cps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.records:
            raise ValidationError("cut model needs at least one pierce record")
        require("positive and finite", toughness=self.toughness)
        ordered = tuple(sorted(self.records, key=lambda r: r.spot_diameter_mm))
        knots = np.array([r.spot_diameter_mm for r in ordered])
        repeated = knots[1:][np.diff(knots) == 0]
        if repeated.size:
            raise ValidationError(f"duplicate spot diameter {repeated[0]:g} mm in pierce records")
        cps = np.array([r.pierce_constant_mm2_s for r in ordered])
        knots.flags.writeable = cps.flags.writeable = False
        object.__setattr__(self, "records", ordered)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "cps", cps)

    def check_spot(self, spot_diameter_mm: float) -> None:
        """Raise :class:`DomainError` for a spot outside the knots (no extrapolation)."""
        if not self.knots[0] <= spot_diameter_mm <= self.knots[-1]:
            raise DomainError(f"spot_diameter_mm {spot_diameter_mm} mm outside calibrated "
                              f"range [{self.knots[0]}, {self.knots[-1]}] mm")

    def cp(self, spot_diameter_mm: float) -> float:
        """Pierce constant interpolated linearly between the knots, after :meth:`check_spot`."""
        self.check_spot(spot_diameter_mm)
        return float(np.interp(spot_diameter_mm, self.knots, self.cps))


def stem_area(stem_diameter_mm: float, error=ValidationError) -> float:
    """A stem's cross-section, mm^2; ``error`` if a positive diameter's over- or underflows."""
    try:
        area = math.pi * (stem_diameter_mm / 2.0) ** 2
    except OverflowError:                   # the square is past the largest float
        area = math.inf
    if stem_diameter_mm > 0 and not 0 < area < math.inf:
        raise error(f"stem_diameter_mm {stem_diameter_mm:g} mm has a cross-section of "
                    f"{area} mm^2, which is not positive and finite")
    return area


def cut_time(stem_diameter_mm: float, model: CutModel, spot_diameter_mm: float,
             lateral_velocity_mm_s: float) -> float:
    """Predicted time to sever a stem, in seconds.

    Insensitive to the lateral beam speed within the calibrated regime; a
    speed below ``V_L_MIN``, NaN or inf raises
    :class:`UnsupportedRegimeError`.
    """
    require("non-negative and finite", stem_diameter_mm=stem_diameter_mm)
    if not V_L_MIN <= lateral_velocity_mm_s < math.inf:
        raise UnsupportedRegimeError(
            f"lateral velocity {lateral_velocity_mm_s} mm/s is not a finite speed "
            f"of at least the calibrated minimum {V_L_MIN} mm/s")
    return model.toughness * stem_area(stem_diameter_mm) / model.cp(spot_diameter_mm)


@dataclass(frozen=True)
class EtchState:
    """Progress of an in-flight cut, in stem cross-section area (mm^2)."""

    cut_area: float
    target_area: float

    def __post_init__(self):
        require("positive and finite", target_area=self.target_area)
        if not 0.0 <= self.cut_area <= self.target_area:
            raise ValidationError("cut area must lie in [0, target_area]")

    @property
    def severed(self) -> bool:
        return self.cut_area == self.target_area

    @classmethod
    def for_stem(cls, stem_diameter_mm: float) -> "EtchState":
        require("positive and finite", stem_diameter_mm=stem_diameter_mm)
        return cls(0.0, stem_area(stem_diameter_mm))


def etch_rate(model: CutModel, spot_diameter_mm: float,
              lateral_velocity_mm_s: float) -> float:
    """Stem section removed per second by the oscillating beam, mm^2/s.

    ``C_p(spot) / toughness`` inside the calibrated regime; zero when the
    lateral speed is below ``V_L_MIN``, NaN or inf, where the cut makes no
    progress.
    """
    if not V_L_MIN <= lateral_velocity_mm_s < math.inf:
        return 0.0
    return model.cp(spot_diameter_mm) / model.toughness


def etch_step(state: EtchState, dt: float, laser_on: bool, model: CutModel,
              spot_diameter_mm: float, lateral_velocity_mm_s: float) -> EtchState:
    """Advance a cut by one timestep.

    With the laser on, removed area grows at :func:`etch_rate` per second,
    clamped at the target; a severed stem or a dark laser leaves the state
    unchanged. Integrating the whole cut at a fixed dt therefore reaches
    severed within one step of :func:`cut_time`.
    """
    if state.severed or not laser_on:
        return state
    rate = etch_rate(model, spot_diameter_mm, lateral_velocity_mm_s)
    area = min(state.target_area, state.cut_area + dt * rate)
    return EtchState(area, state.target_area)


def optimal_spot(records: Sequence[PierceRecord], lo_mm: float, hi_mm: float,
                 continuous: bool = False) -> float:
    """Spot diameter with the highest pierce constant in [lo_mm, hi_mm].

    The knots and curve are those of ``CutModel(records)``. The discrete
    default scans calibrated knots only — the honest choice, since
    between-knot values are interpolation artifacts. ``continuous=True``
    instead takes the exact maximum of the interpolated curve over the
    range clipped to the knots (exploration only): a piecewise-linear curve
    peaks at a knot or an end, so it compares the knots inside with both
    ends. Either way, ties go to the smaller diameter.

    Raises
    ------
    ValidationError
        If the table is empty or repeats a spot diameter, if the
        restriction is empty, or if no knot falls inside it.
    """
    if lo_mm > hi_mm:
        raise ValidationError(f"empty spot range [{lo_mm}, {hi_mm}]")
    model = CutModel(tuple(records))
    knots = model.knots
    inside = (lo_mm <= knots) & (knots <= hi_mm)
    if not inside.any():
        raise ValidationError(
            f"no calibrated spot diameters inside [{lo_mm}, {hi_mm}] mm")
    if continuous:
        spots = sorted({max(lo_mm, knots[0]), min(hi_mm, knots[-1]), *knots[inside]})
        return float(max(spots, key=model.cp))   # first = smallest
    return float(knots[inside][np.argmax(model.cps[inside])])   # first = smallest


@dataclass(frozen=True)
class RowDeviation:
    """One audited quantity of one dataset row."""

    table: str
    row: int            # data row, 1-based in file order; skipped lines uncounted
    spot_diameter_mm: float
    column: str
    published: float
    recomputed: float

    @property
    def deviation(self) -> float:
        return abs(self.published - self.recomputed)

    def describe(self) -> str:
        return (f"{self.table} data row {self.row} (spot {self.spot_diameter_mm} mm): "
                f"{self.column} published {self.published:g} "
                f"recomputed {self.recomputed:.4f} deviation {self.deviation:.4f}")


@dataclass(frozen=True)
class TableAudit:
    """Outcome of re-deriving every derived column of the datasets."""

    deviations: tuple[RowDeviation, ...]
    tolerance: float

    @property
    def max_deviation(self) -> float:
        return max((d.deviation for d in self.deviations), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def failures(self) -> list[RowDeviation]:
        return [d for d in self.deviations if d.deviation > self.tolerance]


def verify_tables(datasets: Datasets, tolerance: float = 0.03) -> TableAudit:
    """Re-derive velocity and pierce-constant columns and compare.

    For each pierce row, recompute the pierce velocity from stem diameter
    and time, and the pierce constant from the published velocity and the
    spot diameter; for each lateral row, recompute the cut velocity.
    Published values carry rounding, so deviations up to ``tolerance``
    (default 0.03) are expected.
    """
    require("positive and finite", tolerance=tolerance)
    out: list[RowDeviation] = []
    for table, records in (("pierce-coarse", datasets.coarse),
                           ("pierce-fine", datasets.fine)):
        for i, r in enumerate(records, start=1):
            v = pierce_velocity(r.stem_diameter_mm, r.pierce_time_s)
            out.append(RowDeviation(table, i, r.spot_diameter_mm,
                                    "pierce_velocity_mm_s",
                                    r.pierce_velocity_mm_s, v))
            c = pierce_constant(r.pierce_velocity_mm_s, r.spot_diameter_mm)
            out.append(RowDeviation(table, i, r.spot_diameter_mm,
                                    "pierce_constant_mm2_s",
                                    r.pierce_constant_mm2_s, c))
    for i, r in enumerate(datasets.lateral, start=1):
        v = r.stem_diameter_mm / r.cut_time_s
        out.append(RowDeviation("lateral", i, r.spot_diameter_mm,
                                "cut_velocity_mm_s", r.cut_velocity_mm_s, v))
    return TableAudit(tuple(out), tolerance)
