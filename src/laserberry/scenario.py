"""Scenario files: flat sectioned key-value descriptions of a bench setup.

A scenario pins everything a run needs — RNG seed, berry layout, palette
placement, camera poses, clutter density, and parameter overrides for the
gantry, localization, and laser models — so simulations replay exactly.
Sections and keys the loader never reads are rejected rather than ignored;
duplicated keys are parse errors. See ``docs/formats.md`` for the key reference.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

from .controller import HarvestConfig
from .errors import ScenarioError, decode_utf8, require_positive
from .gantry import GantryConfig, LensAxis, MotionProfile
from .geometry import RigidTransform
from .localization import ClusterParams, LocalizationConfig, SpatialWindow


@dataclass(frozen=True)
class BerrySpec:
    """One fruit: centroid pose and stem properties."""

    center: tuple[float, float, float]          # m, base frame
    diameter_m: float = 0.025
    stem_diameter_mm: float | None = None       # drawn from the seed when omitted
    stem_length_m: float = 0.035
    toughness: float | None = None              # falls back to [laser] toughness


@dataclass(frozen=True)
class PaletteSpec:
    """Calibration patch: a small dense box of reference-colored points."""

    center: tuple[float, float, float] = (-0.08, 0.105, 0.325)
    size: tuple[float, float, float] = (0.015, 0.008, 0.040)
    points: int = 400

    def __post_init__(self):
        if self.points <= 0:
            raise ScenarioError("palette needs a positive point count")
        if any(s <= 0 for s in self.size):
            raise ScenarioError("palette size must be positive per axis")


@dataclass(frozen=True)
class ColorSettings:
    """Base colors and per-channel jitter used by the scene generator."""

    berry_base: tuple[int, int, int] = (190, 35, 45)
    berry_jitter: int = 20
    foliage_base: tuple[int, int, int] = (60, 140, 60)
    foliage_jitter: int = 25
    palette_jitter: int = 3

    def __post_init__(self):
        for key in ("berry_jitter", "foliage_jitter", "palette_jitter"):
            value = getattr(self, key)
            if not 0 <= value <= 255:
                raise ScenarioError(f"[colors] {key} must be in [0, 255], got {value}")


@dataclass(frozen=True)
class LaserSettings:
    """The cut model a run uses: pierce table and default stem toughness."""

    dataset: str = "fine"           # which pierce sweep feeds the model
    toughness: float = 1.0

    def __post_init__(self):
        require_positive(toughness=self.toughness)
        if self.dataset not in ("fine", "coarse"):
            raise ScenarioError(f"laser dataset must be 'fine' or 'coarse', got {self.dataset!r}")


#: Most ticks one wait of a run may take; see ``[demo]`` in docs/formats.md.
MAX_WAIT_TICKS = 10 ** 7


def _check_tick_budget(gantry: GantryConfig, harvest: HarvestConfig) -> None:
    """Reject settings under which one wait could run past ``MAX_WAIT_TICKS``.

    The waits are a lens homing (from power-up, the longest), a cut and a
    fall, each bounded by its time, and the longest move across the travel box.
    """
    homing = LensAxis.position_mm / LensAxis.homing_speed_mm_s
    move = max((MotionProfile.plan(lo, hi, 0.0, gantry.max_velocity, gantry.max_accel)
                for lo, hi in (gantry.x_limits, gantry.y_limits, gantry.z_limits)),
               key=lambda p: p.duration)
    for key, seconds in (
            ("[demo] dt", homing),
            ("[demo] cut_timeout_s", harvest.cut_timeout_s),
            ("[demo] fall_timeout_s", harvest.fall_timeout_s),
            ("[gantry] max_velocity" if move.t_cruise > 2.0 * move.t_acc
             else "[gantry] max_accel", move.duration)):
        ticks = seconds / harvest.dt_s
        if not ticks <= MAX_WAIT_TICKS:
            raise ScenarioError(
                f"{key}: a {seconds:g} s wait at dt {harvest.dt_s:g} s is {ticks:.3g} "
                f"ticks, over the budget of {MAX_WAIT_TICKS:.0e} ticks per wait")


#: Most points a generated scene may hold, both cameras together; see
#: ``[scenario]`` in docs/formats.md.
MAX_SCENE_POINTS = 10 ** 7


def _check_point_budget(scenario: "Scenario") -> None:
    """Reject a scenario whose generated clouds would exceed
    ``MAX_SCENE_POINTS``, naming the key that contributes the most."""
    parts = {"[scenario] berry_points": len(scenario.berries) * scenario.berry_points,
             "[scenario] foliage_points": scenario.foliage_points,
             "[palette] points": 2 * scenario.palette.points}   # one patch per camera
    total = sum(parts.values())
    if total > MAX_SCENE_POINTS:
        raise ScenarioError(
            f"{max(parts, key=parts.get)}: the scene would hold {total} points, "
            f"over the budget of {MAX_SCENE_POINTS:.0e} points")


@dataclass(frozen=True)
class Scenario:
    """A complete, replayable bench setup."""

    seed: int
    berries: tuple[BerrySpec, ...] = ()
    palette: PaletteSpec = field(default_factory=PaletteSpec)
    camera_1: RigidTransform = field(default_factory=lambda: _default_camera(1))
    camera_2: RigidTransform = field(default_factory=lambda: _default_camera(2))
    berry_points: int = 600
    foliage_points: int = 3000
    foliage_window: SpatialWindow = SpatialWindow(-0.35, 0.35, -0.25, 0.25, 0.45, 0.75)
    colors: ColorSettings = field(default_factory=ColorSettings)
    gantry: GantryConfig = field(default_factory=GantryConfig)
    localization: LocalizationConfig = field(default_factory=LocalizationConfig)
    laser: LaserSettings = field(default_factory=LaserSettings)
    harvest: HarvestConfig = field(default_factory=HarvestConfig)

    def __post_init__(self):
        if self.seed < 0:
            raise ScenarioError("seed must be a non-negative integer")
        if self.berry_points <= 0:
            raise ScenarioError("berry_points must be positive")
        if self.foliage_points < 0:
            raise ScenarioError("foliage_points must be non-negative")
        w = self.localization.palette_window
        for ctr, sz, lo, hi in zip(self.palette.center, self.palette.size,
                                   (w.x_min, w.y_min, w.z_min), (w.x_max, w.y_max, w.z_max)):
            if ctr - sz / 2 < lo or ctr + sz / 2 > hi:
                raise ScenarioError(
                    "palette patch extends outside the palette calibration window")
        _check_point_budget(self)
        _check_tick_budget(self.gantry, self.harvest)


def _default_camera(index: int) -> RigidTransform:
    if index == 1:
        return RigidTransform.from_euler_deg(60.0, 0.0, 20.0, (-0.20, -0.45, 0.40))
    return RigidTransform.from_euler_deg(-60.0, 5.0, -160.0, (0.20, 0.45, 0.40))


# ---------------------------------------------------------------------------
# parsing

_BERRY_SECTION = re.compile(r"^berry (\d+)$")


class _Section:
    """One parsed section with typed key access that records each key read."""

    def __init__(self, name: str, raw: dict[str, str]):
        self.name = name
        self.raw = raw
        self.read: set[str] = set()

    def _get(self, key: str, default, required: bool, convert, what: str):
        self.read.add(key)
        if key not in self.raw:
            if required:
                raise ScenarioError(f"missing required key '{key}' in [{self.name}]")
            return default
        try:
            return convert(self.raw[key])
        except ValueError as exc:
            raise ScenarioError(
                f"[{self.name}] {key}: not {what}: {self.raw[key]!r}") from exc

    def get_float(self, key: str, default: float | None = None, required: bool = False):
        return self._get(key, default, required, float, "a number")

    def get_finite(self, key: str, default: float | None = None, required: bool = False):
        """:meth:`get_float` that also rejects ``nan`` and ``inf``."""
        value = self.get_float(key, default, required)
        if value is not None and not math.isfinite(value):
            raise ScenarioError(f"[{self.name}] {key} must be finite, got {value}")
        return value

    def get_positive(self, key: str, default: float | None = None, required: bool = False):
        """:meth:`get_finite` that also rejects zero and negative values."""
        value = self.get_finite(key, default, required)
        if value is not None and value <= 0:
            raise ScenarioError(f"[{self.name}] {key} must be positive, got {value}")
        return value

    def get_int(self, key: str, default: int | None = None, required: bool = False):
        return self._get(key, default, required, int, "an integer")

    def get_str(self, key: str, default: str | None = None):
        return self._get(key, default, False, str.strip, "text")

    def get_rgb(self, key: str, default: tuple[int, int, int]) -> tuple[int, int, int]:
        text = self.get_str(key)
        if text is None:
            return default
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 3:
            raise ScenarioError(f"[{self.name}] {key}: expected 'r,g,b', got {text!r}")
        try:
            r, g, b = (int(p) for p in parts)
        except ValueError as exc:
            raise ScenarioError(f"[{self.name}] {key}: bad channel in {text!r}") from exc
        if not all(0 <= c <= 255 for c in (r, g, b)):
            raise ScenarioError(f"[{self.name}] {key}: channels outside [0, 255]")
        return (r, g, b)


def _parse_camera(sec: _Section, index: int) -> RigidTransform:
    if not sec.raw:
        return _default_camera(index)
    return RigidTransform.from_euler_deg(
        sec.get_finite("roll_deg", 0.0),
        sec.get_finite("pitch_deg", 0.0),
        sec.get_finite("yaw_deg", 0.0),
        tuple(sec.get_finite(k, required=True) for k in "xyz"),
    )


def _parse_window(sec: _Section, prefix: str, default: SpatialWindow) -> SpatialWindow:
    """The six bounds ``<prefix>x_min`` ... ``<prefix>z_max``, all or none."""
    keys = [prefix + f.name for f in fields(SpatialWindow)]
    missing = [k for k in keys if k not in sec.raw]
    if len(missing) == len(keys):
        return default
    if missing:
        raise ScenarioError(f"[{sec.name}] window needs all six bounds, missing {missing}")
    return SpatialWindow(*(sec.get_finite(k) for k in keys))


def bundled_scenario_path(name: str) -> Path | None:
    """Filesystem path of a scenario shipped with the package.

    Args:
        name: bare scenario name, e.g. ``"demo_11"``.

    Returns:
        The path, or None when no such scenario is bundled.
    """
    entry = resources.files("laserberry") / "data" / "scenarios" / f"{name}.ini"
    path = Path(str(entry))
    return path if path.is_file() else None


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file.

    Raises
    ------
    ScenarioError
        On unknown sections or keys (checked after every read, before the
        point and tick budgets), duplicated keys, missing required keys,
        or values outside their documented domains.
    ValidationError
        On bad ``[gantry]``, ``[localization]`` or ``[laser]`` values.
    """
    parser = configparser.ConfigParser(strict=True, delimiters=("=",),
                                       comment_prefixes=("#", ";"),
                                       inline_comment_prefixes=None,
                                       interpolation=None)
    parser.optionxform = str
    text = decode_utf8(Path(path).read_bytes(),
                       lambda message, line: ScenarioError(f"{message} (line {line})"))
    try:
        parser.read_file(text.splitlines(), source=str(path))
    except configparser.DuplicateOptionError as exc:
        raise ScenarioError(f"duplicate key '{exc.option}' in [{exc.section}] "
                            f"(line {exc.lineno})") from exc
    except configparser.DuplicateSectionError as exc:
        raise ScenarioError(f"duplicate section [{exc.section}] (line {exc.lineno})") from exc
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario file: {exc}") from exc

    sections = {name: dict(parser[name]) for name in parser.sections()}
    if "scenario" not in sections:
        raise ScenarioError("missing required section [scenario]")
    asked: dict[str, _Section] = {}

    def sec(name: str) -> _Section:
        asked[name] = _Section(name, sections.get(name, {}))
        return asked[name]

    s = sec("scenario")
    seed = s.get_int("seed", required=True)

    berries = []
    berry_names = sorted(
        ((int(m.group(1)), name) for name, m in
         ((n, _BERRY_SECTION.match(n)) for n in sections) if m))
    for _, name in berry_names:
        b = sec(name)
        berries.append(BerrySpec(
            center=tuple(b.get_finite(k, required=True) for k in "xyz"),
            diameter_m=b.get_positive("diameter", BerrySpec.diameter_m),
            stem_diameter_mm=b.get_positive("stem_diameter_mm", BerrySpec.stem_diameter_mm),
            stem_length_m=b.get_positive("stem_length", BerrySpec.stem_length_m),
            toughness=b.get_positive("toughness", BerrySpec.toughness),
        ))

    col = sec("colors")
    colors = ColorSettings(
        berry_base=col.get_rgb("berry_base", ColorSettings.berry_base),
        berry_jitter=col.get_int("berry_jitter", ColorSettings.berry_jitter),
        foliage_base=col.get_rgb("foliage_base", ColorSettings.foliage_base),
        foliage_jitter=col.get_int("foliage_jitter", ColorSettings.foliage_jitter),
        palette_jitter=col.get_int("palette_jitter", ColorSettings.palette_jitter),
    )

    foliage_window = _parse_window(sec("foliage"), "", Scenario.foliage_window)

    pal = sec("palette")
    palette = PaletteSpec(
        center=tuple(pal.get_finite(k, v) for k, v in zip("xyz", PaletteSpec.center)),
        size=tuple(pal.get_finite(f"d{k}", v) for k, v in zip("xyz", PaletteSpec.size)),
        points=pal.get_int("points", PaletteSpec.points),
    )

    g = sec("gantry")
    gantry = dict(
        max_velocity=g.get_float("max_velocity", GantryConfig.max_velocity),
        max_accel=g.get_float("max_accel", GantryConfig.max_accel),
        x_limits=(g.get_float("x_min", GantryConfig.x_limits[0]),
                  g.get_float("x_max", GantryConfig.x_limits[1])),
        y_limits=(g.get_float("y_min", GantryConfig.y_limits[0]),
                  g.get_float("y_max", GantryConfig.y_limits[1])),
        z_limits=(g.get_float("z_min", GantryConfig.z_limits[0]),
                  g.get_float("z_max", GantryConfig.z_limits[1])),
        home_position=tuple(g.get_float(f"home_{k}", v)
                            for k, v in zip("xyz", GantryConfig.home_position)),
    )

    loc = sec("localization")
    base_loc = LocalizationConfig()
    localization = dict(
        reduced_window=_parse_window(loc, "reduced_", base_loc.reduced_window),
        palette_window=_parse_window(loc, "palette_", base_loc.palette_window),
        r_th=loc.get_float("r_th", base_loc.r_th),
        g_th=loc.get_float("g_th", base_loc.g_th),
        b_th=loc.get_float("b_th", base_loc.b_th),
    )
    cluster = dict(
        tolerance=loc.get_float("tolerance", base_loc.cluster.tolerance),
        min_size=loc.get_int("min_cluster", base_loc.cluster.min_size),
        max_size=loc.get_int("max_cluster", base_loc.cluster.max_size))

    las = sec("laser")
    cycle = {key: las.get_float(key, getattr(HarvestConfig, key))
             for key in ("spot_diameter_mm", "lateral_velocity_mm_s")}
    laser = LaserSettings(dataset=las.get_str("dataset", LaserSettings.dataset),
                          toughness=las.get_float("toughness", LaserSettings.toughness))

    d = sec("demo")
    for key, name in (("dt", "dt_s"), ("cut_timeout_s", "cut_timeout_s"),
                      ("fall_timeout_s", "fall_timeout_s")):
        cycle[name] = value = d.get_float(key, getattr(HarvestConfig, name))
        if not 0.0 < value < math.inf:    # also rejects NaN
            raise ScenarioError(f"[demo] {key} must be positive and finite, got {value}")
    harvest = HarvestConfig(**cycle)

    camera_1 = _parse_camera(sec("camera 1"), 1)
    camera_2 = _parse_camera(sec("camera 2"), 2)
    berry_points = s.get_int("berry_points", Scenario.berry_points)
    foliage_points = s.get_int("foliage_points", Scenario.foliage_points)
    # every key has been read now, so what was never read is unknown
    for name, raw in sections.items():
        if name not in asked:
            raise ScenarioError(f"unknown section [{name}]")
        for key in raw:
            if key not in asked[name].read:
                raise ScenarioError(f"unknown key '{key}' in [{name}]")

    # Built only now: the gantry limits and the cluster band are checked in
    # pairs, and a misspelt key must be reported, not the pair its default breaks.
    return Scenario(seed=seed, berries=tuple(berries), palette=palette,
                    camera_1=camera_1, camera_2=camera_2, berry_points=berry_points,
                    foliage_points=foliage_points, foliage_window=foliage_window,
                    colors=colors, gantry=GantryConfig(**gantry),
                    localization=LocalizationConfig(**localization,
                                                    cluster=ClusterParams(**cluster)),
                    laser=laser, harvest=harvest)
