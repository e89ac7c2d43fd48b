"""Scenario files: flat sectioned key-value descriptions of a bench setup.

A scenario pins everything a run needs — RNG seed, berry layout, palette
placement, camera poses, clutter density, and parameter overrides for the
gantry, localization, and laser models — so simulations replay exactly.
Sections and keys the loader never reads are rejected rather than ignored;
duplicated keys are parse errors. See ``docs/formats.md`` for the key reference.

One table, ``_KEYS``, maps each key to the record field it sets; each record
checks its own values, and the loader names the key of a check that fails.
"""

from __future__ import annotations

import configparser
import functools
import inspect
import re
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

from .controller import HarvestConfig
from .errors import ScenarioError, ValidationError, decode_utf8, require
from .gantry import GantryConfig, LensAxis, MotionProfile, TrapperState
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

    def __post_init__(self):
        require("finite", error=ScenarioError, center=self.center)
        require("finite", "positive", error=ScenarioError, diameter_m=self.diameter_m,
                stem_diameter_mm=self.stem_diameter_mm, stem_length_m=self.stem_length_m,
                toughness=self.toughness)


@dataclass(frozen=True)
class PaletteSpec:
    """Calibration patch: a small dense box of reference-colored points."""

    center: tuple[float, float, float] = (-0.08, 0.105, 0.325)
    size: tuple[float, float, float] = (0.015, 0.008, 0.040)
    points: int = 400

    def __post_init__(self):
        require("finite", error=ScenarioError, center=self.center)
        require("finite", "positive", error=ScenarioError, size=self.size, points=self.points)


@dataclass(frozen=True)
class ColorSettings:
    """Base colors and per-channel jitter used by the scene generator."""

    berry_base: tuple[int, int, int] = (190, 35, 45)
    berry_jitter: int = 20
    foliage_base: tuple[int, int, int] = (60, 140, 60)
    foliage_jitter: int = 25
    palette_jitter: int = 3

    def __post_init__(self):
        for key in ("berry_base", "foliage_base"):
            if not all(0 <= c <= 255 for c in getattr(self, key)):
                raise ScenarioError(f"{key}: channels outside [0, 255]")
        for key in ("berry_jitter", "foliage_jitter", "palette_jitter"):
            value = getattr(self, key)
            if not 0 <= value <= 255:
                raise ScenarioError(f"{key} must be in [0, 255], got {value}")


@dataclass(frozen=True)
class LaserSettings:
    """The cut model a run uses: pierce table and default stem toughness."""

    dataset: str = "fine"           # which pierce sweep feeds the model
    toughness: float = 1.0

    def __post_init__(self):
        require("positive and finite", toughness=self.toughness)
        if self.dataset not in ("fine", "coarse"):
            raise ScenarioError(f"laser dataset must be 'fine' or 'coarse', got {self.dataset!r}")


#: Most ticks one wait of a run may take; see ``[demo]`` in docs/formats.md.
MAX_WAIT_TICKS = 10 ** 7
#: Longest controller timestep: the trapper's close time (30 deg at
#: 150 deg/s, 0.2 s), so no tick steps over a whole trapper close.
MAX_DT_S = TrapperState(target_deg=TrapperState.closed_angle_deg).slew_end(0.0)


def _check_tick_budget(gantry: GantryConfig, harvest: HarvestConfig) -> None:
    """Reject settings under which one wait could run past ``MAX_WAIT_TICKS``.

    The waits are a lens homing (from power-up, the longest), a cut and a
    fall, each bounded by its time, and the longest move across the travel box.
    """
    lens = LensAxis()
    lens.begin_homing(0.0)
    homing = lens.homing_end
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


def _camera(x: float, y: float, z: float, roll_deg: float = 0.0, pitch_deg: float = 0.0,
            yaw_deg: float = 0.0) -> RigidTransform:
    """The pose a ``[camera N]`` section gives; each value must be finite."""
    require("finite", error=ScenarioError, x=x, y=y, z=z, roll_deg=roll_deg,
            pitch_deg=pitch_deg, yaw_deg=yaw_deg)
    return RigidTransform.from_euler_deg(roll_deg, pitch_deg, yaw_deg, (x, y, z))


@dataclass(frozen=True)
class Scenario:
    """A complete, replayable bench setup."""

    seed: int
    berries: tuple[BerrySpec, ...] = ()
    palette: PaletteSpec = field(default_factory=PaletteSpec)
    camera_1: RigidTransform = field(
        default_factory=lambda: _camera(-0.20, -0.45, 0.40, 60.0, 0.0, 20.0))
    camera_2: RigidTransform = field(
        default_factory=lambda: _camera(0.20, 0.45, 0.40, -60.0, 5.0, -160.0))
    berry_points: int = 600
    foliage_points: int = 3000
    foliage_window: SpatialWindow = SpatialWindow(-0.35, 0.35, -0.25, 0.25, 0.45, 0.75)
    colors: ColorSettings = field(default_factory=ColorSettings)
    gantry: GantryConfig = field(default_factory=GantryConfig)
    localization: LocalizationConfig = field(default_factory=LocalizationConfig)
    laser: LaserSettings = field(default_factory=LaserSettings)
    harvest: HarvestConfig = field(default_factory=HarvestConfig)

    def __post_init__(self):
        for ok, message in (
                (self.seed >= 0, "seed must be a non-negative integer"),
                (self.berry_points > 0, "berry_points must be positive"),
                (self.foliage_points >= 0, "foliage_points must be non-negative"),
                (self.harvest.dt_s <= MAX_DT_S,
                 f"[demo] dt must be at most the trapper's {MAX_DT_S:g} s close time, "
                 f"got {self.harvest.dt_s}")):
            if not ok:
                raise ScenarioError(message)
        w = self.localization.palette_window
        for axis, ctr, sz in zip("xyz", self.palette.center, self.palette.size):
            lo, hi = getattr(w, f"{axis}_min"), getattr(w, f"{axis}_max")
            if not lo <= ctr - sz / 2 <= ctr + sz / 2 <= hi:
                raise ScenarioError(
                    f"[palette] {axis}, d{axis}: palette patch [{ctr - sz / 2:g}, "
                    f"{ctr + sz / 2:g}] extends outside the palette calibration window "
                    f"[localization] [palette_{axis}_min, palette_{axis}_max] = [{lo:g}, {hi:g}]")
        _check_point_budget(self)
        _check_tick_budget(self.gantry, self.harvest)


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


# ---------------------------------------------------------------------------
# parsing

def _rgb(text: str) -> tuple[int, int, int]:
    """``r, g, b`` as three integers; ColorSettings checks their range."""
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 'r,g,b', got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad channel in {text!r}") from None


def _rows(spec: str, convert=float, prefix: str = "") -> dict:
    """Table rows from ``"key=field ..."``: ``prefix + key`` sets the field
    named after ``=`` (``name[i]`` being item i of a tuple field), or else the
    field named ``key``, through ``convert``."""
    return {prefix + key: (name or key, convert)
            for key, _, name in (item.partition("=") for item in spec.split())}


_BOUNDS = " ".join(f.name for f in fields(SpatialWindow))

#: Every key of a scenario file: section -> record -> (type, rows), sections
#: in the order they are read, ``berry`` and ``camera`` standing for each
#: ``[berry N]`` and ``[camera N]``. A record is built from its keys and the
#: defaults of its type once any of its keys is given; a scenario or a berry
#: always is.
_KEYS = {
    "scenario": {"scenario": (Scenario, _rows("seed berry_points foliage_points", int))},
    "berry": {"berry": (BerrySpec, _rows(
        "x=center[0] y=center[1] z=center[2] diameter=diameter_m stem_diameter_mm "
        "stem_length=stem_length_m toughness"))},
    "colors": {"colors": (ColorSettings, {
        **_rows("berry_base foliage_base", _rgb),
        **_rows("berry_jitter foliage_jitter palette_jitter", int)})},
    "foliage": {"foliage_window": (SpatialWindow, _rows(_BOUNDS))},
    "palette": {"palette": (PaletteSpec, {
        **_rows("x=center[0] y=center[1] z=center[2] dx=size[0] dy=size[1] dz=size[2]"),
        **_rows("points", int)})},
    "gantry": {"gantry": (GantryConfig, _rows(
        "max_velocity max_accel x_min=x_limits[0] x_max=x_limits[1] y_min=y_limits[0] "
        "y_max=y_limits[1] z_min=z_limits[0] z_max=z_limits[1] home_x=home_position[0] "
        "home_y=home_position[1] home_z=home_position[2]"))},
    "localization": {
        "reduced_window": (SpatialWindow, _rows(_BOUNDS, prefix="reduced_")),
        "palette_window": (SpatialWindow, _rows(_BOUNDS, prefix="palette_")),
        "localization": (LocalizationConfig, _rows("r_th g_th b_th")),
        "cluster": (ClusterParams, {**_rows("tolerance"),
                                    **_rows("min_cluster=min_size max_cluster=max_size", int)})},
    "laser": {"harvest": (HarvestConfig, _rows("spot_diameter_mm lateral_velocity_mm_s")),
              "laser": (LaserSettings, {**_rows("dataset", str.strip), **_rows("toughness")})},
    "demo": {"harvest": (HarvestConfig, _rows("dt=dt_s cut_timeout_s fall_timeout_s"))},
    "camera": {"camera": (_camera, _rows("x y z roll_deg pitch_deg yaw_deg"))},
}
#: What ``int`` and ``float`` read, for the error on text they cannot read.
_WHAT = {int: "an integer", float: "a number"}
#: Sections whose failed checks stay validation errors (exit 2) as raised; a
#: failed check of any other section, or of a window bound in any section, is
#: a parse error (exit 1) headed by its section.
_VALIDATED = ("gantry", "localization", "laser")
_BERRY_SECTION = re.compile(r"^berry (\d+)$")
_FIELD = re.compile(r"\w+(?:\[\d\])?")
_NONE = inspect.Parameter.empty


@functools.cache
def _defaults(kind) -> dict:
    """Each field of ``kind`` and its default, ``_NONE`` where it has none."""
    return {name: p.default for name, p in inspect.signature(kind).parameters.items()}


def _default(kind, label: str):
    """The default of field ``label`` of ``kind`` (of ``name[i]``, item i of
    the tuple default), or ``_NONE`` if it has none."""
    name, _, i = label.partition("[")
    default = _defaults(kind)[name]
    return default[int(i[:-1])] if i and default is not _NONE else default


def _build(kind, values: dict, names: dict):
    """``kind`` called with the field ``values``, a tuple field's items in
    order. A failed check is raised again with each field it names replaced by
    its key (``names``: field -> (section, key)), as ``_VALIDATED`` says."""
    kwargs = {}
    for label, value in values.items():
        name, _, i = label.partition("[")
        kwargs[name] = kwargs.get(name, ()) + (value,) if i else value
    try:
        return kind(**kwargs)
    except (ScenarioError, ValidationError) as exc:
        text = str(exc)
        message = _FIELD.sub(lambda m: names[m[0]][1] if m[0] in names else m[0], text)
        section, _ = names.get(text.partition(" ")[0].rstrip(":"), (None, None))
        if section is None or section in _VALIDATED and kind is not SpatialWindow:
            raise type(exc)(message) from exc
        raise ScenarioError(f"[{section}] {message}") from exc


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file.

    Raises
    ------
    ScenarioError
        On unknown sections or keys (checked after every read, before the
        point and tick budgets), duplicated keys, missing required keys,
        or values outside their documented domains.
    ValidationError
        On bad ``[gantry]``, ``[localization]`` (window bounds aside) or
        ``[laser]`` values.
    """
    # no line can name a default section "\n", so [DEFAULT] is an unknown section
    parser = configparser.ConfigParser(strict=True, delimiters=("=",), comment_prefixes=("#", ";"),
                                       inline_comment_prefixes=None, interpolation=None,
                                       default_section="\n")
    parser.optionxform = str
    text = decode_utf8(Path(path).read_bytes(),
                       lambda message, line: ScenarioError(f"{message} (line {line})"))
    try:
        parser.read_file(text.splitlines(), source=str(path))
    except (configparser.DuplicateOptionError, configparser.DuplicateSectionError) as exc:
        what = f"key '{exc.option}' in" if hasattr(exc, "option") else "section"
        raise ScenarioError(f"duplicate {what} [{exc.section}] (line {exc.lineno})") from exc
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario file: {exc}") from exc

    sections = {name: dict(parser[name]) for name in parser.sections()}
    berries = [name for _, name in sorted((int(m.group(1)), name) for name, m in
                                          ((n, _BERRY_SECTION.match(n)) for n in sections) if m)]
    order = [name for base in _KEYS
             for name in {"berry": berries, "camera": ("camera 1", "camera 2")}.get(base, [base])]
    records: dict[str, tuple] = {}    # record -> (type, {field: value}, {field: (section, key)})
    for section in order:
        raw = sections.get(section, {})
        base = section.split()[0]                       # "berry" for [berry 3]
        for record, (kind, rows) in _KEYS[base].items():
            if base in ("berry", "camera"):
                record = section.replace(" ", "_")        # camera_1 is Scenario's field
            if base not in ("scenario", "berry") and not raw.keys() & rows.keys():
                continue
            _, values, names = records.setdefault(record, (kind, {}, {}))
            for key, (label, convert) in rows.items():
                names[label] = (section, key)
                try:
                    values[label] = convert(raw[key]) if key in raw else _default(kind, label)
                except ValueError as exc:
                    detail = f"not {_WHAT[convert]}: {raw[key]!r}" if convert in _WHAT else exc
                    raise ScenarioError(f"[{section}] {key}: {detail}") from exc
            missing = [key for key, (label, _) in rows.items() if values[label] is _NONE]
            if missing:
                raise ScenarioError(
                    f"missing required section [{section}]" if section not in sections
                    else f"[{section}] window needs all six bounds, missing {missing}"
                    if kind is SpatialWindow
                    else f"missing required key '{missing[0]}' in [{section}]")
    # the gantry limits and the cluster band are checked in pairs, so they are
    # built after the unknown-key check: a misspelt key must be reported, not
    # the pair its default breaks
    built = {record: _build(*spec) for record, spec in records.items()
             if record not in ("gantry", "cluster", "localization", "scenario")}
    # every key has been read now, so what was never read is unknown
    for name, raw in sections.items():
        if name not in order:
            raise ScenarioError(f"unknown section [{name}]")
        known = {key for _, rows in _KEYS[name.split()[0]].values() for key in rows}
        for key in raw:
            if key not in known:
                raise ScenarioError(f"unknown key '{key}' in [{name}]")

    built["gantry"] = _build(*records.get("gantry", (GantryConfig, {}, {})))
    kind, values, names = records.get("localization", (LocalizationConfig, {}, {}))
    nested = {name: built.pop(name) for name in ("reduced_window", "palette_window")
              if name in built}
    if "cluster" in records:
        nested["cluster"] = _build(*records["cluster"])
    built["localization"] = _build(kind, {**values, **nested}, names)
    return Scenario(**records["scenario"][1],
                    berries=tuple(built.pop(b.replace(" ", "_")) for b in berries), **built)
