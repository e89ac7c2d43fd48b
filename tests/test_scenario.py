"""Scenario file parsing: defaults, overrides, and error reporting."""

import dataclasses
import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laserberry import HarvestConfig, ScenarioError, ValidationError, load_scenario
from laserberry.cli import main
from laserberry.scenario import (_KEYS, BerrySpec, ColorSettings, PaletteSpec, Scenario,
                                 bundled_scenario_path)


def _write(tmp_path, text):
    path = tmp_path / "s.ini"
    path.write_text(text)
    return path


def test_minimal_scenario_gets_defaults(tmp_path):
    scn = load_scenario(_write(tmp_path, "[scenario]\nseed = 7\n"))
    assert scn.seed == 7
    assert scn.berries == ()
    assert scn.berry_points == 600
    assert scn.foliage_points == 3000
    assert scn.gantry.max_velocity == 0.5
    assert scn.laser.dataset == "fine"
    assert scn.harvest == HarvestConfig()
    # default camera poses land on either side of the tray
    assert scn.camera_1.translation[1] < 0 < scn.camera_2.translation[1]


def test_full_scenario_roundtrip(tmp_path):
    scn = load_scenario(_write(tmp_path, """
[scenario]
seed = 3
berry_points = 100
foliage_points = 50

[colors]
berry_base = 180, 40, 50
berry_jitter = 10
palette_jitter = 2

[foliage]
x_min = -0.3
x_max = 0.3
y_min = -0.2
y_max = 0.2
z_min = 0.5
z_max = 0.7

[palette]
x = -0.08
y = 0.105
z = 0.32
points = 100

[camera 1]
x = -0.1
y = -0.4
z = 0.35
roll_deg = 55

[gantry]
max_velocity = 0.2
z_max = 0.9
home_y = -0.2

[localization]
tolerance = 0.012
min_cluster = 30
reduced_x_min = -0.25
reduced_x_max = 0.25
reduced_y_min = -0.18
reduced_y_max = 0.18
reduced_z_min = 0.5
reduced_z_max = 0.7

[laser]
spot_diameter_mm = 0.7
lateral_velocity_mm_s = 30
dataset = coarse
toughness = 1.5

[demo]
dt = 0.002
cut_timeout_s = 12

[berry 1]
x = 0.02
y = -0.03
z = 0.60
diameter = 0.03
stem_diameter_mm = 2.1

[berry 2]
x = -0.05
y = 0.06
z = 0.58
"""))
    assert scn.seed == 3
    assert scn.colors.berry_base == (180, 40, 50)
    assert scn.colors.berry_jitter == 10
    assert scn.colors.foliage_base == (60, 140, 60)   # untouched default
    assert scn.palette.center[2] == 0.32
    assert scn.palette.points == 100
    assert scn.camera_1.translation[0] == -0.1
    assert scn.gantry.max_velocity == 0.2
    assert scn.gantry.z_limits == (0.0, 0.9)
    assert scn.gantry.home_position == (0.0, -0.2, 0.30)
    assert scn.localization.cluster.tolerance == 0.012
    assert scn.localization.cluster.min_size == 30
    assert scn.localization.reduced_window.x_max == 0.25
    assert scn.laser.dataset == "coarse"
    assert scn.laser.toughness == 1.5
    assert scn.harvest == HarvestConfig(spot_diameter_mm=0.7, lateral_velocity_mm_s=30.0,
                                        dt_s=0.002, cut_timeout_s=12.0, fall_timeout_s=2.0)
    assert len(scn.berries) == 2
    assert scn.berries[0].diameter_m == 0.03
    assert scn.berries[0].stem_diameter_mm == 2.1
    assert scn.berries[1].stem_diameter_mm is None    # drawn at generation


def test_berry_sections_sort_numerically(tmp_path):
    scn = load_scenario(_write(tmp_path, """
[scenario]
seed = 1
[berry 10]
x = 0.10
y = 0
z = 0.6
[berry 2]
x = 0.02
y = 0
z = 0.6
"""))
    assert [b.center[0] for b in scn.berries] == [0.02, 0.10]


@pytest.mark.parametrize("text,fragment", [
    ("[scenario]\nseed = 1\n[mystery]\nx = 1\n", "unknown section"),
    ("[scenario]\nseed = 1\nwhat = 2\n", "unknown key"),
    ("[scenario]\nseed = 1\nseed = 2\n", "duplicate key"),
    ("[berry 1]\nx = 0\ny = 0\nz = 0.6\n", "missing required section"),
    ("[scenario]\nseed = 1\n[berry 1]\ny = 0\nz = 0.6\n", "missing required key 'x'"),
    ("[scenario]\nseed = oops\n", "not an integer"),
    ("[scenario]\nseed = 1\n[berry 1]\nx = zero\ny = 0\nz = 0.6\n", "not a number"),
    ("[scenario]\nseed = -4\n", "non-negative"),
    ("[scenario]\nseed = 1\n[colors]\nberry_base = 1, 2\n", "expected 'r,g,b'"),
    ("[scenario]\nseed = 1\n[colors]\nberry_base = 300, 0, 0\n", "outside [0, 255]"),
    ("[scenario]\nseed = 1\n[laser]\ndataset = medium\n", "dataset"),
    ("[scenario]\nseed = 1\n[localization]\nreduced_x_min = 0\n",
     "all six bounds"),
])
def test_parse_errors(tmp_path, text, fragment):
    with pytest.raises(ScenarioError) as err:
        load_scenario(_write(tmp_path, text))
    assert fragment in str(err.value)


@pytest.mark.parametrize("text,message", [
    ("[scenario]\nseed = 1\n[mystery]\n", "unknown section [mystery]"),
    # configparser's implicit default section is a section like any other:
    # unknown, and its keys reach no other section
    ("[DEFAULT]\nseed = 5\n[scenario]\nseed = 1\n", "unknown section [DEFAULT]"),
    ("[scenario]\nseed = 1\n[DEFAULT]\n", "unknown section [DEFAULT]"),
    ("[DEFAULT]\nseed = 5\n[scenario]\n", "missing required key 'seed' in [scenario]"),
    ("[scenario]\nseed = 1\n[berry 1]\nx = 0\ny = 0\nz = 0.6\ncolour = red\n",
     "unknown key 'colour' in [berry 1]"),
    ("[scenario]\nseed = 1\n[camera 1]\nx = 0\ny = 0\nz = 0.4\nroll = 5\n",
     "unknown key 'roll' in [camera 1]"),
    ("[scenario]\nseed = 1\n[localization]\ntolerance = 0.01\nmin_size = 5\n",
     "unknown key 'min_size' in [localization]"),
    # the defaults a misspelt key leaves would fail the pair checks
    ("[scenario]\nseed = 1\n[gantry]\nx_min = 0.5\nx_mx = 0.6\n",
     "unknown key 'x_mx' in [gantry]"),
    ("[scenario]\nseed = 1\n[localization]\nmin_cluster = 60000\nmax_clustr = 70000\n",
     "unknown key 'max_clustr' in [localization]"),
    ("[scenario]\nsed = 1\n", "missing required key 'seed' in [scenario]"),
    ("[scenario]\nseed = 1\n[foliage]\nx_min = -0.3\nx_max = 0.3\ny_min = -0.2\n"
     "y_max = 0.2\nz_min = 0.45\nz_mx = 0.75\n",
     "[foliage] window needs all six bounds, missing ['z_max']"),
])
def test_keys_the_loader_never_reads_are_rejected(tmp_path, text, message):
    with pytest.raises(ScenarioError) as err:
        load_scenario(_write(tmp_path, text))
    assert str(err.value) == message


@pytest.mark.parametrize("text,message", [
    # a value read as a number is checked only once no key is unknown...
    ("[scenario]\nseed = 1\n[berry 1]\nx = nan\ny = 0\nz = 0.6\n[mystery]\n",
     "unknown section [mystery]"),
    # ...but text that is not a number fails as it is read
    ("[scenario]\nseed = 1\n[berry 1]\nx = zero\ny = 0\nz = 0.6\ncolour = red\n",
     "[berry 1] x: not a number: 'zero'"),
])
def test_unknown_keys_are_refused_before_any_record_is_built(tmp_path, text, message):
    with pytest.raises(ScenarioError) as err:
        load_scenario(_write(tmp_path, text))
    assert str(err.value) == message


@pytest.mark.parametrize("key", ["spot_diameter_mm", "lateral_velocity_mm_s", "toughness"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_laser_values_fail_at_load(tmp_path, key, value):
    with pytest.raises(ValidationError, match=rf"^{key} must be positive and finite"):
        load_scenario(_write(tmp_path, f"[scenario]\nseed = 1\n[laser]\n{key} = {value}\n"))


@pytest.mark.parametrize("key", ["r_th", "g_th", "b_th"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_color_half_widths_fail_at_load(tmp_path, key, value):
    with pytest.raises(ValidationError, match=rf"^{key} must be positive and finite"):
        load_scenario(_write(tmp_path, f"[scenario]\nseed = 1\n[localization]\n{key} = {value}\n"))


def test_duplicate_key_reports_line(tmp_path):
    with pytest.raises(ScenarioError, match=r"line 3"):
        load_scenario(_write(tmp_path, "[scenario]\nseed = 1\nseed = 2\n"))


def test_palette_must_fit_calibration_window(tmp_path):
    with pytest.raises(ScenarioError, match="palette"):
        load_scenario(_write(tmp_path, """
[scenario]
seed = 1
[palette]
x = 0.2
"""))


def test_missing_file():
    with pytest.raises(OSError):
        load_scenario("/nonexistent/s.ini")


def test_bundled_scenarios_present():
    for name in ("demo_11", "perf_300k", "demo_overreach"):
        path = bundled_scenario_path(name)
        assert path is not None and path.is_file()
        scn = load_scenario(path)
        assert scn.seed == 1234
    assert bundled_scenario_path("no_such_scene") is None


def test_bundled_demo_layout():
    scn = load_scenario(bundled_scenario_path("demo_11"))
    assert len(scn.berries) == 11
    assert scn.gantry.max_velocity == 0.168
    ys = [b.center[1] for b in scn.berries]
    assert ys == sorted(ys)
    # the overreach variant adds one fruit beyond the x stroke
    over = load_scenario(bundled_scenario_path("demo_overreach"))
    assert len(over.berries) == 12
    assert max(abs(b.center[0]) for b in over.berries) > over.gantry.x_limits[1]


#: One setting per budgeted key that asks for more than 10^7 ticks in one wait.
OVER_BUDGET = [
    ("[demo] dt", "[demo]\ndt = 1e-8\n"),                          # 0.5 s homing
    ("[demo] cut_timeout_s", "[demo]\ncut_timeout_s = 1e6\n"),
    ("[demo] fall_timeout_s", "[demo]\ndt = 1e-4\nfall_timeout_s = 1000.001\n"),
    ("[gantry] max_velocity", "[gantry]\nmax_velocity = 1e-6\n"),
    ("[gantry] max_accel", "[gantry]\nmax_accel = 1e-9\n"),
]


@pytest.mark.parametrize("key,text", OVER_BUDGET)
def test_waits_over_the_tick_budget_fail_at_load(tmp_path, key, text):
    with pytest.raises(ScenarioError, match=rf"^{re.escape(key)}: .* over the budget"):
        load_scenario(_write(tmp_path, "[scenario]\nseed = 1\n" + text))


def test_tick_budget_is_inclusive_and_spares_the_bundled_scenarios(tmp_path):
    load_scenario(_write(tmp_path, "[scenario]\nseed = 1\n[demo]\n"
                                   "cut_timeout_s = 1e4\nfall_timeout_s = 1e4\n"))
    for name in ("demo_11", "demo_overreach", "perf_300k"):
        base = load_scenario(bundled_scenario_path(name))
        # the benchmark's slowest gantry speed: a 0.48 m x move is ~10^4 ticks
        dataclasses.replace(base, gantry=dataclasses.replace(base.gantry, max_velocity=0.05))


#: One setting per key that takes a scene over 10^7 points, that key dominant.
OVER_POINTS = [
    ("[scenario] berry_points",
     "berry_points = 10000000\n[berry 1]\nx = 0\ny = 0\nz = 0.6\n"),
    ("[scenario] foliage_points", "foliage_points = 10000000\n"),
    ("[palette] points", "[palette]\npoints = 5000000\n"),
]


@pytest.mark.parametrize("key,text", OVER_POINTS)
def test_scenes_over_the_point_budget_fail_at_load(tmp_path, key, text):
    with pytest.raises(ScenarioError, match=rf"^{re.escape(key)}: .* over the budget"):
        load_scenario(_write(tmp_path, "[scenario]\nseed = 1\n" + text))


def test_point_budget_is_inclusive():
    # no berries, two palette patches of 2,200 and 10^7 - 4,400 foliage points
    scn = load_scenario(bundled_scenario_path("perf_300k"))
    dataclasses.replace(scn, berries=(), foliage_points=10 ** 7 - 4400)
    with pytest.raises(ScenarioError, match=r"^\[scenario\] foliage_points: .* 10000001 "):
        dataclasses.replace(scn, berries=(), foliage_points=10 ** 7 - 4399)


@pytest.mark.parametrize("key", ["dt", "cut_timeout_s", "fall_timeout_s"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.5"])
def test_demo_timing_must_be_positive_and_finite(tmp_path, key, value):
    with pytest.raises(ScenarioError, match=rf"\[demo\] {key} must be positive and finite"):
        load_scenario(_write(tmp_path, f"[scenario]\nseed = 1\n[demo]\n{key} = {value}\n"))


def test_demo_dt_is_at_most_the_trapper_close_time(tmp_path):
    # the trapper closes 30 deg at 150 deg/s; 1e300 used to run with overflow warnings
    assert load_scenario(_write(tmp_path, "[scenario]\nseed = 1\n[demo]\ndt = 0.2\n")
                         ).harvest.dt_s == 0.2
    for value in ("0.20000000000000004", "1e300"):
        with pytest.raises(ScenarioError, match=r"^\[demo\] dt must be at most the trapper's "
                                                r"0.2 s close time"):
            load_scenario(_write(tmp_path, f"[scenario]\nseed = 1\n[demo]\ndt = {value}\n"))


@pytest.mark.parametrize("section,key", [("gantry", "home_x"), ("gantry", "z_max"),
                                         ("localization", "tolerance")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_values_fail_at_load(tmp_path, section, key, value):
    with pytest.raises(ValidationError, match=rf"{key} must be"):
        load_scenario(_write(tmp_path, f"[scenario]\nseed = 1\n[{section}]\n{key} = {value}\n"))


_BERRY = {"x": "0.0", "y": "0.0", "z": "0.6"}


def _berry_scenario(key, value):
    fields = dict(_BERRY, **{key: value})
    return "[scenario]\nseed = 1\n[berry 1]\n" + "".join(
        f"{k} = {v}\n" for k, v in fields.items())


@pytest.mark.parametrize("key", ["x", "y", "z", "diameter", "stem_length",
                                 "stem_diameter_mm", "toughness"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_berry_values_must_be_finite(tmp_path, key, value):
    with pytest.raises(ScenarioError, match=rf"\[berry 1\] {key} must be finite"):
        load_scenario(_write(tmp_path, _berry_scenario(key, value)))


@pytest.mark.parametrize("key", ["x", "y", "z", "dx", "dy", "dz"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_palette_values_must_be_finite(tmp_path, key, value):
    with pytest.raises(ScenarioError, match=rf"\[palette\] {key} must be finite"):
        load_scenario(_write(tmp_path, f"[scenario]\nseed = 1\n[palette]\n{key} = {value}\n"))


@pytest.mark.parametrize("key", ["diameter", "stem_length", "stem_diameter_mm",
                                 "toughness"])
@pytest.mark.parametrize("value", ["0", "-0.01", "-1"])
def test_berry_sizes_and_toughness_must_be_positive(tmp_path, key, value):
    with pytest.raises(ScenarioError, match=rf"\[berry 1\] {key} must be positive"):
        load_scenario(_write(tmp_path, _berry_scenario(key, value)))


_BOUNDS = ("x_min", "x_max", "y_min", "y_max", "z_min", "z_max")

#: camera pose and window keys, read as finite floats
_POSE_AND_WINDOW_KEYS = [
    *(("camera 1", k) for k in ("x", "y", "z", "roll_deg", "pitch_deg", "yaw_deg")),
    ("camera 2", "z"),
    *(("foliage", k) for k in _BOUNDS),
    ("localization", "palette_x_min"), ("localization", "reduced_z_max"),
]


def _pose_or_window_scenario(section, key, value):
    if section.startswith("camera"):
        fields = {"x": "0.0", "y": "0.0", "z": "0.4"}
    elif section == "foliage":
        fields = dict(zip(_BOUNDS, ("-0.3", "0.3", "-0.2", "0.2", "0.45", "0.75")))
    else:
        prefix = key.split("_")[0]
        fields = {f"{prefix}_{b}": v for b, v in zip(
            _BOUNDS, ("-0.3", "0.3", "-0.2", "0.2", "0.0", "0.7"))}
    fields[key] = value
    return f"[scenario]\nseed = 1\n[{section}]\n" + "".join(
        f"{k} = {v}\n" for k, v in fields.items())


@pytest.mark.parametrize("section,key", _POSE_AND_WINDOW_KEYS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_camera_and_window_values_must_be_finite(tmp_path, section, key, value):
    with pytest.raises(ScenarioError, match=rf"\[{section}\] {key} must be finite"):
        load_scenario(_write(tmp_path, _pose_or_window_scenario(section, key, value)))


@pytest.mark.parametrize("key", ["berry_jitter", "foliage_jitter", "palette_jitter"])
@pytest.mark.parametrize("value", ["-1", "-5", "256", "99999999999999999999"])
def test_color_jitter_must_fit_the_channel_range(tmp_path, key, value):
    with pytest.raises(ScenarioError, match=rf"\[colors\] {key} must be in \[0, 255\]"):
        load_scenario(_write(tmp_path, f"[scenario]\nseed = 1\n[colors]\n{key} = {value}\n"))


@pytest.mark.parametrize("value", [0, 255])
def test_color_jitter_range_is_inclusive(tmp_path, value):
    scn = load_scenario(_write(tmp_path, f"[scenario]\nseed = 1\n[colors]\n"
                                         f"foliage_jitter = {value}\n"))
    assert scn.colors.foliage_jitter == value


@pytest.mark.parametrize("prefix,line", [(b"", 1), (b"[scenario]\nseed = 1\n# caf\xc3\xa9\n", 4),
                                         (b"[scenario]\r\nseed = 1\r\r\n", 4)])
def test_bytes_that_are_not_utf8_name_their_line(tmp_path, prefix, line):
    path = tmp_path / "s.ini"
    path.write_bytes(prefix + b"berry_points = 10\xff\n")
    with pytest.raises(ScenarioError, match=rf"byte 0xff at offset {len(prefix) + 17} is not "
                                            rf"valid UTF-8 \(line {line}\)"):
        load_scenario(path)



@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_every_splitlines_break_ends_a_scenario_line(tmp_path, sep):
    path = tmp_path / "s.ini"
    path.write_bytes(f"[scenario]{sep}seed = 7{sep}".encode())
    assert load_scenario(path).seed == 7
    path.write_bytes(f"[scenario]{sep}seed = 7{sep}seed = 8{sep}".encode())
    with pytest.raises(ScenarioError, match=r"duplicate key 'seed' in \[scenario\] \(line 3\)"):
        load_scenario(path)
    path.write_bytes(f"[scenario]{sep}seed = 7{sep}".encode() + b"\xff")
    with pytest.raises(ScenarioError, match=r"not valid UTF-8 \(line 3\)"):
        load_scenario(path)

def test_scenarios_are_read_as_utf8(tmp_path):
    path = tmp_path / "s.ini"
    path.write_bytes("# Erdbeeren für den Laser\n[scenario]\nseed = 3\n".encode())
    assert load_scenario(path).seed == 3


@pytest.mark.parametrize("key,value", [("home_x", "-1"), ("home_y", "100"),
                                       ("home_z", "-1"), ("home_z", "0.800001")])
def test_home_pose_outside_the_travel_fails_at_load(tmp_path, key, value):
    with pytest.raises(ValidationError, match=rf"^{key} must lie within \["):
        load_scenario(_write(tmp_path, f"[scenario]\nseed = 1\n[gantry]\n{key} = {value}\n"))


def test_home_pose_on_the_travel_limits_loads(tmp_path):
    scn = load_scenario(_write(tmp_path, "[scenario]\nseed = 1\n[gantry]\n"
                                         "home_x = 0.24\nhome_y = -0.30\nhome_z = 0.8\n"))
    assert scn.gantry.home_position == (0.24, -0.30, 0.8)


#: ``[section] key = value``, the exit code of ``simulate`` on the minimal
#: scenario holding it, and its ``error:`` line: every key of docs/formats.md
#: set to ``nan``, ``inf``, ``-1``, ``0`` and ``x`` in turn.
_PINS = Path(__file__).parent / "golden" / "scenario_errors.txt"

#: The keys a section needs before one more is set: a berry's or a camera's
#: centre, or all six bounds of the window the key belongs to (defaults).
_PIN_BASE = {
    "berry 1": {"x": "0", "y": "0", "z": "0.6"},
    "camera 1": {"x": "-0.2", "y": "-0.45", "z": "0.4"},
    "camera 2": {"x": "0.2", "y": "0.45", "z": "0.4"},
    "foliage": dict(zip(_BOUNDS, ("-0.35", "0.35", "-0.25", "0.25", "0.45", "0.75"))),
    "reduced_": dict(zip(_BOUNDS, ("-0.3", "0.3", "-0.2", "0.2", "0.5", "0.7"))),
    "palette_": dict(zip(_BOUNDS, ("-0.09", "-0.07", "0.1", "0.11", "0.3", "0.35"))),
}


def _pinned_scenario(section: str, key: str, value: str) -> str:
    """The minimal scenario with ``[section] key = value``."""
    sections = {"scenario": {"seed": "1"}}
    sections.setdefault(section, {})
    window = key[:key.index("_") + 1] if section == "localization" and "_m" in key else None
    for k, v in _PIN_BASE.get(window or section, {}).items():
        sections[section][(window or "") + k] = v
    sections[section][key] = value
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


def _pin_lines() -> list[str]:
    return _PINS.read_text(encoding="utf-8").splitlines()


def _simulate_pin(tmp_path, case: str) -> str:
    """``case`` and the exit code and stderr of ``simulate`` on its scenario,
    as the pin file holds them."""
    section, key, value = re.fullmatch(r"\[(.+)\] (\w+) = (.*)", case).groups()
    path = tmp_path / "pin.ini"
    path.write_text(_pinned_scenario(section, key, value), encoding="utf-8")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["simulate", "--scenario", str(path)])
    return f"{case}\t{code}\t{err.getvalue().rstrip(chr(10))}"


def test_every_key_fails_or_loads_as_pinned(tmp_path):
    lines = _pin_lines()
    assert len(lines) == 5 * 76
    assert [_simulate_pin(tmp_path, line.split("\t")[0]) for line in lines] == lines


#: Every key of the loader's table as ``(section, key)``, with both cameras
#: and one berry standing for their sections.
_TABLE_KEYS = [(section, key)
               for kind, records in _KEYS.items()
               for section in {"berry": ["berry 1"], "camera": ["camera 1", "camera 2"]}.get(
                   kind, [kind])
               for _, rows in records.values() for key in rows]


def test_the_pins_cover_every_key_of_the_table():
    cases = [line.split("\t")[0] for line in _pin_lines()]
    assert sorted(cases) == sorted(f"[{section}] {key} = {value}" for section, key in _TABLE_KEYS
                                   for value in ("nan", "inf", "-1", "0", "x"))


#: Value texts at the edges of what ``int`` and ``float`` read.
_ODD_VALUES = ["1e400", "-0", "1_0", "0x1", "+inf", "-nan", "1e-400", "", "  5  ", "\u0663"]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=st.sampled_from(_TABLE_KEYS), value=st.sampled_from(_ODD_VALUES))
def test_an_odd_value_loads_or_fails_naming_its_key(tmp_path_factory, case, value):
    section, key = case
    path = tmp_path_factory.mktemp("odd") / "s.ini"
    path.write_text(_pinned_scenario(section, key, value), encoding="utf-8")
    try:
        load_scenario(path)
    except (ScenarioError, ValidationError) as exc:
        assert re.search(rf"\b{key}\b", str(exc)), str(exc)


_ONE_BERRY = "[berry 1]\nx = 0\ny = 0\nz = 0.6\n"


@pytest.mark.parametrize("section,key,value,berry,code", [
    pytest.param("berry 1", "stem_diameter_mm", "1e200", "", 1, id="stem-area-overflows"),
    pytest.param("berry 1", "stem_diameter_mm", "1e-200", "", 1, id="stem-area-underflows"),
    pytest.param("laser", "spot_diameter_mm", "2.0", _ONE_BERRY, 2, id="spot-2.0-one-berry"),
    pytest.param("laser", "spot_diameter_mm", "2.0", "", 2, id="spot-2.0-no-cut"),
    pytest.param("laser", "spot_diameter_mm", "0.1", _ONE_BERRY, 2, id="spot-0.1-one-berry"),
    pytest.param("laser", "spot_diameter_mm", "0.1", "", 2, id="spot-0.1-no-cut"),
])
def test_a_stem_or_spot_the_cut_cannot_use_fails_before_the_scene(
        tmp_path, capsys, monkeypatch, section, key, value, berry, code):
    monkeypatch.setattr("laserberry.pipeline.generate_scene",
                        lambda *args: pytest.fail("the scene was generated"))
    path = tmp_path / "s.ini"
    path.write_text(_pinned_scenario(section, key, value) + berry, encoding="utf-8")
    assert main(["simulate", "--scenario", str(path)]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert re.search(rf"\b{key}\b", err), err
    if key == "spot_diameter_mm":
        assert "[0.5, 1.1] mm" in err                     # the fine table's knots


@pytest.mark.parametrize("speed,code", [("1e308", 2), ("1e300", 0)])
def test_a_beam_too_fast_for_a_float_fails_at_load(tmp_path, capsys, speed, code):
    # at 1e308 mm/s the lens position overflowed mid-cut, and the next fruit's
    # lens homing started from nan and never ended
    text = bundled_scenario_path("demo_11").read_text(encoding="utf-8")
    path = tmp_path / "s.ini"
    path.write_text(text.replace("lateral_velocity_mm_s = 50.0",
                                 f"lateral_velocity_mm_s = {speed}"), encoding="utf-8")
    assert main(["simulate", "--scenario", str(path)]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: lateral_velocity_mm_s ")
    else:
        assert err == "" and "harvested 11/11 fruit" in out


def test_the_coarse_table_takes_a_spot_the_fine_one_refuses(tmp_path, capsys):
    path = tmp_path / "s.ini"
    path.write_text(_pinned_scenario("laser", "spot_diameter_mm", "2.0") + "dataset = coarse\n",
                    encoding="utf-8")
    assert main(["simulate", "--scenario", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_a_berry_built_in_code_refuses_what_the_loader_refuses():
    with pytest.raises(ScenarioError, match=r"^center\[0\] must be finite, got nan$"):
        Scenario(seed=1, berries=(BerrySpec(center=(math.nan, 0, 0.6), diameter_m=-1.0),))
    with pytest.raises(ScenarioError, match=r"^diameter_m must be positive, got -1.0$"):
        BerrySpec(center=(0.0, 0.0, 0.6), diameter_m=-1.0)
    with pytest.raises(ScenarioError, match=r"^toughness must be finite, got inf$"):
        BerrySpec(center=(0.0, 0.0, 0.6), toughness=math.inf)


def test_a_palette_built_in_code_refuses_what_the_loader_refuses():
    with pytest.raises(ScenarioError, match=r"^center\[0\] must be finite, got nan$"):
        Scenario(seed=1, palette=PaletteSpec(center=(math.nan, 0.105, 0.325)))
    with pytest.raises(ScenarioError, match=r"^size\[2\] must be positive, got 0.0$"):
        PaletteSpec(size=(0.015, 0.008, 0.0))
    with pytest.raises(ScenarioError, match=r"^points must be positive, got 0$"):
        PaletteSpec(points=0)


def test_colors_built_in_code_refuse_channels_outside_a_byte():
    with pytest.raises(ScenarioError, match=r"^berry_base: channels outside \[0, 255\]$"):
        ColorSettings(berry_base=(300, -5, 0))
    with pytest.raises(ScenarioError, match=r"^palette_jitter must be in \[0, 255\], got 256$"):
        ColorSettings(palette_jitter=256)


@pytest.mark.parametrize("section", ["camera 1", "camera 2"])
def test_a_camera_section_is_all_or_none(tmp_path, section):
    default = Scenario(seed=1)
    attr = section.replace(" ", "_")
    scn = load_scenario(_write(tmp_path, f"[scenario]\nseed = 1\n[{section}]\n"))
    assert np.array_equal(getattr(scn, attr).rotation, getattr(default, attr).rotation)
    assert np.array_equal(getattr(scn, attr).translation, getattr(default, attr).translation)
    for given_keys, missing in (("roll_deg = 5\n", "x"), ("x = 0\ny = 0\n", "z")):
        with pytest.raises(ScenarioError, match=rf"^missing required key '{missing}' in "
                                                rf"\[{section}\]$"):
            load_scenario(_write(tmp_path, f"[scenario]\nseed = 1\n[{section}]\n{given_keys}"))
    scn = load_scenario(_write(tmp_path, f"[scenario]\nseed = 1\n[{section}]\n"
                                         f"x = 0.1\ny = 0.2\nz = 0.3\n"))
    assert np.array_equal(getattr(scn, attr).rotation, np.eye(3))
    assert getattr(scn, attr).translation.tolist() == [0.1, 0.2, 0.3]


def _docs_sections() -> dict[str, str]:
    """``### `[...]``` sections of docs/formats.md by heading."""
    text = (Path(__file__).parent.parent / "docs" / "formats.md").read_text(encoding="utf-8")
    return dict(re.findall(r"^### (`\[.*)\n((?:(?!##).*\n)*)", text, re.M))


def test_every_key_is_named_in_its_own_docs_section():
    sections = _docs_sections()
    for kind, records in _KEYS.items():
        heading = {"berry": "`[berry N]`", "camera": "`[camera 1]`"}.get(kind, f"`[{kind}]`")
        (text,) = [body for head, body in sections.items() if head.startswith(heading)]
        for _, rows in records.values():
            for key in rows:
                assert re.search(rf"^\|[^\n]*`{key}`", text, re.M), (kind, key)

