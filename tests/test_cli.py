"""Command-line behavior: subcommands, artifacts, exit codes."""

import hashlib
import io
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import pytest
from hypothesis import assume, given, settings, strategies as st

from laserberry import cli
from laserberry.cli import main
from laserberry.errors import ScenarioError, ValidationError
from laserberry.geometry import PointCloud
from laserberry.pcdio import read_pcd, write_pcd
from laserberry.scenario import bundled_scenario_path, load_scenario
from test_localization import _flat_fruit_clouds


def test_verify_tables_ok(capsys):
    assert main(["verify-tables"]) == 0
    assert capsys.readouterr().out == (
        "36 derived values audited; max deviation 0.0242 (tolerance 0.03): PASS\n")


def test_verify_tables_tight_tolerance_fails(capsys):
    assert main(["verify-tables", "--tolerance", "0.001"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "pierce-coarse" in out
    assert re.search(r"^FAIL pierce-coarse data row \d+ \(spot ", out, re.M)


def test_optimize_spot_fine(capsys):
    assert main(["optimize-spot"]) == 0
    assert "0.9 mm" in capsys.readouterr().out


def test_optimize_spot_coarse_with_range(capsys):
    assert main(["optimize-spot", "--table", "coarse",
                 "--lo", "0.09", "--hi", "3.79"]) == 0
    assert "0.71 mm" in capsys.readouterr().out


_FINE_LINE = "optimal spot diameter: 0.9 mm (pierce constant 1.36 mm^2/s) over [0.5, 1.1] mm\n"
_COARSE_LINE = ("optimal spot diameter: 0.71 mm (pierce constant 1.72 mm^2/s) "
                "over [0.09, 3.79] mm\n")


@pytest.mark.parametrize("args, line", [
    (["--table", "fine"], _FINE_LINE),
    (["--table", "fine", "--continuous"], _FINE_LINE),
    (["--table", "coarse"], _COARSE_LINE),
    (["--table", "coarse", "--continuous"], _COARSE_LINE),
])
def test_optimize_spot_pinned_output(args, line, capsys):
    assert main(["optimize-spot", *args]) == 0
    assert capsys.readouterr().out == line


@pytest.mark.parametrize("table, digest", [
    ("fine", "bea33a4ecebd2b23503c2a86d8ed95294943e0174bb3593ac0ba5ef61b68dcbf"),
    ("coarse", "6ca038a89829c197bd65cd978ab851c4beb77db635cc6021b7ce77b5498e370d"),
])
def test_optimize_spot_svg_pinned_digest(tmp_path, capsys, table, digest):
    assert main(["optimize-spot", "--table", table, "--svg", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "cp_curve.svg").read_bytes()).hexdigest() == digest


def test_optimize_spot_empty_range_exits_2(capsys):
    assert main(["optimize-spot", "--lo", "2.0", "--hi", "3.0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_optimize_spot_svg_of_one_knot(tmp_path, capsys):
    one = tmp_path / "one.csv"
    one.write_text("spot_diameter_mm,stem_diameter_mm,pierce_time_s,"
                   "pierce_velocity_mm_s,pierce_constant_mm2_s\n0.5,2.1,1.16,1.81,0.90\n")
    out = tmp_path / "d"
    assert main(["optimize-spot", "--dataset", str(one), "--svg", "--out", str(out)]) == 0
    assert "optimal spot diameter: 0.5 mm" in capsys.readouterr().out
    svg = (out / "cp_curve.svg").read_text()
    assert svg.count("<circle") == 1


def test_optimize_spot_duplicate_knot_exits_2(tmp_path, capsys):
    fine = resources.files("laserberry").joinpath("data/pierce_fine.csv").read_text()
    row = next(line for line in fine.splitlines() if line.startswith("0.9,"))
    dup = tmp_path / "dup.csv"
    dup.write_text(fine + row + "\n")
    assert main(["optimize-spot", "--dataset", str(dup)]) == 2
    err = capsys.readouterr().err
    assert err == "error: duplicate spot diameter 0.9 mm in pierce records\n"


def test_localize_bundled(capsys):
    assert main(["localize", "--scenario", "demo_11"]) == 0
    out = capsys.readouterr().out
    assert "localized 11 fruit" in out


def test_localize_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "loc"
    assert main(["localize", "--scenario", "demo_11", "--out", str(out)]) == 0
    capsys.readouterr()
    boxes = (out / "boxes.csv").read_text().splitlines()
    assert boxes[0].startswith("rank,centroid_x_m")
    assert len(boxes) == 12
    assert (out / "clusters.pcd").exists()


def test_localize_without_fruit_overwrites_the_clusters_of_an_earlier_run(tmp_path, capsys):
    out = tmp_path / "loc"
    assert main(["localize", "--scenario", "demo_11", "--out", str(out)]) == 0
    assert len(read_pcd(out / "clusters.pcd")) > 0
    empty = tmp_path / "empty.ini"
    empty.write_text("[scenario]\nseed = 1\n")
    assert main(["localize", "--scenario", str(empty), "--out", str(out)]) == 0
    assert "localized 0 fruit" in capsys.readouterr().out
    assert len((out / "boxes.csv").read_text().splitlines()) == 1
    assert len(read_pcd(out / "clusters.pcd")) == 0
    assert "POINTS 0\n" in (out / "clusters.pcd").read_text()


def test_localize_from_pcd_files(tmp_path, capsys):
    scene_dir = tmp_path / "scene"
    assert main(["gen-scene", "--scenario", "demo_11",
                 "--out", str(scene_dir)]) == 0
    assert main(["localize", "--scenario", "demo_11",
                 "--cloud1", str(scene_dir / "camera1.pcd"),
                 "--cloud2", str(scene_dir / "camera2.pcd")]) == 0
    assert "localized 11 fruit" in capsys.readouterr().out
    # one cloud without the other is a usage error
    assert main(["localize", "--scenario", "demo_11",
                 "--cloud1", str(scene_dir / "camera1.pcd")]) == 2


def test_localize_flat_fruit_from_pcd_files(tmp_path, capsys):
    # cameras 0.15 m above the base origin, not rotated: a PCD holds float32
    # values, whose sums are exact, but the translated base-frame coordinates
    # are not, so the flat fruit's plain mean drifts off z = 0.55; the box
    # clips it back inside
    for i, cloud in enumerate(_flat_fruit_clouds(), 1):
        write_pcd(PointCloud(cloud.xyz - [0.0, 0.0, 0.15], cloud.rgb, "camera"),
                  tmp_path / f"camera{i}.pcd")
    scenario = tmp_path / "raised.ini"
    scenario.write_text("[scenario]\nseed = 1\n"
                        "[camera 1]\nx = 0\ny = 0\nz = 0.15\n"
                        "[camera 2]\nx = 0\ny = 0\nz = 0.15\n"
                        "[localization]\nmin_cluster = 3\nreduced_x_min = 0\n"
                        "reduced_x_max = 0.3\nreduced_y_min = -0.2\nreduced_y_max = 0.2\n"
                        "reduced_z_min = 0\nreduced_z_max = 0.7\n")
    assert main(["localize", "--scenario", str(scenario), "--out", str(tmp_path / "out"),
                 "--cloud1", str(tmp_path / "camera1.pcd"),
                 "--cloud2", str(tmp_path / "camera2.pcd")]) == 0
    assert "localized 2 fruit" in capsys.readouterr().out
    rows = (tmp_path / "out" / "boxes.csv").read_text().splitlines()
    assert rows[1].split(",")[3] == "0.550000" and rows[1].endswith(",49")


def test_gen_scene_truth_rows(tmp_path, capsys):
    out = tmp_path / "scene"
    assert main(["gen-scene", "--scenario", "demo_11", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = (out / "truth.csv").read_text().splitlines()
    assert rows[0].startswith("berry_index,")
    assert len(rows) == 12


def test_simulate_writes_deterministic_metrics(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--scenario", "demo_11", "--out", str(out1)]) == 0
    assert main(["simulate", "--scenario", "demo_11", "--out", str(out2)]) == 0
    capsys.readouterr()
    b1 = (out1 / "metrics.csv").read_bytes()
    b2 = (out2 / "metrics.csv").read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert text.count("\n") == 14   # header + 11 rows + 2 footer comments
    assert "# successes=11 attempted=11" in text


def test_simulate_svg(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["simulate", "--scenario", "demo_11", "--out", str(out),
                 "--svg"]) == 0
    capsys.readouterr()
    svg = (out / "cycle_times.svg").read_text()
    assert svg.startswith("<svg ")
    assert svg.count("<rect") == 12   # background + 11 bars


@pytest.mark.parametrize("command", [["simulate", "--scenario", "demo_11"],
                                     ["optimize-spot"]])
def test_svg_without_out_exits_2(capsys, command):
    assert main(command + ["--svg"]) == 2
    captured = capsys.readouterr()
    assert "--svg needs --out" in captured.err
    assert captured.out == ""


def test_simulate_records_a_plan_failure_for_a_low_next_fruit(tmp_path, capsys):
    # the cycle before fruit 1 descends toward an approach depth below the
    # z stroke; that fruit then fails its own plan instead of ending the run
    low = tmp_path / "low.ini"
    low.write_text("[scenario]\nseed = 5\nfoliage_points = 0\n"
                   "[berry 1]\nx = 0\ny = -0.05\nz = 0.60\n"
                   "[berry 2]\nx = 0.05\ny = 0.05\nz = 0.035\n"
                   "[localization]\nreduced_x_min = -0.3\nreduced_x_max = 0.3\n"
                   "reduced_y_min = -0.2\nreduced_y_max = 0.2\n"
                   "reduced_z_min = -0.1\nreduced_z_max = 0.7\n")
    out = tmp_path / "s"
    assert main(["simulate", "--scenario", str(low), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:-2]]
    assert [(r[1], r[5]) for r in rows] == [("1", ""), ("0", "plan")]


def test_seed_override_changes_metrics(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--scenario", "demo_11", "--out", str(out1)]) == 0
    assert main(["simulate", "--scenario", "demo_11", "--seed", "99",
                 "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "metrics.csv").read_bytes() != (out2 / "metrics.csv").read_bytes()


def test_missing_scenario_exits_1(capsys):
    assert main(["simulate", "--scenario", "/nonexistent.ini"]) == 1
    assert "error:" in capsys.readouterr().err


def test_broken_scenario_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nseed = 1\nbogus_key = 3\n")
    assert main(["simulate", "--scenario", str(bad)]) == 1
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["simulate", "--scenario", "demo_11"],
                                  ["localize", "--scenario", "demo_11"],
                                  ["optimize-spot", "--svg"]])
def test_an_out_path_that_is_a_file_fails_before_any_work(tmp_path, capsys, args):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(args + ["--out", str(taken)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_broken_pcd_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.pcd"
    bad.write_text("VERSION 0.7\nnot a header\n")
    assert main(["localize", "--scenario", "demo_11",
                 "--cloud1", str(bad), "--cloud2", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_a_float32_overflow_in_a_cloud_prints_one_error_line(tmp_path):
    # in a child process, so a numpy warning would reach stderr as it does for users
    bad = tmp_path / "big.pcd"
    bad.write_text("WIDTH 2\nPOINTS 2\nDATA ascii\n0.0 0.0 0.0 0\n3.5e38 0.0 0.0 0\n")
    proc = subprocess.run([sys.executable, "-m", "laserberry", "localize", "--scenario",
                           "demo_11", "--cloud1", str(bad), "--cloud2", str(bad)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "error: line 5: non-finite coordinate in row: '3.5e38 0.0 0.0 0'\n"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_console_script_end_to_end():
    proc = subprocess.run([sys.executable, "-m", "laserberry", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "laserberry" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "laserberry", "verify-tables"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_non_finite_timestep_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nseed = 1\n[demo]\ndt = nan\n")
    assert main(["simulate", "--scenario", str(bad)]) == 1
    assert "[demo] dt" in capsys.readouterr().err


@pytest.mark.parametrize("section,key", [("localization", "r_th"),
                                         ("localization", "tolerance"),
                                         ("gantry", "z_max")])
def test_non_finite_value_exits_2_naming_key(tmp_path, capsys, section, key):
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[scenario]\nseed = 1\n[{section}]\n{key} = nan\n")
    assert main(["simulate", "--scenario", str(bad)]) == 2
    assert f"{key} must be" in capsys.readouterr().err


def test_gen_scene_with_a_bad_laser_value_exits_2_writing_nothing(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nseed = 1\n[laser]\ntoughness = nan\n")
    out = tmp_path / "scene"
    assert main(["gen-scene", "--scenario", str(bad), "--out", str(out)]) == 2
    assert "toughness must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_gen_scene_with_a_bad_color_half_width_exits_2_writing_nothing(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nseed = 1\n[localization]\nr_th = nan\n")
    out = tmp_path / "scene"
    assert main(["gen-scene", "--scenario", str(bad), "--out", str(out)]) == 2
    assert "r_th must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("x", ["1e39", "-1e39"])
def test_gen_scene_beyond_float32_exits_2_writing_no_camera_file(tmp_path, capsys, x):
    text = bundled_scenario_path("demo_11").read_text(encoding="utf-8")
    big = tmp_path / "big.ini"
    big.write_text(text.replace("[berry 1]\nx = -0.10\n", f"[berry 1]\nx = {x}\n"))
    assert big.read_text() != text
    out = tmp_path / "scene"
    assert main(["gen-scene", "--scenario", str(big), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: camera-1 row ")
    assert "beyond the float32 range" in lines[0]
    assert not list(out.glob("camera*.pcd"))


def test_gen_scene_removes_camera1_when_camera2_is_refused(tmp_path, capsys, monkeypatch):
    generate = cli.generate_scene

    def far_point_in_camera2(scenario):
        cloud1, cloud2, truth = generate(scenario)
        xyz = cloud2.xyz.copy()
        xyz[5, 1] = -1e39
        return cloud1, PointCloud(xyz, cloud2.rgb, cloud2.frame), truth

    monkeypatch.setattr(cli, "generate_scene", far_point_in_camera2)
    out = tmp_path / "scene"
    assert main(["gen-scene", "--scenario", "demo_11", "--out", str(out)]) == 2
    assert "camera-2 row 5: coordinate -1e+39 is beyond" in capsys.readouterr().err
    assert not list(out.glob("camera*.pcd"))


def test_negative_pcd_points_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.pcd"
    bad.write_text("VERSION 0.7\nFIELDS x y z rgb\nWIDTH -1\nPOINTS -1\nDATA ascii\n")
    assert main(["localize", "--scenario", "demo_11",
                 "--cloud1", str(bad), "--cloud2", str(bad)]) == 1
    assert "line 4: negative POINTS" in capsys.readouterr().err


@pytest.mark.parametrize("section,key", [
    *(("berry 1", k) for k in ("x", "y", "z", "diameter", "stem_length",
                               "stem_diameter_mm", "toughness")),
    *(("palette", k) for k in ("x", "y", "z", "dx", "dy", "dz"))])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_berry_or_palette_value_exits_1(tmp_path, capsys, section, key, value):
    fields = {"x": "0.0", "y": "0.0", "z": "0.6"} if section == "berry 1" else {}
    fields[key] = value
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[scenario]\nseed = 1\n[{section}]\n"
                   + "".join(f"{k} = {v}\n" for k, v in fields.items()))
    assert main(["simulate", "--scenario", str(bad)]) == 1
    assert f"[{section}] {key} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("[camera 1]\nx = nan\ny = 0\nz = 0.4\n", "[camera 1] x must be finite"),
    ("[foliage]\nx_min = inf\nx_max = 0.3\ny_min = -0.2\ny_max = 0.2\n"
     "z_min = 0.45\nz_max = 0.75\n", "[foliage] x_min must be finite"),
    ("[localization]\npalette_x_min = nan\npalette_x_max = -0.07\n"
     "palette_y_min = 0.1\npalette_y_max = 0.11\npalette_z_min = 0.3\n"
     "palette_z_max = 0.35\n", "[localization] palette_x_min must be finite"),
    ("[berry 1]\nx = 0\ny = 0\nz = 0.6\ndiameter = -0.01\n",
     "[berry 1] diameter must be positive"),
    ("[berry 1]\nx = 0\ny = 0\nz = 0.6\ntoughness = -1\n",
     "[berry 1] toughness must be positive"),
    ("[colors]\nfoliage_jitter = -5\n", "[colors] foliage_jitter must be in [0, 255]"),
    ("[colors]\npalette_jitter = -1\n", "[colors] palette_jitter must be in [0, 255]"),
])
def test_bad_scenario_value_exits_1_naming_key(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nseed = 1\n" + text)
    assert main(["simulate", "--scenario", str(bad)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key,text", [
    ("[scenario] foliage_points", "foliage_points = 10000000\n"),
    ("[palette] points", "[palette]\npoints = 5000000\n"),
])
def test_scene_over_the_point_budget_exits_1_naming_key(tmp_path, capsys, monkeypatch,
                                                        key, text):
    monkeypatch.setattr(cli, "simulate_scenario",
                        lambda *args: pytest.fail("an over-budget scenario was run"))
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nseed = 1\n" + text)
    assert main(["simulate", "--scenario", str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"{key}: " in err and "over the budget" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key,text", [
    ("[demo] dt", "[demo]\ndt = 1e-8\n"),
    ("[demo] cut_timeout_s", "[demo]\ncut_timeout_s = 1e6\n"),
    ("[demo] fall_timeout_s", "[demo]\nfall_timeout_s = 1e5\n"),
    ("[gantry] max_velocity", "[gantry]\nmax_velocity = 1e-6\n"),
    ("[gantry] max_accel", "[gantry]\nmax_accel = 1e-9\n"),
])
def test_wait_over_the_tick_budget_exits_1_naming_key(tmp_path, capsys, monkeypatch,
                                                       key, text):
    monkeypatch.setattr(cli, "simulate_scenario",
                        lambda *args: pytest.fail("an over-budget scenario was run"))
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nseed = 1\n" + text)
    assert main(["simulate", "--scenario", str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"{key}: " in err and "over the budget" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("dt,code", [("0.2", 0), ("0.20000000000000004", 1), ("1e300", 1)])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_demo_dt_over_the_trapper_close_time_exits_1(tmp_path, capsys, dt, code):
    scn = tmp_path / "dt.ini"
    scn.write_text(_SMALL_SCENE + f"[demo]\ndt = {dt}\n")
    assert main(["simulate", "--scenario", str(scn)]) == code
    err = capsys.readouterr().err
    assert ("error: [demo] dt must be at most" in err) == (code == 1), err


def test_non_utf8_pcd_exits_1_naming_the_line(tmp_path, capsys):
    assert main(["gen-scene", "--scenario", "demo_11", "--out", str(tmp_path)]) == 0
    good = tmp_path / "camera1.pcd"
    bad = tmp_path / "bad.pcd"
    bad.write_bytes(good.read_bytes().replace(b"\nDATA ascii\n", b"\nDATA ascii\n\xff", 1))
    capsys.readouterr()
    assert main(["localize", "--scenario", "demo_11",
                 "--cloud1", str(bad), "--cloud2", str(good)]) == 1
    err = capsys.readouterr().err
    assert "error: line 12: byte 0xff at offset" in err and "Traceback" not in err


def test_non_utf8_scenario_exits_1_naming_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"[scenario]\nseed = 1\n# \xff\n")
    assert main(["simulate", "--scenario", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "not valid UTF-8 (line 3)" in err and "Traceback" not in err


def test_home_pose_outside_the_travel_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nseed = 1\n[gantry]\nhome_y = 100\n")
    assert main(["simulate", "--scenario", str(bad)]) == 2
    assert "error: home_y must lie within [y_min, y_max]" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["verify-tables", "--lateral"],
                                  ["optimize-spot", "--dataset"]])
def test_non_utf8_calibration_csv_exits_2_naming_the_line(tmp_path, capsys, args):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"spot\xff\n")
    assert main([*args, str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error: bad.csv line 1: byte 0xff at offset 4" in err and "Traceback" not in err


@pytest.mark.parametrize("section,key,code", [
    *(("gantry", k, 2) for k in ("max_velocity", "max_accel", "x_min", "x_max", "y_min",
                                 "y_max", "z_min", "z_max", "home_x", "home_y", "home_z")),
    *(("localization", k, 2) for k in ("r_th", "g_th", "b_th", "tolerance")),
    *(("laser", k, 2) for k in ("spot_diameter_mm", "lateral_velocity_mm_s", "toughness")),
    *(("demo", k, 1) for k in ("dt", "cut_timeout_s", "fall_timeout_s"))])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_key_exits_with_its_documented_code(tmp_path, capsys, monkeypatch,
                                                            section, key, code, value):
    monkeypatch.setattr(cli, "simulate_scenario",
                        lambda *args: pytest.fail("a scenario with a bad value was run"))
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[scenario]\nseed = 1\n[{section}]\n{key} = {value}\n")
    assert main(["simulate", "--scenario", str(bad)]) == code
    err = capsys.readouterr().err
    assert f"{key} must be" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [["optimize-spot", "--dataset"],
                                  ["verify-tables", "--pierce-fine"]])
def test_a_calibration_table_without_data_rows_exits_2(tmp_path, capsys, args):
    hdr = tmp_path / "hdr.csv"
    hdr.write_text("spot_diameter_mm,stem_diameter_mm,pierce_time_s,"
                   "pierce_velocity_mm_s,pierce_constant_mm2_s\n")
    assert main([*args, str(hdr)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: hdr.csv: no data rows\n" and "PASS" not in captured.out


# ---------------------------------------------------------------------------
# mutated text inputs through main: the documented exit code, one error line

_SMALL_SCENE = """[scenario]
seed = 5
berry_points = 60
foliage_points = 40
[palette]
points = 30
[berry 1]
x = 0.0
y = 0.0
z = 0.6
"""
_TOKENS = [b"", b"x", b"nan", b"-inf", b"-1", b"0", b"0.5", b"1e400", b"16777216",
           "\uff11".encode(), b"DATA"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small written PCD pair with its scenario, and the embedded fine pierce table."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "scene.ini").write_text(_SMALL_SCENE)
    with redirect_stdout(io.StringIO()):
        assert main(["gen-scene", "--scenario", str(root / "scene.ini"), "--out", str(root)]) == 0
    pierce = (resources.files("laserberry") / "data" / "pierce_fine.csv").read_bytes()
    return root, pierce


def _mutate(draw, raw: bytes, header_lines: int) -> bytes:
    """``raw`` cut, with one token replaced, with one insertion, with a
    header line doubled, or with its header lines reordered."""
    kind = draw(st.sampled_from(["cut", "token", "crlf", "nul", "comment", "ff", "header",
                                 "reorder"]))
    lines = raw.splitlines(keepends=True)
    line_starts = [len(b"".join(lines[:k])) for k in range(len(lines) + 1)]
    at = draw(st.integers(0, len(raw)) | st.sampled_from(line_starts))
    if kind == "cut":
        return raw[:at]
    if kind == "token":
        spans = [m.span() for m in re.finditer(rb"[^\s,]+", raw)] or [(at, at)]
        i, j = spans[draw(st.integers(0, len(spans) - 1))]
        return raw[:i] + draw(st.sampled_from(_TOKENS)) + raw[j:]
    if kind == "comment":
        return raw[:at] + b"# note\n" + raw[at:]
    if kind == "header":
        k = draw(st.integers(0, header_lines - 1))
        return b"".join(lines[:k + 1] + lines[k:])
    if kind == "reorder":
        return b"".join(draw(st.permutations(lines[:header_lines])) + lines[header_lines:])
    return raw[:at] + {"crlf": b"\r\n", "nul": b"\x00", "ff": b"\xff"}[kind] + raw[at:]


@st.composite
def _mutated(draw, raw: bytes, header_lines: int) -> bytes:
    """``raw`` after one to three mutations."""
    for _ in range(draw(st.integers(1, 3))):
        raw = _mutate(draw, raw, header_lines)
    return raw


def _check_run(argv: list[str], raw: bytes, codes: set[int]) -> None:
    """``main(argv)`` on a file of bytes ``raw`` exits with one of ``codes``,
    prints one ``error:`` line exactly when it fails, and names only lines
    of that file."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in codes
    errors = [ln for ln in err.getvalue().splitlines() if ln.startswith("error:")]
    assert len(errors) == (code != 0), err.getvalue()
    n_lines = max(1, len(raw.decode("utf-8", "replace").splitlines()))
    for line in re.findall(r"\bline (\d+)", err.getvalue()):
        assert 1 <= int(line) <= n_lines, err.getvalue()


_FUZZ = settings(max_examples=100, derandomize=True, database=None, deadline=None)


@_FUZZ
@given(data=st.data())
def test_mutated_pcd_exits_0_or_1(inputs, data):
    root, _ = inputs
    camera = data.draw(st.sampled_from(["camera1", "camera2"]))
    clouds = {"camera1": root / "camera1.pcd", "camera2": root / "camera2.pcd"}
    raw = data.draw(_mutated(clouds[camera].read_bytes(), header_lines=11))
    clouds[camera] = root / "mutated.pcd"
    clouds[camera].write_bytes(raw)
    _check_run(["localize", "--scenario", str(root / "scene.ini"),
                "--cloud1", str(clouds["camera1"]), "--cloud2", str(clouds["camera2"])],
               raw, {0, 1})


@_FUZZ
@given(data=st.data())
def test_mutated_pierce_table_exits_0_or_2(inputs, data):
    root, pierce = inputs
    raw = data.draw(_mutated(pierce, header_lines=3))
    (root / "mutated.csv").write_bytes(raw)
    _check_run(["optimize-spot", "--dataset", str(root / "mutated.csv")], raw, {0, 2})


_BUNDLED = {name: bundled_scenario_path(name).read_bytes()
            for name in ("demo_11", "demo_overreach", "perf_300k")}
_VALUES = [b"nan", b"inf", b"-inf", b"0", b"-0", b"-1", b"1e300", b"1e-300",
           str(2 ** 63).encode(), b"", b"x", b"\xff"]
_SECTION_NAMES = [b"scenario", b"gantry", b"laser", b"demo", b"palette", b"colors",
                  b"foliage", b"localization", b"camera 1", b"berry 1", b"berry 99", b"x"]


def _mutate_scenario(draw, raw: bytes) -> bytes:
    """``raw`` with a key or a section dropped, duplicated or renamed, or
    with a key set to one of ``_VALUES``."""
    lines = raw.splitlines(keepends=True)
    heads = [i for i, ln in enumerate(lines) if ln.startswith(b"[")]
    keys = [i for i, ln in enumerate(lines) if b"=" in ln and not ln.startswith(b"#")]
    kind = draw(st.sampled_from(["drop", "duplicate", "rename", "value"]))
    if kind != "value" and draw(st.booleans()):       # a whole section
        i = draw(st.sampled_from(heads))
        end = next((j for j in heads if j > i), len(lines))
        if kind == "drop":
            lines[i:end] = []
        elif kind == "duplicate":
            lines[i:end] *= 2
        else:
            lines[i] = b"[" + draw(st.sampled_from(_SECTION_NAMES)) + b"]\n"
        return b"".join(lines)
    i = draw(st.sampled_from(keys))
    key, _, value = lines[i].partition(b"=")
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "rename":
        names = sorted({lines[k].partition(b"=")[0].strip() for k in keys})
        lines[i] = draw(st.sampled_from(names + [key.strip() + b"_x"])) + b" =" + value
    else:
        lines[i] = key.strip() + b" = " + draw(st.sampled_from(_VALUES)) + b"\n"
    return b"".join(lines)


@st.composite
def _mutated_scenario(draw) -> bytes:
    """A bundled scenario after one to three mutations."""
    raw = _BUNDLED[draw(st.sampled_from(sorted(_BUNDLED)))]
    for _ in range(draw(st.integers(1, 3))):
        raw = _mutate_scenario(draw, raw)
    return raw


def _over_point_budget(path) -> bool:
    try:
        load_scenario(path)
    except (ScenarioError, ValidationError) as exc:
        return "points, over the budget" in str(exc)
    return False


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(raw=_mutated_scenario())
def test_mutated_scenario_simulates_or_exits_1_or_2(inputs, raw):
    path = inputs[0] / "mutated.ini"
    path.write_bytes(raw)
    assume(not _over_point_budget(path))
    _check_run(["simulate", "--scenario", str(path)], raw, {0, 1, 2})
