"""ASCII PCD writer/reader: round-trips and parse diagnostics."""

import hashlib
import math
import re
import tempfile
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from laserberry import PcdParseError, PointCloud, ValidationError, pcdio, read_pcd, write_pcd
from laserberry.cli import main
from laserberry.geometry import BASE_FRAME, CAMERA_1_FRAME, CAMERA_2_FRAME
from laserberry.pcdio import _fmt32
from laserberry.scenario import bundled_scenario_path, load_scenario
from laserberry.scene import generate_scene
from comparing import assert_same_text


def _cloud(rng, n, frame="camera-1"):
    xyz = rng.uniform(-2, 2, size=(n, 3))
    rgb = rng.integers(0, 256, size=(n, 3), dtype=np.uint8)
    return PointCloud(xyz, rgb, frame)


def test_roundtrip_preserves_everything(tmp_path):
    rng = np.random.default_rng(13)
    cloud = _cloud(rng, 257)
    path = tmp_path / "a.pcd"
    write_pcd(cloud, path)
    back = read_pcd(path)
    assert back.frame == "camera-1"
    assert len(back) == 257
    np.testing.assert_array_equal(back.rgb, cloud.rgb)
    # coordinates survive the float32 narrowing exactly
    np.testing.assert_array_equal(back.xyz, cloud.xyz.astype(np.float32))


def test_write_read_write_is_stable(tmp_path):
    rng = np.random.default_rng(14)
    cloud = _cloud(rng, 40)
    p1, p2 = tmp_path / "a.pcd", tmp_path / "b.pcd"
    write_pcd(cloud, p1)
    write_pcd(read_pcd(p1), p2)
    assert_same_text(p1.read_bytes(), p2.read_bytes())


def test_empty_cloud_roundtrip(tmp_path):
    path = tmp_path / "e.pcd"
    write_pcd(PointCloud.empty("camera-2"), path)
    back = read_pcd(path)
    assert len(back) == 0 and back.frame == "camera-2"


def test_header_layout(tmp_path):
    path = tmp_path / "h.pcd"
    write_pcd(_cloud(np.random.default_rng(0), 3), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# frame camera-1"
    assert lines[1] == "VERSION 0.7"
    assert "FIELDS x y z rgb" in lines
    assert "TYPE F F F U" in lines
    assert "DATA ascii" in lines


def _valid_text():
    return "\n".join([
        "# frame camera-1",
        "VERSION 0.7",
        "FIELDS x y z rgb",
        "SIZE 4 4 4 4",
        "TYPE F F F U",
        "COUNT 1 1 1 1",
        "WIDTH 2",
        "HEIGHT 1",
        "VIEWPOINT 0 0 0 1 0 0 0",
        "POINTS 2",
        "DATA ascii",
        "0.5 -1 2 16711680",
        "1 2 3 255",
    ]) + "\n"


def test_parse_minimal_valid(tmp_path):
    path = tmp_path / "v.pcd"
    path.write_text(_valid_text())
    cloud = read_pcd(path)
    assert len(cloud) == 2
    np.testing.assert_array_equal(cloud.rgb[0], [255, 0, 0])
    np.testing.assert_array_equal(cloud.rgb[1], [0, 0, 255])


@pytest.mark.parametrize("mutate,lineno", [
    (lambda t: t.replace("FIELDS x y z rgb", "FIELDS x y z"), 3),
    (lambda t: t.replace("TYPE F F F U", "TYPE F F F F"), 5),
    (lambda t: t.replace("DATA ascii", "DATA binary"), 11),
    (lambda t: t.replace("0.5 -1 2 16711680", "0.5 -1 2"), 12),
    (lambda t: t.replace("1 2 3 255", "1 x 3 255"), 13),
    (lambda t: t.replace("1 2 3 255", "1 2 3 99999999999"), 13),
    (lambda t: t.replace("1 2 3 255", "1e400 2 3 255"), 13),
])
def test_parse_errors_carry_line_numbers(tmp_path, mutate, lineno):
    path = tmp_path / "bad.pcd"
    path.write_text(mutate(_valid_text()))
    with pytest.raises(PcdParseError) as err:
        read_pcd(path)
    assert f"line {lineno}" in str(err.value)


def test_a_float32_overflow_names_its_line_and_warns_nothing(tmp_path):
    # a RuntimeWarning is an error under this suite, so a leaked one fails here
    path = tmp_path / "big.pcd"
    path.write_text(_valid_text().replace("1 2 3 255", "3.5e38 2 3 255"))
    with pytest.raises(PcdParseError) as err:
        read_pcd(path)
    assert str(err.value) == "line 13: non-finite coordinate in row: '3.5e38 2 3 255'"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(ends=st.lists(st.sampled_from([*"\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029", "\r\n", "\r\r\n",
                                      "\n \x1f\t\n", "\n# caf\xe9\n"]), min_size=11, max_size=11),
       bad=st.integers(1, 9))
def test_header_lines_end_where_splitlines_ends_them(ends, bad):
    # a header fault is numbered as str.splitlines() numbers its line, whatever the line ends
    lines = _valid_text().splitlines()[:11]
    lines[bad] = "BOGUS 1"
    text = "".join(line + end for line, end in zip(lines, ends))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.pcd"
        path.write_bytes(text.encode())
        with pytest.raises(PcdParseError, match="unexpected header field 'BOGUS'") as err:
            read_pcd(path)
    assert err.value.line == len(text[:text.index("BOGUS")].splitlines()) + 1


def test_point_count_mismatch(tmp_path):
    path = tmp_path / "bad.pcd"
    path.write_text(_valid_text().replace("POINTS 2", "POINTS 3")
                    .replace("WIDTH 2", "WIDTH 3"))
    with pytest.raises(PcdParseError, match="expected 3"):
        read_pcd(path)


def test_trailing_rows_rejected(tmp_path):
    path = tmp_path / "bad.pcd"
    path.write_text(_valid_text() + "4 5 6 0\n")
    with pytest.raises(PcdParseError):
        read_pcd(path)


def test_missing_file():
    with pytest.raises(OSError):
        read_pcd("/nonexistent/x.pcd")


def test_shortest_float_repr_roundtrip(tmp_path):
    # awkward float32 values survive the decimal round-trip bit-exactly
    vals = np.array([0.1, 1/3, 1e-7, 123456.78, -0.6999999], dtype=np.float32)
    xyz = np.zeros((5, 3))
    xyz[:, 0] = vals.astype(np.float64)
    cloud = PointCloud(xyz, np.zeros((5, 3), dtype=np.uint8), "camera-1")
    path = tmp_path / "f.pcd"
    write_pcd(cloud, path)
    np.testing.assert_array_equal(read_pcd(path).xyz[:, 0].astype(np.float32),
                                  vals)


@pytest.mark.parametrize("points,message", [("-1", "negative POINTS"),
                                            ("5", "expected 5 data rows")])
def test_points_bounded_before_allocating(tmp_path, points, message):
    path = tmp_path / "bad.pcd"
    path.write_text(_valid_text().replace("POINTS 2", f"POINTS {points}")
                    .replace("WIDTH 2", f"WIDTH {points}"))
    with pytest.raises(PcdParseError, match=message) as err:
        read_pcd(path)
    assert err.value.line == 10       # the POINTS header line


#: sha256 of the camera PCDs ``gen-scene`` writes for each bundled scenario
#: at its own seed, recorded while ``write_pcd`` still formatted one row at
#: a time. The demo_11 pair equals the benchmark's capture references.
GEN_SCENE_SHA256 = {
    "demo_11": ("92a0f56b8f04bf1501c43022cc11d59adf627177f8bb67af35b22a9f3101af91",
                "de7a10f26b1e938516898dac08a5ef3110e3989aa6f9f8178e8e393b80a2599c"),
    "demo_overreach": ("23e07f6f36ae2a31ab478a00fc36a63ca348d0bfdff45920d531852be291a911",
                       "87dbf191adefcb2f838a8e68a76f5fe43329785eab4077727c79f84b4bf98d63"),
    "perf_300k": ("6476de2144965b06a8fafb5f0d81fd45f58ad1cef6362745d5176e20a3cb1986",
                  "67cc2fb97f045662b50883fc94e3780250677a75b0076a47b8a38b7daf23856a"),
}


@pytest.mark.parametrize("name", sorted(GEN_SCENE_SHA256))
def test_gen_scene_pcds_match_pinned_digests(name, tmp_path, capsys, monkeypatch):
    assert main(["gen-scene", "--scenario", name, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = tuple(hashlib.sha256((tmp_path / f"camera{i}.pcd").read_bytes()).hexdigest()
                for i in (1, 2))
    assert got == GEN_SCENE_SHA256[name]
    # read back without the row loop
    monkeypatch.setattr(pcdio, "_parse_rows",
                        lambda *args: pytest.fail("a written file took the row loop"))
    clouds = generate_scene(load_scenario(bundled_scenario_path(name)))[:2]
    for i, cloud in enumerate(clouds, start=1):
        back = read_pcd(tmp_path / f"camera{i}.pcd")
        np.testing.assert_array_equal(back.xyz, cloud.xyz.astype(np.float32))
        np.testing.assert_array_equal(back.rgb, cloud.rgb)


def test_demo_11_digests_equal_the_benchmark_references():
    checks = (Path(__file__).parents[1] / "benchmarks" / "checks.py").read_text()
    for digest in GEN_SCENE_SHA256["demo_11"]:
        assert f'"{digest}"' in checks


def _loop_rows(cloud):
    """The data rows as the one-row-at-a-time writer formatted them."""
    xyz32 = cloud.xyz.astype(np.float32)
    rgb = cloud.rgb.astype(np.uint32)
    packed = (rgb[:, 0] << 16) | (rgb[:, 1] << 8) | rgb[:, 2]
    return "".join(f"{_fmt32(x)} {_fmt32(y)} {_fmt32(z)} {p}\n"
                   for (x, y, z), p in zip(xyz32, packed))


def _awkward_float32(rng):
    """Finite float32 values where shortest-digit printing is easy to get wrong."""
    # numpy prints float32 in scientific notation below 1e-4 and from 1e6
    # (float64 from 1e16): the nine floats centred on each, one bit apart
    edges = np.float32([1e-4, 1e6, 1e16]).view(np.int32)
    near = (edges[:, None] + np.arange(-4, 5, dtype=np.int32)).view(np.float32).ravel()
    powers = np.float32([10.0 ** k for k in range(-45, 39)])
    subnormal = rng.integers(1, 1 << 23, size=300).astype(np.uint32).view(np.float32)
    random = rng.integers(0, 1 << 32, size=3000, dtype=np.uint64).astype(np.uint32).view(
        np.float32)
    vals = np.concatenate([np.float32([0.0, -0.0]), near, powers, subnormal,
                           random[np.isfinite(random)]])
    return np.concatenate([vals, -vals])


_B = pcdio._BLOCK


@pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025, 4095, 4096, 4097,
                                  _B - 1, _B, _B + 1, 2 * _B + 1])
def test_writer_rows_match_the_row_loop(tmp_path, rows):
    rng = np.random.default_rng(rows)
    pool = rng.permutation(_awkward_float32(rng))
    xyz = np.resize(pool, (rows, 3)).astype(np.float64)
    cloud = PointCloud(xyz, rng.integers(0, 256, size=(rows, 3), dtype=np.uint8), "cam")
    path = tmp_path / "w.pcd"
    write_pcd(cloud, path)
    header, data = path.read_text().split("DATA ascii\n")
    assert header.endswith(f"POINTS {rows}\n")
    assert_same_text(data, _loop_rows(cloud))


def test_every_awkward_value_is_written_as_the_row_loop_writes_it(tmp_path):
    vals = _awkward_float32(np.random.default_rng(5))
    cloud = PointCloud(np.resize(vals, (len(vals) // 3, 3)).astype(np.float64),
                       np.zeros((len(vals) // 3, 3), dtype=np.uint8), "cam")
    path = tmp_path / "w.pcd"
    write_pcd(cloud, path)
    assert_same_text(path.read_text().split("DATA ascii\n")[1], _loop_rows(cloud))
    np.testing.assert_array_equal(read_pcd(path).xyz, cloud.xyz)


def test_legacy_print_mode_does_not_change_the_bytes(tmp_path):
    cloud = _cloud(np.random.default_rng(6), 50)
    write_pcd(cloud, tmp_path / "a.pcd")
    with np.printoptions(legacy="1.13"):
        write_pcd(cloud, tmp_path / "b.pcd")
    assert_same_text((tmp_path / "a.pcd").read_bytes(), (tmp_path / "b.pcd").read_bytes())


def test_writer_emits_utf8(tmp_path):
    cloud = PointCloud(np.zeros((1, 3)), np.zeros((1, 3), dtype=np.uint8), "kamera-ü")
    write_pcd(cloud, tmp_path / "u.pcd")
    assert (tmp_path / "u.pcd").read_bytes().startswith("# frame kamera-ü\n".encode())
    assert read_pcd(tmp_path / "u.pcd").frame == "kamera-ü"


@pytest.mark.parametrize("block, rows", [(1, 40), (3, 40), (4096, 2 * 4096 + 1)])
def test_writer_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, block, rows):
    cloud = _cloud(np.random.default_rng(block), rows)
    write_pcd(cloud, tmp_path / "default.pcd")
    monkeypatch.setattr(pcdio, "_BLOCK", block)
    write_pcd(cloud, tmp_path / "patched.pcd")
    assert_same_text((tmp_path / "patched.pcd").read_bytes(),
                     (tmp_path / "default.pcd").read_bytes())


def test_writer_memory_is_bounded_by_one_block(tmp_path):
    # the writer holds one block's temporaries at a time, never a whole cloud's
    peaks = []
    for rows in (2 * _B, 4 * _B):
        cloud = _cloud(np.random.default_rng(rows), rows)
        tracemalloc.start()
        try:
            write_pcd(cloud, tmp_path / "m.pcd")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], f"peaks {peaks[0]:,} and {peaks[1]:,} bytes"


@pytest.mark.parametrize("frame", ["cam\nPOINTS 3", "cam x\n", "  cam ", "cam\r", "", "\tcam",
                                   "cam\u3000", "\ud800", "cam\udc85"]
                         + [f"a{brk}b" for brk in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"])
def test_writer_refuses_a_frame_that_would_not_read_back(tmp_path, frame):
    path = tmp_path / "f.pcd"
    with pytest.raises(ValidationError, match=re.escape(f"frame {frame!r} would not read back")):
        write_pcd(PointCloud(np.zeros((2, 3)), np.zeros((2, 3), np.uint8), frame), path)
    assert not path.exists()


@pytest.mark.parametrize("frame", [CAMERA_1_FRAME, CAMERA_2_FRAME, BASE_FRAME,
                                   "kamera-ü", "a  b", "#x", "unknown"])
def test_written_frames_read_back(tmp_path, frame):
    write_pcd(PointCloud(np.zeros((2, 3)), np.zeros((2, 3), np.uint8), frame), tmp_path / "f.pcd")
    assert read_pcd(tmp_path / "f.pcd").frame == frame


_FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def _respace(rows, r, rng):
    gaps = [" ", "  ", "\t", " \t "]
    for i in rng.choice(len(rows), size=min(len(rows), 5), replace=False):
        tokens = rows[i].split()
        rows[i] = (rng.choice(gaps) + "".join(t + rng.choice(gaps) for t in tokens[:-1])
                   + tokens[-1] + rng.choice(gaps))


def _comments(rows, r, rng):
    rows.insert(r, "# a comment among the rows")
    rows.insert(int(rng.integers(0, len(rows) + 1)), "")


def _set_token(rows, r, col, value):
    tokens = rows[r].split()
    tokens[col] = value
    rows[r] = " ".join(tokens)


def _trailing_nul(rows, r, rng):
    col = int(rng.integers(0, 4))
    _set_token(rows, r, col, rows[r].split()[col] + "\x00")


def _underscore_and_plus(rows, r, rng):
    _set_token(rows, r, 0, "1_0")
    _set_token(rows, r, 3, "+5")


def _full_width(rows, r, rng):
    rows[r] = rows[r].translate(_FULL_WIDTH)


def _three_then_five(rows, r, rng):
    head, last = rows[r].rsplit(" ", 1)
    rows[r], rows[r + 1] = head, f"{rows[r + 1]} {last}"


def _set_coordinate(value):
    return lambda rows, r, rng: _set_token(rows, r, int(rng.integers(0, 3)), value)


def _first_space(char):
    def perturb(rows, r, rng):
        rows[r] = rows[r].replace(" ", char, 1)
    return perturb


def _lone_cr(rows, r, rng):
    rows[r:r + 2] = [rows[r] + "\r" + rows[r + 1]]


#: Each perturbation of a written file, and whether the row loop accepts it.
PERTURBATIONS = {
    "spaces_and_tabs": (_respace, True),
    "crlf": (None, True),
    "comments_and_blank_lines": (_comments, True),
    "trailing_nul": (_trailing_nul, False),
    "underscore_and_plus": (_underscore_and_plus, True),
    "full_width_digits": (_full_width, True),
    "overflow": (lambda rows, r, rng: _set_token(rows, r, int(rng.integers(0, 3)), "1e400"),
                 False),
    "rgb_minus_one": (lambda rows, r, rng: _set_token(rows, r, 3, "-1"), False),
    "rgb_two_to_24": (lambda rows, r, rng: _set_token(rows, r, 3, str(1 << 24)), False),
    "three_then_five_tokens": (_three_then_five, False),
    # edges of the format the writer does not use
    "leading_point": (_set_coordinate(".5"), True),
    "trailing_point": (_set_coordinate("5."), True),
    "minus_leading_point": (_set_coordinate("-.5"), True),
    "integer_coordinate": (_set_coordinate("1"), True),
    "rgb_leading_zeros": (lambda rows, r, rng: _set_token(rows, r, 3, "000255"), True),
    "form_feed_in_row": (_first_space("\x0c"), False),
    "next_line_at_row_end": (lambda rows, r, rng: rows.__setitem__(r, rows[r] + "\x85"), True),
    "line_separator_in_row": (_first_space("\u2028"), False),
    "lone_cr_line_end": (_lone_cr, True),
    "two_points": (_set_coordinate("1.0.0"), False),
    "double_minus": (_set_coordinate("--1.0"), False),
    "float32_overflow": (_set_coordinate("3.5e38"), False),
    # line ends of str.splitlines() that numpy's reader takes for blanks
    "vertical_tab_in_row": (_first_space("\v"), False),
    "file_separator_in_row": (_first_space("\x1c"), False),
    "group_separator_in_row": (_first_space("\x1d"), False),
    "record_separator_in_row": (_first_space("\x1e"), False),
    "next_line_in_row": (_first_space("\x85"), False),
    "paragraph_separator_in_row": (_first_space("\u2029"), False),
    "comment_after_row": (lambda rows, r, rng: rows.__setitem__(r, rows[r] + " # c"), False),
}


def _outcome(path):
    try:
        cloud = read_pcd(path)
    except PcdParseError as exc:
        return ("error", str(exc), exc.line)
    return ("cloud", cloud.frame, cloud.xyz.tobytes(), cloud.rgb.tobytes())


@pytest.mark.parametrize("rows", [40, 1030])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
def test_reader_matches_the_row_loop(tmp_path, monkeypatch, kind, seed, rows):
    rng = np.random.default_rng([seed, rows])
    path = tmp_path / "r.pcd"
    write_pcd(_cloud(rng, rows), path)
    header, data = path.read_text().split("DATA ascii\n")
    lines = data.splitlines()
    perturb, accepted = PERTURBATIONS[kind]
    if perturb is not None:
        # rows 1020-1027 of the longer file, any row of the shorter
        r = int(rng.integers(1020, 1028) if rows > 1024 else rng.integers(0, rows - 1))
        perturb(lines, r, rng)
    newline = "\r\n" if kind == "crlf" else "\n"
    path.write_text((header + "DATA ascii\n").replace("\n", newline)
                    + newline.join(lines) + newline, encoding="utf-8")
    fast = _outcome(path)
    monkeypatch.setattr(pcdio, "_load_rows", lambda *args: None)  # the row loop alone
    assert fast == _outcome(path)
    assert fast[0] == ("cloud" if accepted else "error")


@pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025])
def test_valid_files_never_enter_the_row_loop(tmp_path, monkeypatch, rows):
    cloud = _cloud(np.random.default_rng(rows), rows)
    write_pcd(cloud, tmp_path / "v.pcd")
    monkeypatch.setattr(pcdio, "_parse_rows",
                        lambda *args: pytest.fail("a valid file took the row loop"))
    back = read_pcd(tmp_path / "v.pcd")
    np.testing.assert_array_equal(back.xyz, cloud.xyz.astype(np.float32))
    np.testing.assert_array_equal(back.rgb, cloud.rgb)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_a_text_file_named_as_compressed_reads_as_text(tmp_path, suffix):
    cloud = _cloud(np.random.default_rng(3), 40)
    write_pcd(cloud, tmp_path / f"c.pcd{suffix}")
    back = read_pcd(tmp_path / f"c.pcd{suffix}")
    np.testing.assert_array_equal(back.xyz, cloud.xyz.astype(np.float32))
    np.testing.assert_array_equal(back.rgb, cloud.rgb)


def test_blank_lines_warn_nothing(tmp_path):
    # numpy's reader warns on a blank line or an empty body: no warning may leave read_pcd
    header = _valid_text().split("0.5 -1 2")[0]
    blank = tmp_path / "blank.pcd"
    blank.write_text(header.replace("2\n", "1\n") + "\n \n")
    rows = tmp_path / "rows.pcd"
    rows.write_text(header + "\n0.5 -1 2 16711680\n\n1 2 3 255\n\n")
    for action in ("error", "always"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            with pytest.raises(PcdParseError) as err:
                read_pcd(blank)
            back = read_pcd(rows)
        assert caught == []
        assert str(err.value) == "line 13: expected 1 data rows, found 0"
        np.testing.assert_array_equal(back.xyz, [[0.5, -1, 2], [1, 2, 3]])
        np.testing.assert_array_equal(back.rgb, [[255, 0, 0], [0, 0, 255]])


def test_a_points_count_past_the_file_size_allocates_no_rows(tmp_path):
    # numpy's reader allocates every row it is told to expect before it reads one
    path = tmp_path / "bad.pcd"
    path.write_text(_valid_text().replace(" 2\n", " 1000000\n"))
    tracemalloc.start()
    try:
        with pytest.raises(PcdParseError) as err:
            read_pcd(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "line 10: expected 1000000 data rows, only 2 lines follow DATA"
    assert peak < 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_other_layouts_skip_the_row_loop(tmp_path, monkeypatch):
    # CRLF and lone CR line ends, tabs and runs of blanks, '.5', '5.', '1',
    # exponents, '+' and leading zeros: as float and int read them
    rows = ["0.5\t-1  2 16711680", " +1.5e-3 .5 5. 000255 ", "-.5 1 2E+2 +7",
            "1e-45\t\t00.25 -3.4e38 0", "007 -0 1e1 1"]
    path = tmp_path / "l.pcd"
    path.write_bytes((_valid_text().split("0.5 -1 2")[0].replace(" 2\n", " 5\r\n")
                      + "\r\n".join(rows[:3]) + "\r" + "\n".join(rows[3:])).encode())
    monkeypatch.setattr(pcdio, "_parse_rows", lambda *args: pytest.fail("took the row loop"))
    back = read_pcd(path)
    tokens = [row.split() for row in rows]
    want = np.array([[float(np.float32(float(t))) for t in row[:3]] for row in tokens])
    assert back.xyz.tobytes() == want.tobytes()
    assert (back.rgb.astype(np.int64) @ [1 << 16, 1 << 8, 1]).tolist() == [
        int(row[3]) for row in tokens]


#: Token spellings float reads as the same value.
_SPELLINGS = [lambda t: t, lambda t: f"{float(t):.9e}", lambda t: f"{float(t):+.8E}",
              lambda t: t.replace("0.", ".", 1) if t.lstrip("-").startswith("0.") else t,
              lambda t: t[:-1] if t.endswith(".0") else t,
              lambda t: "-00" + t[1:] if t.startswith("-") else "00" + t]
#: Rows that are bad, or that only the row loop reads.
_ODD_ROWS = ["", "  \t", "# a comment", "1 2 3", "1 2 3 4 5", "1_0 2 3 4", "x 2 3 4",
             "1e400 2 3 4", "nan 2 3 4", "1 2 3 -1", "1 2 3 16777216", "1 2 3 4.0", "1 2 3 1e3",
             "1 2 3 1_0", "1 2 3\v4", "1 2\x1c3 4", "1 2 3 4\x85", "1 2 3\u2029 4", "1 2 3 4 # c",
             "1\x00 2 3 4"]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(xyz=hnp.arrays(np.float32, st.tuples(st.integers(0, 12), st.just(3)),
                      elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
       data=st.data())
def test_mixed_layouts_read_as_the_row_loop_reads_them(xyz, data):
    rows = []
    for point in xyz:
        tokens = [data.draw(st.sampled_from(_SPELLINGS))(_fmt32(v)) for v in point]
        tokens.append(data.draw(st.sampled_from(["0", "255", "16777215", "+9", "0042"])))
        gaps = data.draw(st.lists(st.sampled_from([" ", "  ", "\t", " \t "]), min_size=5,
                                  max_size=5))
        lead = gaps[0] * data.draw(st.booleans())
        rows.append(lead + "".join(map(str.__add__, tokens, gaps[1:])))
    if data.draw(st.booleans()):
        rows.insert(data.draw(st.integers(0, len(rows))), data.draw(st.sampled_from(_ODD_ROWS)))
    points = len(xyz) + data.draw(st.sampled_from([0, 0, 0, -1, 1]))
    lines = ["# frame cam", "WIDTH %d" % points, "POINTS %d" % points, "DATA ascii", *rows]
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                              max_size=len(lines)))
    text = "".join(map(str.__add__, lines, ends))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.pcd"
        path.write_bytes(text[:-data.draw(st.integers(0, 1)) or None].encode())
        got = _outcome(path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pcdio, "_load_rows", lambda *args: None)
            assert got == _outcome(path)


@pytest.mark.parametrize("prefix,line", [(b"", 1), (b"# frame caf\xc3\xa9\n", 2),
                                         (b"a\r\nb\rc\n", 4)])
def test_bytes_that_are_not_utf8_name_their_line(tmp_path, prefix, line):
    path = tmp_path / "bad.pcd"
    path.write_bytes(prefix + b"\xff" + _valid_text().encode())
    with pytest.raises(PcdParseError, match="not valid UTF-8") as err:
        read_pcd(path)
    assert err.value.line == line


def test_a_non_utf8_data_row_names_its_line(tmp_path):
    path = tmp_path / "bad.pcd"
    path.write_bytes(_valid_text().replace("1 2 3 255", "1 2 3 25\xe9").encode("latin-1"))
    with pytest.raises(PcdParseError, match=r"^line 13: byte 0xe9 at offset \d+ is not valid"):
        read_pcd(path)


def test_a_header_fault_is_reported_before_a_bad_byte_in_the_rows(tmp_path):
    # only the header is decoded before it is read
    path = tmp_path / "bad.pcd"
    text = _valid_text().replace("VERSION 0.7", "VERSION 0.6").replace("1 2 3 255", "1 2 3 25\xe9")
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(PcdParseError, match=r"^line 2: unsupported VERSION '0.6'"):
        read_pcd(path)


@pytest.mark.parametrize("key", ["\u00a0DATA ascii", "\x85DATA ascii", "\rDATA ascii"])
def test_a_data_key_the_header_search_misses_still_ends_the_header(tmp_path, key):
    # after Unicode spaces or a line end other than \n: the whole file is decoded
    path = tmp_path / "v.pcd"
    path.write_bytes(_valid_text().replace("\nDATA ascii", "\n" + key).encode())
    np.testing.assert_array_equal(read_pcd(path).xyz, [[0.5, -1, 2], [1, 2, 3]])


def _ulps_around(values, n):
    """The float32 values within ``n`` ulps of each of ``values``, both sides."""
    bits = np.float32(values).view(np.int32)
    return (bits[:, None] + np.arange(-n, n + 1, dtype=np.int32)).view(np.float32).ravel()


def _writer_fuzz_values(rng):
    """Finite float32 values, both signs, that probe every fallback rule of
    the array writer and the edges of its shortest-digit search."""
    bits = rng.integers(0, 1 << 32, size=20_000, dtype=np.uint64).astype(np.uint32)
    random = bits.view(np.float32)
    # both sides of every binade edge, and the powers of two themselves
    edges = (np.arange(1, 255, dtype=np.int32)[:, None] << 23) + np.arange(-2, 3, dtype=np.int32)
    subnormal = np.concatenate([np.arange(1, 64, dtype=np.uint32),
                                rng.integers(1, 1 << 23, size=500).astype(np.uint32)])
    # near-ties: decimals of p + 1 digits ending in 5, and float32 values
    # whose p-digit scaling is exactly .5 (odd multiples of 2**-j)
    p = rng.integers(1, 10, size=2000)
    ties = ((rng.integers(0, 10 ** 9, size=2000) % 10 ** p + 0.5)
            * 10.0 ** rng.integers(-12, 17, size=2000).astype(float) / 10.0 ** p)
    odd = (rng.integers(1 << 22, 1 << 23, size=300) * 2 + 1).astype(np.float64)
    exact_ties = np.concatenate([odd / 2 ** j for j in range(1, 4)] + [odd * 2.0 ** -26])
    vals = np.concatenate([random[np.isfinite(random)], edges.ravel().view(np.float32),
                           np.float32(2.0) ** np.arange(-149, 128), subnormal.view(np.float32),
                           np.float32([0.0]), _ulps_around(ties, 3),
                           _ulps_around(exact_ties, 1), _ulps_around([1e-4, 1e6, 1e16], 8)])
    return np.concatenate([vals, -vals])


def _grammar_tokens(rng):
    """Coordinate tokens in the writer's grammar: the writer's digits for
    float32 values from every binade, both signs, within 8 ulps of 1e-4, 1e6
    and 1e16, and -0.0; float32 midpoints (a tie for the narrowing); tokens of
    15 and 16 bytes; and tokens whose digits pass 2**53 or that have over 22
    decimals."""
    bits = np.arange(255, dtype=np.uint32)[:, None] << 23 | rng.integers(
        0, 1 << 23, size=(255, 8), dtype=np.uint32)
    vals = np.concatenate([bits.ravel().view(np.float32), _ulps_around([1e-4, 1e6, 1e16], 8)])
    written = [_fmt32(v) for v in np.concatenate([vals, -vals, np.float32([-0.0])])]
    assert "-0.0" in written and all("e" not in t for t in written)
    binade = 2.0 ** rng.integers(10, 53, size=300)
    midpoints = [repr(m) for m in (binade * (1 + (2 * rng.integers(0, 1 << 23, size=300) + 1)
                                             * 2.0 ** -24)).tolist()]
    edges = ["123456789012.34", "-12345678901.23", "12345678901234.5", "-1234567890.1234",
             "99999999999999.9", "9999999.99999999"]
    off_path = ["9007199254740993.0", "-9007199254740993.5", "0.00000000000000000000001",
                "1.00000000000000000000000001", "0.1000000000000000055511151231257827",
                "340282346638528859811704183484516925440.0", "0." + "0" * 44 + "1401298464"]
    return written + midpoints + edges + off_path


def test_the_byte_path_reads_what_float_reads(tmp_path, monkeypatch):
    rng = np.random.default_rng(23)
    tokens = _grammar_tokens(rng)
    tokens += ["0.0"] * (-len(tokens) % 3)
    rows = len(tokens) // 3
    path = tmp_path / "t.pcd"
    path.write_text(f"WIDTH {rows}\nPOINTS {rows}\nDATA ascii\n" + "".join(
        f"{' '.join(tokens[3 * i:3 * i + 3])} {i}\n" for i in range(rows)))
    monkeypatch.setattr(pcdio, "_parse_rows",
                        lambda *args: pytest.fail("the writer's grammar took the row loop"))
    back = read_pcd(path)
    want = np.array([float(np.float32(float(t))) for t in tokens])
    assert back.xyz.ravel().tobytes() == want.tobytes()
    assert (back.rgb.astype(np.int64) @ [1 << 16, 1 << 8, 1] == np.arange(rows)).all()


def test_writer_matches_the_row_loop_on_fuzzed_floats(tmp_path, monkeypatch):
    rng = np.random.default_rng(17)
    vals = rng.permutation(_writer_fuzz_values(rng))
    assert np.isfinite(vals).all() and np.signbit(vals[vals == 0]).any()
    rows = len(vals) // 3
    rgb = rng.integers(0, 256, size=(rows, 3), dtype=np.uint8)
    rgb[:4] = [[0, 0, 0], [0, 0, 9], [0, 0, 10], [255, 255, 255]]
    cloud = PointCloud(vals[:3 * rows].reshape(rows, 3).astype(np.float64), rgb, "cam")
    path = tmp_path / "w.pcd"
    write_pcd(cloud, path)
    assert_same_text(path.read_text().split("DATA ascii\n")[1], _loop_rows(cloud))
    monkeypatch.setattr(pcdio, "_parse_rows",
                        lambda *args: pytest.fail("a written file took the row loop"))
    back = read_pcd(path)
    np.testing.assert_array_equal(back.xyz, cloud.xyz)
    np.testing.assert_array_equal(back.rgb, rgb)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(xyz=hnp.arrays(np.float32, st.tuples(st.integers(0, 40), st.just(3)),
                      elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_written_float32_values_round_trip(xyz, seed):
    rgb = np.random.default_rng(seed).integers(0, 256, size=xyz.shape, dtype=np.uint8)
    cloud = PointCloud(xyz.astype(np.float64), rgb, "cam")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "h.pcd"
        write_pcd(cloud, path)
        assert_same_text(path.read_text().split("DATA ascii\n")[1], _loop_rows(cloud))
        back = read_pcd(path)
    np.testing.assert_array_equal(back.xyz, cloud.xyz)
    np.testing.assert_array_equal(back.rgb, rgb)


def _written_tokens(tmp_path, values):
    """The coordinate tokens the writer gives float32 ``values``, both signs."""
    vals = np.float32(values).ravel()
    vals = np.concatenate([vals, -vals, np.float32([0.0] * (-2 * len(vals) % 3))])
    path = tmp_path / "d.pcd"
    write_pcd(PointCloud(vals.reshape(-1, 3).astype(np.float64),
                         np.zeros((len(vals) // 3, 3), np.uint8), "cam"), path)
    rows = path.read_text().split("DATA ascii\n")[1].split("\n")[:-1]
    return [t for row in rows for t in row.split()[:3]], [_fmt32(v) for v in vals]


def _interval(v):
    """The rounding interval of a normal float32 that is not a power of two:
    half a float32 spacing either side, as fractions."""
    e = math.frexp(float(v))[1]                       # 2**(e-1) <= |v| < 2**e
    half = Fraction(2) ** (e - 25)
    return Fraction(float(v)) - half, Fraction(float(v)) + half


def test_the_writer_tables_equal_those_built_from_forty_powers_of_ten():
    # the tables once indexed 10**j for j = -17..22; only j = 0..17 is read,
    # so building from those 18 powers must give the same bytes
    k = 17
    p10 = np.array([10 ** j / 1 if j >= 0 else 1 / 10 ** -j for j in range(-k, 23)])
    up, down = p10[np.arange(31).clip(k)], p10[(2 * k - np.arange(31)).clip(k)]
    e2 = np.arange(512) // 2 - 127
    out, e2 = (e2 < -14) | (e2 > 52), e2.clip(-14, 52)
    f = k - ((e2 - 23) * 78913 >> 18)
    half = np.ldexp(up[f], e2 - 24)
    half[::2] = np.nextafter(half[::2], np.inf)
    for name, want in [("_UP", up), ("_DOWN", down), ("_HALF", half), ("_F", f),
                       ("_OUT", out)]:
        got = getattr(pcdio, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def test_a_shortest_decimal_far_shorter_than_the_spacing_is_found(tmp_path):
    # the coarse of the two probed lengths leaves trailing zeros to strip
    got, want = _written_tokens(tmp_path, [0.1, 0.5, 100.0, 1e5, 123456.0])
    assert got == want
    assert want[:5] == ["0.1", "0.5", "100.0", "100000.0", "123456.0"]


def test_the_nearest_of_several_fine_decimals_is_written(tmp_path):
    # no decimal of the coarse length lies in the interval, two or more of
    # the fine length do: the nearest must be written
    rng = np.random.default_rng(29)
    pool = np.float32(rng.uniform(0.5, 1.0, 2000)).tolist() + np.float32(
        rng.uniform(4e6, 8e6, 2000)).tolist()
    picked = []
    for v in pool:
        lo, hi = _interval(v)
        step = Fraction(10) ** math.floor(math.log10(hi - lo))   # the fine length's step
        count = math.floor(hi / step) - math.ceil(lo / step) + 1
        coarse = math.floor(hi / step / 10) - math.ceil(lo / step / 10) + 1
        if coarse == 0 and count >= 2:
            picked.append(v)
    assert len(picked) > 500
    got, want = _written_tokens(tmp_path, picked)
    assert got == want


def test_a_decimal_on_the_interval_edge_is_kept_for_an_even_mantissa_only(tmp_path):
    # from 2**26 the spacing is 8: a ± 4 is a float32 midpoint, here a
    # multiple of 10 that reparses to a only when a's mantissa is even
    edge = [a for a in [*range(2 ** 26 + 8, 2 ** 26 + 8000, 8), *range(2 ** 27 - 8000, 2 ** 27, 8)]
            if (a + 4) % 10 == 0 or (a - 4) % 10 == 0]
    even = [a for a in edge if not a >> 3 & 1]
    odd = [a for a in edge if a >> 3 & 1]
    for values, shorter in ((even, True), (odd, False)):
        got, want = _written_tokens(tmp_path, values)
        assert got == want
        assert all((t != f"{a}.0") == shorter for t, a in zip(want, values))


def test_the_lowest_value_of_a_binade_is_written_as_dragon4_writes_it(tmp_path):
    # a power of two has a narrower interval below it than above
    powers = np.float32(2.0) ** np.arange(-30, 70)
    got, want = _written_tokens(tmp_path, np.concatenate([powers, np.nextafter(powers, 0)]))
    assert got == want


def test_a_cloud_of_few_distinct_fallback_values_writes_fast(tmp_path):
    # ±1, ±2 and ±4 fall back to Dragon4, once per distinct value in a block
    xyz = np.round(4 * np.random.default_rng(30).uniform(-1, 1, (149_851, 3)))
    cloud = PointCloud(xyz, np.zeros((len(xyz), 3), np.uint8), "cam")
    path = tmp_path / "grid.pcd"
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        write_pcd(cloud, path)
        seconds.append(time.perf_counter() - start)
    tokens = path.read_text().split("DATA ascii\n")[1].split()
    del tokens[3::4]
    bits, which = np.unique(xyz.astype(np.float32).view(np.uint32), return_inverse=True)
    assert tokens == np.array([_fmt32(v) for v in bits.view(np.float32)])[which.ravel()].tolist()
    assert min(seconds) <= 0.15, f"{min(seconds):.3f} s"


@pytest.mark.parametrize("name", ["demo_11", "perf_300k"])
def test_scene_values_rarely_take_the_fallback(tmp_path, monkeypatch, name):
    calls = []
    monkeypatch.setattr(pcdio, "_fmt32", lambda v: calls.append(v) or _fmt32(v))
    clouds = generate_scene(load_scenario(bundled_scenario_path(name)))[:2]
    for i, cloud in enumerate(clouds):
        write_pcd(cloud, tmp_path / f"camera{i}.pcd")
    values = 3 * sum(len(cloud) for cloud in clouds)
    assert len(calls) <= 0.001 * values, f"{len(calls)} of {values} values"


@pytest.mark.parametrize("value", [2.0 ** 128 - 2.0 ** 103, -1e39, 1e300])
def test_coordinates_beyond_float32_are_refused_before_writing(tmp_path, value):
    xyz = np.zeros((3, 3))
    xyz[1, 2] = value
    xyz[2, 0] = value
    path = tmp_path / "big.pcd"
    with pytest.raises(ValidationError, match=re.escape(f"cam row 1: coordinate {value!r} is")):
        write_pcd(PointCloud(xyz, np.zeros((3, 3), dtype=np.uint8), "cam"), path)
    assert not path.exists()


def test_the_largest_coordinate_that_rounds_into_float32_is_written(tmp_path):
    top = np.nextafter(2.0 ** 128 - 2.0 ** 103, 0)
    cloud = PointCloud(np.array([[top, -top, 0.0]]), np.zeros((1, 3), dtype=np.uint8), "cam")
    write_pcd(cloud, tmp_path / "top.pcd")
    big = np.finfo(np.float32).max
    np.testing.assert_array_equal(read_pcd(tmp_path / "top.pcd").xyz, [[big, -big, 0.0]])
