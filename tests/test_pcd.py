"""ASCII PCD writer/reader: round-trips and parse diagnostics."""

import numpy as np
import pytest

from laserberry import PcdParseError, PointCloud, read_pcd, write_pcd


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
    assert p1.read_bytes() == p2.read_bytes()


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
