"""Point cloud, rigid transform, and radius-query tests.

The ``KdTree`` checks run against a brute-force linear scan; the transform
checks run against explicit R @ p + t matrix math.
"""

import tracemalloc

import numpy as np
import pytest

from laserberry import (Aabb, BerryBox, KdTree, PointCloud, RigidTransform,
                        ValidationError, bounding_boxes, load_scenario, read_pcd, write_pcd)
from laserberry.geometry import transform_cloud
from laserberry.scenario import bundled_scenario_path
from laserberry.scene import generate_scene


def _random_cloud(rng, n, frame="harvester-base", scale=1.0):
    xyz = rng.uniform(-scale, scale, size=(n, 3))
    rgb = rng.integers(0, 256, size=(n, 3), dtype=np.uint8)
    return PointCloud(xyz, rgb, frame)


# ---------------------------------------------------------------------------
# points and clouds

def test_cloud_shape_checks():
    with pytest.raises(ValidationError):
        PointCloud(np.zeros((3, 2)), np.zeros((3, 3), dtype=np.uint8), "f")
    with pytest.raises(ValidationError):
        PointCloud(np.zeros((3, 3)), np.zeros((2, 3), dtype=np.uint8), "f")
    with pytest.raises(ValidationError):
        PointCloud(np.array([[0.0, 0.0, np.inf]]),
                   np.zeros((1, 3), dtype=np.uint8), "f")


def test_cloud_roundtrip_and_select():
    rng = np.random.default_rng(7)
    cloud = _random_cloud(rng, 50)
    assert len(cloud) == 50
    sub = cloud.select(np.arange(10))
    assert len(sub) == 10
    np.testing.assert_array_equal(sub.xyz, cloud.xyz[:10])
    # boolean mask form
    mask = cloud.xyz[:, 0] > 0
    assert len(cloud.select(mask)) == int(mask.sum())


def test_cloud_arrays_are_readonly():
    cloud = _random_cloud(np.random.default_rng(0), 5)
    with pytest.raises(ValueError):
        cloud.xyz[0, 0] = 99.0
    with pytest.raises(ValueError):
        cloud.rgb[0, 0] = 99


def _assert_column_major(cloud, xyz, rgb):
    for got, want in ((cloud.xyz, np.asarray(xyz, np.float64)), (cloud.rgb, np.asarray(rgb))):
        assert got.flags.f_contiguous and not got.flags.writeable
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_clouds_store_each_column_contiguously(tmp_path):
    rng = np.random.default_rng(71)
    xyz = rng.normal(size=(40, 3))
    rgb = rng.integers(0, 256, size=(40, 3), dtype=np.uint8)
    for make in (np.ascontiguousarray, np.asfortranarray, np.ndarray.tolist):
        cloud = PointCloud(make(xyz), make(rgb), "f")
        _assert_column_major(cloud, xyz, rgb)
    rows = rng.permutation(40)[:17]
    _assert_column_major(cloud.select(rows), xyz[rows], rgb[rows])
    _assert_column_major(cloud.select(xyz[:, 0] > 0), xyz[xyz[:, 0] > 0], rgb[xyz[:, 0] > 0])
    with pytest.raises(IndexError):
        cloud.select(np.ones(39, bool))
    assert RigidTransform.identity().apply(xyz).flags.f_contiguous
    for cloud in generate_scene(load_scenario(bundled_scenario_path("demo_11")))[:2]:
        _assert_column_major(cloud, cloud.xyz.copy(order="C"), cloud.rgb.copy(order="C"))
        write_pcd(cloud, tmp_path / "c.pcd")
        back = read_pcd(tmp_path / "c.pcd")
        _assert_column_major(back, cloud.xyz.astype(np.float32), cloud.rgb)


def test_records_freeze_their_own_views_never_the_callers_arrays():
    rng = np.random.default_rng(12)
    xyz = rng.normal(size=(6, 3))
    given = {"C xyz": xyz.copy(), "F xyz": np.asfortranarray(xyz),
             "F rgb": np.asfortranarray(rng.integers(0, 256, (6, 3), dtype=np.uint8)),
             "rotation": RigidTransform.from_euler_deg(10.0, 20.0, 30.0).rotation.copy(),
             "translation": np.ones(3), "points": xyz.copy(), "lo": -np.ones(3),
             "hi": np.ones(3), "centroid": np.zeros(3)}
    clouds = [PointCloud(given[key], given["F rgb"], "f") for key in ("C xyz", "F xyz")]
    pose = RigidTransform(given["rotation"], given["translation"])
    box = BerryBox(Aabb(given["lo"], given["hi"]), given["centroid"], 3, 0)
    held = [a for c in clouds for a in (c.xyz, c.rgb)] + [
        pose.rotation, pose.translation, KdTree(given["points"]).points,
        box.box.min, box.box.max, box.centroid]
    assert [k for k, a in given.items() if not a.flags.writeable] == []
    assert not any(a.flags.writeable for a in held)


@pytest.mark.parametrize("by", ["indices", "mask"])
def test_select_equals_fancy_indexing_in_one_copy(by):
    rng = np.random.default_rng(37)
    n = 150_000
    cloud = _random_cloud(rng, n)
    rows = np.sort(rng.permutation(n)[:n // 2])
    if by == "mask":
        rows = np.isin(np.arange(n), rows)
    tracemalloc.start()
    try:
        sub = cloud.select(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_column_major(sub, cloud.xyz[rows], cloud.rgb[rows])
    selected = sub.xyz.nbytes + sub.rgb.nbytes
    assert peak <= 1.35 * selected, f"peak {peak / selected:.2f}x the selected cloud"
    for bad in (np.ones(n - 1, bool), np.ones(n + 1, bool), [n], [-n - 1]):
        with pytest.raises(IndexError):
            cloud.select(bad)
    np.testing.assert_array_equal(cloud.select([-1, 0]).xyz, cloud.xyz[[-1, 0]])


def test_select_builds_the_cloud_a_checked_construction_would():
    rng = np.random.default_rng(38)
    cloud = _random_cloud(rng, 300, frame="camera-2")
    for rows in (rng.permutation(300)[:120], np.sort(rng.permutation(300)[:7]), [-1, 0],
                 np.array([], np.intp), cloud.xyz[:, 1] > 0, np.zeros(300, bool)):
        sub = cloud.select(rows)
        want = PointCloud(cloud.xyz[rows], cloud.rgb[rows], cloud.frame)
        assert type(sub) is PointCloud and vars(sub).keys() == vars(want).keys()
        assert sub.frame == want.frame
        for got, exp in ((sub.xyz, want.xyz), (sub.rgb, want.rgb)):
            assert got.tobytes() == exp.tobytes()
            assert (got.dtype, got.shape, got.strides) == (exp.dtype, exp.shape, exp.strides)
            for flag in ("C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA", "WRITEABLE", "ALIGNED"):
                assert got.flags[flag] == exp.flags[flag], flag
    for bad in (np.zeros((2, 2), np.intp), np.intp(3), np.ones((300, 1), bool)):
        with pytest.raises(IndexError):
            cloud.select(bad)


@pytest.mark.parametrize("rgb, ok", [([[0, 128, 255]], True), ([[0.0, 128.0, 255.0]], True),
                                     ([[1, 2, 256]], False), ([[-1, 2, 3]], False),
                                     ([[10.7, 2, 3]], False), ([[np.nan, 2, 3]], False),
                                     ([[np.inf, 2, 3]], False)])
def test_colors_must_be_whole_numbers_in_0_255(rgb, ok):
    make = lambda: PointCloud(np.zeros((1, 3)), np.array(rgb), "f")
    if ok:
        assert make().rgb.tolist() == [[0, 128, 255]]
    else:
        with pytest.raises(ValidationError, match="whole numbers in \\[0, 255\\]"):
            make()


def test_empty_cloud():
    empty = PointCloud.empty("camera-1")
    assert len(empty) == 0
    assert empty.frame == "camera-1"


# ---------------------------------------------------------------------------
# rigid transforms

def test_transform_rejects_non_orthonormal():
    with pytest.raises(ValidationError):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3))
    # reflections (det = -1) are not rigid motions of the rig
    refl = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValidationError):
        RigidTransform(refl, np.zeros(3))


@pytest.mark.parametrize("rotation,translation,message", [
    (np.eye(2), np.zeros(3), r"^rotation must be \(3, 3\), got \(2, 2\)$"),
    (np.eye(3), np.zeros(2), r"^translation must be \(3,\), got \(2,\)$"),
    (np.eye(3), [0.0, np.nan, 0.0], r"^transform contains non-finite values$")])
def test_transform_rejects_a_wrong_shape_or_a_nan(rotation, translation, message):
    with pytest.raises(ValidationError, match=message):
        RigidTransform(rotation, translation)


def test_identity_and_apply_oracle():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(20, 3))
    ident = RigidTransform.identity()
    np.testing.assert_allclose(ident.apply(pts), pts)

    t = RigidTransform.from_euler_deg(30.0, -14.0, 95.0, (0.1, -0.2, 0.3))
    expected = pts @ t.rotation.T + t.translation
    np.testing.assert_allclose(t.apply(pts), expected)


def test_inverse_fuzz():
    rng = np.random.default_rng(23)
    for _ in range(50):
        angles = rng.uniform(-180, 180, size=3)
        trans = tuple(rng.uniform(-1, 1, size=3))
        t = RigidTransform.from_euler_deg(*angles, trans)
        pts = rng.normal(size=(8, 3))
        # inverse undoes apply
        np.testing.assert_allclose(t.inverse().apply(t.apply(pts)), pts,
                                   atol=1e-12)


def test_euler_matrix_equals_scipy_bit_for_bit():
    # from_euler_deg replicates scipy's arithmetic so that scipy need not be
    # loaded; every bundled scenario uses the two default camera poses
    rotation = pytest.importorskip("scipy.spatial.transform").Rotation
    rng = np.random.default_rng(31)
    triples = [(60.0, 0.0, 20.0), (-60.0, 5.0, -160.0), (0.0, -0.0, 0.0),
               (180.0, -90.0, 90.0), (1e-300, -1e300, 720.0),
               *rng.uniform(-360.0, 360.0, size=(2000, 3)),
               *rng.integers(-360, 361, size=(1000, 3)).astype(float)]
    for angles in triples:
        got = RigidTransform.from_euler_deg(*angles).rotation
        want = rotation.from_euler("xyz", angles, degrees=True).as_matrix()
        assert got.tobytes() == want.tobytes(), angles


@pytest.mark.parametrize("name", ["demo_11", "perf_300k"])
def test_apply_is_row_independent(name):
    # localization transforms only the rows it uses, so apply(x[rows]) must
    # equal apply(x)[rows] bit for bit for every index set, one row included
    scenario = load_scenario(bundled_scenario_path(name))
    cloud1, cloud2, _ = generate_scene(scenario)
    rng = np.random.default_rng(59)
    for cloud, pose in ((cloud1, scenario.camera_1), (cloud2, scenario.camera_2)):
        full = pose.apply(cloud.xyz)
        for size in [0, 1, 2, 3, 5, 8, 13, *rng.integers(20, min(len(cloud), 20_000), 6),
                     len(cloud)]:
            rows = np.sort(rng.choice(len(cloud), size, replace=False))
            assert np.array_equal(pose.apply(cloud.xyz[rows]), full[rows]), size
        for i in rng.choice(len(cloud), 300, replace=False):
            assert np.array_equal(pose.apply(cloud.xyz[i:i + 1]), full[i:i + 1]), i


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _scalar_apply(pose, rows):
    """``apply``'s documented order, one Python float operation at a time."""
    rot, t = pose.rotation.tolist(), pose.translation.tolist()
    return np.array([[((x * r0 + y * r1) + z * r2) + ti for (r0, r1, r2), ti in zip(rot, t)]
                     for x, y, z in rows.tolist()]).reshape(-1, 3)


def _bundled_poses():
    scenarios = [load_scenario(bundled_scenario_path(name))
                 for name in ("demo_11", "demo_overreach", "perf_300k")]
    return [pose for s in scenarios for pose in (s.camera_1, s.camera_2)]


@pytest.mark.parametrize("order", ["C", "F"])
def test_apply_and_inverse_equal_a_scalar_evaluation_bit_for_bit(order):
    # no BLAS product: the bits follow from the documented order alone
    rng = np.random.default_rng(83)
    poses = _bundled_poses() + [RigidTransform.from_euler_deg(*rng.uniform(-180, 180, 3),
                                                              rng.uniform(-1, 1, 3))
                                for _ in range(4)]
    rows = rng.choice([-1.0, 1.0], (2000, 3)) * 10.0 ** rng.uniform(-3, 3, (2000, 3))
    rows = np.asarray(rows, order=order)
    for pose in poses + [p.inverse() for p in poses]:
        got, want = pose.apply(rows), _scalar_apply(pose, rows)
        differ = (_bits(got) != _bits(want)).any(axis=1)
        assert not differ.any(), f"{differ.sum()} of {len(rows)} rows differ"
        for pts in (rows[:0], rows[:2]):
            assert _bits(pose.apply(pts)).tobytes() == _bits(_scalar_apply(pose, pts)).tobytes()
        single = [(_bits(pose.apply(p)) != _bits(_scalar_apply(pose, p))).any()
                  for p in rows[:200, None]]
        assert not any(single), f"{sum(single)} of 200 one-row inputs differ"
        inv = pose.inverse()
        x, y, z = pose.translation.tolist()
        want_t = [-((x * r0 + y * r1) + z * r2) for r0, r1, r2 in pose.rotation.T.tolist()]
        assert inv.translation.tobytes() == np.array(want_t).tobytes()
        assert inv.rotation.tobytes() == np.ascontiguousarray(pose.rotation.T).tobytes()


def test_transform_cloud_relabels_frame():
    rng = np.random.default_rng(3)
    cloud = _random_cloud(rng, 10, frame="camera-1")
    t = RigidTransform.from_euler_deg(60.0, 0.0, 20.0, (-0.2, -0.45, 0.4))
    out = transform_cloud(t, cloud, "harvester-base")
    assert out.frame == "harvester-base"
    np.testing.assert_allclose(out.xyz, t.apply(cloud.xyz))
    np.testing.assert_array_equal(out.rgb, cloud.rgb)


# ---------------------------------------------------------------------------
# axis-aligned boxes

def test_aabb_bounds_and_contains():
    box = Aabb(np.array([-1.0, 0.0, 0.0]), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(box.min, [-1.0, 0.0, 0.0])
    np.testing.assert_array_equal(box.max, [1.0, 2.0, 3.0])
    assert not (box.min.flags.writeable or box.max.flags.writeable)
    assert box.contains((0.0, 1.0, 1.5))
    assert box.contains((1.0, 2.0, 3.0))   # faces are inclusive
    assert not box.contains((1.0001, 2.0, 3.0))
    # a cluster's box spans its points
    xyz = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [-1.0, 0.5, 1.0]])
    (berry,) = bounding_boxes([PointCloud(xyz, np.zeros((3, 3), np.uint8), "f")])
    np.testing.assert_array_equal(berry.box.min, box.min)
    np.testing.assert_array_equal(berry.box.max, box.max)


def test_aabb_rejects_empty_and_reversed():
    with pytest.raises(ValidationError):
        bounding_boxes([PointCloud.empty("f")])
    with pytest.raises(ValidationError):
        Aabb(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValidationError):
        Aabb(np.array([0.0, 0.0, np.nan]), np.ones(3))
    with pytest.raises(ValidationError):
        Aabb(np.zeros(2), np.ones(2))


# ---------------------------------------------------------------------------
# KdTree vs linear scan

@pytest.mark.parametrize("points,message", [
    (np.zeros((4, 2)), r"^points must be \(n, 3\), got \(4, 2\)$"),
    (np.array([[0.0, 0.0, 0.0], [0.1, np.nan, 0.0]]), r"^points contain non-finite coordinates$")])
def test_kdtree_refuses_points_that_are_not_finite_3_vectors(points, message):
    with pytest.raises(ValidationError, match=message):
        KdTree(points)


def _linear_scan(xyz, center, radius):
    d2 = np.sum((xyz - np.asarray(center)) ** 2, axis=1)
    return np.flatnonzero(d2 <= radius * radius)


def test_radius_search_matches_linear_scan_fuzz():
    rng = np.random.default_rng(42)
    for trial in range(60):
        n = int(rng.integers(1, 400))
        xyz = rng.uniform(-1, 1, size=(n, 3))
        tree = KdTree(xyz)
        for _ in range(5):
            center = rng.uniform(-1.2, 1.2, size=3)
            radius = float(rng.uniform(0.0, 1.0))
            got = tree.radius_search(center, radius)
            want = _linear_scan(xyz, center, radius)
            np.testing.assert_array_equal(got, want), f"trial {trial}"


def test_radius_search_output_sorted_and_typed():
    rng = np.random.default_rng(1)
    xyz = rng.uniform(-1, 1, size=(200, 3))
    idx = KdTree(xyz).radius_search((0.0, 0.0, 0.0), 0.8)
    assert idx.dtype == np.int64
    assert np.all(np.diff(idx) > 0)


def test_radius_search_edge_cases():
    xyz = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    tree = KdTree(xyz)
    # zero radius still hits an exactly coincident point
    np.testing.assert_array_equal(tree.radius_search((0, 0, 0), 0.0), [0])
    with pytest.raises(ValidationError):
        tree.radius_search((0, 0, 0), -0.1)
    with pytest.raises(ValidationError):
        tree.radius_search((0, 0), 1.0)
    empty = KdTree(np.zeros((0, 3)))
    assert len(empty) == 0
    assert empty.radius_search((0, 0, 0), 5.0).size == 0


def test_pairs_within_matches_bruteforce():
    rng = np.random.default_rng(5)
    xyz = rng.uniform(0, 1, size=(80, 3))
    pairs = KdTree(xyz).pairs_within(0.25)
    want = set()
    for i in range(80):
        for j in range(i + 1, 80):
            if np.linalg.norm(xyz[i] - xyz[j]) <= 0.25:
                want.add((i, j))
    got = {(int(i), int(j)) for i, j in pairs}
    assert got == want


@pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("query", ["radius_search", "pairs_within", "query_coordinate"])
def test_radius_must_be_finite(query, radius):
    tree = KdTree(np.random.default_rng(3).uniform(-1, 1, size=(50, 3)))
    if query == "query_coordinate":
        # the same values as a coordinate of the query point
        with pytest.raises(ValidationError, match="query must be a finite 3-vector$"):
            tree.radius_search((0.0, radius, 0.0), 0.5)
        return
    args = ((0.0, 0.0, 0.0), radius) if query == "radius_search" else (radius,)
    with pytest.raises(ValidationError, match=f"non-negative and finite, got {radius}$"):
        getattr(tree, query)(*args)


def test_tree_over_huge_coordinates_answers_by_the_rule():
    # squared differences between the 1e200 points and the rest overflow to inf
    xyz = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1e200, 0.0, 0.0],
                    [1e200, 0.5, 0.0], [-1e200, 0.0, 1.0]])
    tree = KdTree(xyz)
    with np.errstate(over="ignore"):
        for center in xyz:
            for radius in (0.0, 0.6, 2.0):
                np.testing.assert_array_equal(tree.radius_search(center, radius),
                                              _linear_scan(xyz, center, radius))
    assert {tuple(p) for p in tree.pairs_within(0.6).tolist()} == {(0, 1), (2, 3)}


@pytest.mark.parametrize("radius", [0.0, 1e-200])
def test_radius_search_where_squares_underflow(radius):
    # 1e-170 squared underflows to 0, so the rule counts the point as within r
    xyz = np.array([[0.0, 0.0, 0.0], [1e-170, 0.0, 0.0], [1e-100, 0.0, 0.0]])
    assert _linear_scan(xyz, xyz[0], radius).tolist() == [0, 1]
    np.testing.assert_array_equal(KdTree(xyz).radius_search(xyz[0], radius), [0, 1])
