"""Point cloud, rigid transform, and kd-tree tests.

The kd-tree checks run against a brute-force linear scan; the transform
checks run against explicit R @ p + t matrix math.
"""

import numpy as np
import pytest

from laserberry import (Aabb, KdTree, PointCloud, RigidTransform,
                        ValidationError, bounding_boxes, load_scenario)
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
# kd-tree vs linear scan

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

