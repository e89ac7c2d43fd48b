"""Windowing, color calibration, clustering, and the full localization path.

Clustering is checked against a quadratic union-find reference; windows
and color filters against per-point predicates.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laserberry import (Aabb, BerryBox, CalibrationError, ClusterParams, ColorReference,
                        PointCloud, RigidTransform, SpatialWindow, ValidationError,
                        bounding_boxes, calibration_reference,
                        euclidean_clusters, load_scenario, localize)
from laserberry.localization import (LocalizationConfig, _components, extract_window,
                                     filter_red, localize_clusters, merge_clouds)
from laserberry.scenario import bundled_scenario_path
from laserberry.scene import apply_color_gain, generate_scene
from test_acceptance import _union_find_clusters
from test_clustering import _check


def _cloud(xyz, rgb=None, frame="harvester-base"):
    xyz = np.asarray(xyz, dtype=np.float64)
    if rgb is None:
        rgb = np.zeros((len(xyz), 3), dtype=np.uint8)
    return PointCloud(xyz, np.asarray(rgb, dtype=np.uint8), frame)


# ---------------------------------------------------------------------------
# spatial windows

def test_window_bounds_are_strict():
    w = SpatialWindow(-1.0, 1.0, -1.0, 1.0, 0.0, 2.0)
    xyz = np.array([
        [0.0, 0.0, 1.0],    # inside
        [1.0, 0.0, 1.0],    # on x_max: excluded
        [0.0, -1.0, 1.0],   # on y_min: excluded
        [0.0, 0.0, 2.0],    # on z_max: excluded
        [0.999, 0.999, 1.999],
    ])
    np.testing.assert_array_equal(w.mask(xyz), [True, False, False, False, True])


def test_window_swaps_reversed_bounds():
    w = SpatialWindow(1.0, -1.0, 0.0, 2.0, 5.0, 3.0)
    assert w.x_min == -1.0 and w.x_max == 1.0
    assert w.z_min == 3.0 and w.z_max == 5.0


def test_window_mask_matches_predicate_fuzz():
    rng = np.random.default_rng(31)
    for _ in range(40):
        b = np.sort(rng.uniform(-2, 2, size=(3, 2)), axis=1)
        w = SpatialWindow(b[0, 0], b[0, 1], b[1, 0], b[1, 1], b[2, 0], b[2, 1])
        xyz = rng.uniform(-2, 2, size=(100, 3))
        want = [(b[0, 0] < x < b[0, 1] and b[1, 0] < y < b[1, 1]
                 and b[2, 0] < z < b[2, 1]) for x, y, z in xyz]
        np.testing.assert_array_equal(w.mask(xyz), want)


def test_extract_window_keeps_colors_aligned():
    rng = np.random.default_rng(2)
    xyz = rng.uniform(-1, 1, size=(200, 3))
    rgb = rng.integers(0, 256, size=(200, 3), dtype=np.uint8)
    cloud = _cloud(xyz, rgb)
    w = SpatialWindow(-0.5, 0.5, -0.5, 0.5, -0.5, 0.5)
    out = extract_window(cloud, w)
    keep = w.mask(xyz)
    np.testing.assert_array_equal(out.xyz, xyz[keep])
    np.testing.assert_array_equal(out.rgb, rgb[keep])


# ---------------------------------------------------------------------------
# color calibration and filtering

def test_calibration_reference_is_palette_mean():
    rgb = np.array([[100, 40, 50], [110, 44, 52], [90, 36, 48]], dtype=np.uint8)
    ref = calibration_reference(_cloud(np.zeros((3, 3)), rgb), 45, 45, 45)
    np.testing.assert_allclose(ref.mean, [100.0, 40.0, 50.0])
    np.testing.assert_allclose(ref.thresholds, [45.0, 45.0, 45.0])


def test_calibration_reference_empty_palette():
    with pytest.raises(CalibrationError):
        calibration_reference(PointCloud.empty("harvester-base"), 45, 45, 45)


def test_filter_red_strict_thresholds():
    ref = ColorReference(100.0, 50.0, 50.0, 10.0, 10.0, 10.0)
    rgb = np.array([
        [100, 50, 50],   # exact mean: keep
        [109, 50, 50],   # inside
        [110, 50, 50],   # |dr| == 10: dropped (strict)
        [100, 39, 50],   # |dg| == 11: dropped
        [91, 59, 41],    # all within: keep
    ], dtype=np.uint8)
    out = filter_red(_cloud(np.zeros((5, 3)), rgb), ref)
    np.testing.assert_array_equal(out.rgb, rgb[[0, 1, 4]])


def test_filter_red_matches_predicate_fuzz():
    rng = np.random.default_rng(17)
    ref = ColorReference(190.0, 35.0, 45.0, 45.0, 45.0, 45.0)
    for _ in range(30):
        rgb = rng.integers(0, 256, size=(300, 3), dtype=np.uint8)
        cloud = _cloud(rng.normal(size=(300, 3)), rgb)
        keep = np.array([abs(r - 190.0) < 45 and abs(g - 35.0) < 45
                         and abs(b - 45.0) < 45
                         for r, g, b in rgb.astype(float)])
        out = filter_red(cloud, ref)
        np.testing.assert_array_equal(out.rgb, rgb[keep])


def test_merge_requires_common_frame():
    a = _cloud(np.zeros((2, 3)), frame="harvester-base")
    b = _cloud(np.ones((2, 3)), frame="camera-1")
    with pytest.raises(ValidationError):
        merge_clouds(a, b)
    merged = merge_clouds(a, _cloud(np.ones((3, 3))))
    assert len(merged) == 5
    np.testing.assert_array_equal(merged.xyz[:2], a.xyz)


# ---------------------------------------------------------------------------
# clustering vs quadratic union-find

def _index_colors(n):
    """Encode point index i as color (i // 256, i % 256, 0)."""
    idx = np.arange(n)
    return np.stack([idx // 256, idx % 256, np.zeros(n, dtype=int)],
                    axis=1).astype(np.uint8)


def _indices_of(cluster):
    r = cluster.rgb.astype(np.int64)
    return frozenset((r[:, 0] * 256 + r[:, 1]).tolist())


def test_clusters_match_union_find_fuzz():
    rng = np.random.default_rng(99)
    params = ClusterParams(tolerance=0.01, min_size=1, max_size=10_000)
    for trial in range(50):
        n = int(rng.integers(2, 300))
        # mix of tight blobs and loose background so both link and split occur
        blob = rng.normal(scale=0.004, size=(n // 2, 3))
        bg = rng.uniform(-0.1, 0.1, size=(n - n // 2, 3))
        xyz = np.vstack([blob, bg])
        got = {_indices_of(c)
               for c in euclidean_clusters(_cloud(xyz, _index_colors(n)), params)}
        want = _union_find_clusters(xyz, 0.01, 1, 10_000)
        assert got == want, f"trial {trial}: {len(got)} vs {len(want)} clusters"


def test_cluster_size_band():
    # 3 tight points and 50 tight points, far apart
    small = np.zeros((3, 3))
    big = np.ones((50, 3)) + np.linspace(0, 0.001, 50)[:, None]
    params = ClusterParams(tolerance=0.01, min_size=10, max_size=40)
    found = euclidean_clusters(_cloud(np.vstack([small, big])), params)
    assert found == []  # 3 under min, 50 over max
    params = ClusterParams(tolerance=0.01, min_size=3, max_size=50)
    found = euclidean_clusters(_cloud(np.vstack([small, big])), params)
    assert sorted(len(c) for c in found) == [3, 50]


def test_clusters_sorted_by_y_then_x():
    rng = np.random.default_rng(4)
    blobs = []
    centers = [(0.5, -0.2, 0.0), (-0.5, -0.2, 0.0), (0.0, 0.3, 0.0)]
    for c in centers:
        noise = rng.normal(scale=0.002, size=(20, 3))
        blobs.append(c + noise - noise.mean(axis=0))   # blob mean exactly c
    clusters = euclidean_clusters(_cloud(np.vstack(blobs)),
                                  ClusterParams(0.01, 1, 1000))
    means = [c.xyz.mean(axis=0) for c in clusters]
    # ascending y; the exact y tie broken by x
    assert means[0][1] == pytest.approx(-0.2, abs=1e-9)
    assert means[0][0] == pytest.approx(-0.5, abs=1e-9)
    assert means[1][0] == pytest.approx(0.5, abs=1e-9)
    assert means[2][1] == pytest.approx(0.3, abs=1e-9)


def test_cluster_order_input_invariance():
    rng = np.random.default_rng(12)
    xyz = np.vstack([rng.normal(loc=c, scale=0.002, size=(30, 3))
                     for c in [(0, 0, 0), (1, 1, 1), (2, 0, 1)]])
    params = ClusterParams(0.01, 1, 1000)
    base = [np.sort(c.xyz, axis=0) for c in euclidean_clusters(_cloud(xyz), params)]
    perm = rng.permutation(len(xyz))
    shuffled = [np.sort(c.xyz, axis=0)
                for c in euclidean_clusters(_cloud(xyz[perm]), params)]
    assert len(base) == len(shuffled)
    for a, b in zip(base, shuffled):
        np.testing.assert_allclose(a, b)


def test_pick_key_is_the_reported_centroid():
    # every cluster holds the same y values in its own order, so the centroid
    # y values tie or differ in the last bits with the summation order, and x
    # falls the other way: clusters rank as the centroids bounding_boxes
    # reports them (y, then x, then first index), which the pair route sorts by
    rng = np.random.default_rng(31)
    y = rng.uniform(0.0, 0.003, size=50) + 0.1
    blobs = []
    for i in range(40):
        blob = rng.uniform(0.0, 0.003, size=(50, 3)) + [-1e-4 * i, 0.0, 0.1 * i]
        blob[:, 1] = rng.permutation(y)
        blobs.append(blob)
    xyz = np.vstack(blobs)
    got = _check(xyz, ClusterParams(0.01, 1, 100), oracle=False)
    boxes = bounding_boxes([_cloud(xyz[g]) for g in got])
    ranked = [(b.centroid[1], b.centroid[0], g[0]) for b, g in zip(boxes, got)]
    assert ranked == sorted(ranked)
    assert 1 < len({y for y, _, _ in ranked}) < 40


def _graphs():
    """``(n, a, b)`` graphs: no edges, self-loops, repeated edges, a star
    whose centre has the highest id, random graphs, and a permuted path."""
    rng = np.random.default_rng(404)
    none = np.empty(0, dtype=np.int64)
    yield 1, none, none
    yield 7, none, none
    loops = rng.integers(0, 50, 30)
    yield 50, loops, loops
    a, b = rng.integers(0, 40, (2, 25))
    yield 40, np.r_[a, a, b, loops[:5] % 40], np.r_[b, b, a, loops[:5] % 40]
    yield 1000, np.full(999, 999), np.arange(999)
    for n in (2, 10, 300, 3000):
        m = int(rng.integers(0, 2 * n))
        yield n, rng.integers(0, n, m), rng.integers(0, n, m)
    path = rng.permutation(10 ** 5)
    yield len(path), path[:-1], path[1:]


def test_components_match_scipy():
    # labels number the components in the order of their lowest node, as
    # scipy's connected_components numbers them
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    for n, a, b in _graphs():
        adj = sparse.coo_matrix((np.ones(len(a), dtype=np.int8), (a, b)), shape=(n, n))
        want = csgraph.connected_components(adj, directed=False)[1]
        np.testing.assert_array_equal(_components(n, a, b), want)


# ---------------------------------------------------------------------------
# boxes

def _assert_near_mean(centroid, xyz):
    """The centroid sums in another order than ``xyz.mean(axis=0)``, which adds
    rows one at a time: two sums of n values differ by at most (n - 1) eps
    times the sum of their magnitudes, and rounding the quotient adds an ulp."""
    bound = len(xyz) * np.finfo(np.float64).eps * np.abs(xyz).mean(axis=0)
    assert (np.abs(centroid - xyz.mean(axis=0)) <= bound).all(), (centroid, bound)


def test_bounding_boxes_rank_and_containment():
    rng = np.random.default_rng(21)
    clusters = [
        _cloud(rng.normal(loc=(0, -0.1, 0.5), scale=0.003, size=(25, 3))),
        _cloud(rng.normal(loc=(0.2, 0.1, 0.6), scale=0.003, size=(40, 3))),
    ]
    boxes = bounding_boxes(clusters)
    assert [b.rank for b in boxes] == [0, 1]
    assert boxes[0].point_count == 25
    for b, c in zip(boxes, clusters):
        assert b.box.contains(b.centroid)
        _assert_near_mean(b.centroid, c.xyz)
        np.testing.assert_array_equal(b.box.min, c.xyz.min(axis=0))
        np.testing.assert_array_equal(b.box.max, c.xyz.max(axis=0))
        assert not (b.box.min.flags.writeable or b.box.max.flags.writeable)


def test_bounding_boxes_of_no_cluster_and_of_an_empty_one():
    assert bounding_boxes([]) == []
    full = _cloud(np.ones((4, 3)))
    empty = PointCloud.empty("harvester-base")
    for clusters in ([empty], [full, empty], [empty, full], [full, empty, full]):
        with pytest.raises(ValidationError, match="empty"):
            bounding_boxes(clusters)


#: Under identity camera poses the clouds are in the base frame; this crop
#: keeps the repeated point (0.1, 0.1, 0.1), and 3 points make a fruit.
_FLAT_CONFIG = LocalizationConfig(
    reduced_window=SpatialWindow(0.0, 0.3, -0.2, 0.2, 0.0, 0.7),
    cluster=ClusterParams(tolerance=0.01, min_size=3, max_size=1000))


def _flat_fruit_clouds():
    """Camera clouds for identity poses: both see a palette patch, and camera 1
    also sees a flat 7 x 7 grid fruit at z = 0.55 and three copies of
    (0.1, 0.1, 0.1), all in the patch color."""
    palette = np.column_stack([np.linspace(-0.085, -0.075, 10), np.full(10, 0.105),
                               np.full(10, 0.32)])
    grid = np.arange(7) * 0.003
    flat = np.column_stack([0.2 + np.repeat(grid, 7), -0.05 + np.tile(grid, 7),
                            np.full(49, 0.55)])
    xyz = np.vstack([palette, flat, np.full((3, 3), 0.1)])
    red = np.tile(np.array([200, 30, 30], dtype=np.uint8), (len(xyz), 1))
    return _cloud(xyz, red, "camera"), _cloud(palette, red[:10], "camera")


def test_flat_and_repeated_point_clusters_box_inside():
    # outside input is still refused: three copies of 0.1 add up to
    # 0.30000000000000004, so their plain mean lies one ulp above the box
    xyz = np.full((3, 3), 0.1)
    with pytest.raises(ValidationError, match="outside"):
        BerryBox(Aabb(xyz.min(axis=0), xyz.max(axis=0)), xyz.mean(axis=0), 3, 0)
    # the boxes clip the mean into the bounds: a flat axis gives its coordinate
    (repeated,) = bounding_boxes([_cloud(xyz)])
    assert (repeated.centroid == 0.1).all()
    pose = RigidTransform.identity()
    cloud1, cloud2 = _flat_fruit_clouds()
    boxes = localize(cloud1, cloud2, pose, pose, _FLAT_CONFIG)
    clusters = localize_clusters(cloud1, cloud2, pose, pose, _FLAT_CONFIG)
    assert _fields(boxes) == _fields(bounding_boxes(clusters))
    assert [b.point_count for b in boxes] == [49, 3]
    assert boxes[0].centroid[2] == 0.55
    assert boxes[1].centroid.tobytes() == repeated.centroid.tobytes()
    for b in (*boxes, repeated):
        assert b.box.contains(b.centroid)


def test_box_centroids_are_clipped_means_fuzz():
    # criterion-8 clouds: every centroid lies in its box and within rounding of
    # c.xyz.mean(axis=0), every bound is the cluster's min and max; some
    # clusters hold only -0.0 along an axis, where the centroid is -0.0 like
    # its bounds (a mean summed onto +0.0 would give +0.0)
    rng = np.random.default_rng(2024)
    params = ClusterParams(tolerance=0.012, min_size=1, max_size=100_000)
    checked = 0
    for trial in range(60):
        n = int(rng.integers(2, 501))
        mix = rng.random()
        blob = rng.normal(scale=0.005, size=(int(n * mix), 3))
        bg = rng.uniform(-0.08, 0.08, size=(n - int(n * mix), 3))
        xyz = np.vstack([blob, bg])
        if trial % 4 == 0:
            xyz[:, trial % 3] = -0.0
        clusters = euclidean_clusters(_cloud(xyz), params)
        for b, c in zip(bounding_boxes(clusters), clusters):
            assert b.box.contains(b.centroid), f"cloud {trial}"
            _assert_near_mean(b.centroid, c.xyz)
            if trial % 4 == 0:
                assert np.signbit(b.centroid[trial % 3]), f"cloud {trial}"
            np.testing.assert_array_equal(b.box.min, c.xyz.min(axis=0))
            np.testing.assert_array_equal(b.box.max, c.xyz.max(axis=0))
            assert b.point_count == len(c)
            checked += 1
    assert checked > 500


# ---------------------------------------------------------------------------
# full pipeline on the bundled demo scene

@pytest.fixture(scope="module")
def demo_scene():
    scenario = load_scenario(bundled_scenario_path("demo_11"))
    cloud1, cloud2, truth = generate_scene(scenario)
    return scenario, cloud1, cloud2, truth


def test_localize_demo_scene(demo_scene):
    scenario, cloud1, cloud2, truth = demo_scene
    boxes = localize(cloud1, cloud2, scenario.camera_1, scenario.camera_2,
                     scenario.localization)
    assert len(boxes) == 11
    # ranks ascend in y
    ys = [b.centroid[1] for b in boxes]
    assert ys == sorted(ys)
    # each centroid within 5 mm of a distinct true berry center
    centers = truth.berry_centers
    order = np.lexsort((centers[:, 0], centers[:, 1]))
    for box, i in zip(boxes, order):
        err = np.linalg.norm(np.asarray(box.centroid) - centers[i])
        assert err < 0.005, f"rank {box.rank}: {err * 1e3:.2f} mm"


def test_palette_is_not_a_fruit_when_the_reduced_window_holds_it(tmp_path):
    # reduced_z_min = -0.1 puts the palette window inside the reduced one
    path = tmp_path / "low.ini"
    path.write_text("[scenario]\nseed = 5\nfoliage_points = 0\n"
                    "[berry 1]\nx = 0\ny = -0.05\nz = 0.60\n"
                    "[berry 2]\nx = 0.05\ny = 0.05\nz = 0.035\n"
                    "[localization]\nreduced_x_min = -0.3\nreduced_x_max = 0.3\n"
                    "reduced_y_min = -0.2\nreduced_y_max = 0.2\n"
                    "reduced_z_min = -0.1\nreduced_z_max = 0.7\n")
    scenario = load_scenario(path)
    cloud1, cloud2, _ = generate_scene(scenario)
    boxes = localize(cloud1, cloud2, scenario.camera_1, scenario.camera_2,
                     scenario.localization)
    assert len(boxes) == 2
    palette = scenario.localization.palette_window
    assert not palette.mask(np.array([b.centroid for b in boxes])).any()


def test_localize_invariant_to_uniform_gain(demo_scene):
    scenario, cloud1, cloud2, _ = demo_scene
    base = localize(cloud1, cloud2, scenario.camera_1, scenario.camera_2,
                    scenario.localization)
    dim = localize(apply_color_gain(cloud1, 0.7), apply_color_gain(cloud2, 0.7),
                   scenario.camera_1, scenario.camera_2, scenario.localization)
    assert len(dim) == len(base) == 11
    for a, b in zip(base, dim):
        np.testing.assert_allclose(a.centroid, b.centroid, atol=1e-4)
        assert a.point_count == b.point_count


@pytest.fixture(scope="module")
def perf_scene():
    scenario = load_scenario(bundled_scenario_path("perf_300k"))
    cloud1, cloud2, truth = generate_scene(scenario)
    return scenario, cloud1, cloud2, truth


def _chained_clusters(cloud1, cloud2, pose1, pose2, cfg):
    """The public stages chained: the reference for ``localize_clusters``."""
    from laserberry.geometry import transform_cloud
    parts = []
    for cloud, pose in ((cloud1, pose1), (cloud2, pose2)):
        base = transform_cloud(pose, cloud, "harvester-base")
        ref = calibration_reference(extract_window(base, cfg.palette_window),
                                    cfg.r_th, cfg.g_th, cfg.b_th)
        parts.append(filter_red(extract_window(base, cfg.reduced_window), ref))
    return euclidean_clusters(merge_clouds(*parts), cfg.cluster)


def _assert_same_clusters(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.xyz, w.xyz)
        np.testing.assert_array_equal(g.rgb, w.rgb)


def _fields(boxes):
    return [(b.rank, b.point_count, b.centroid.tobytes(), b.box.min.tobytes(),
             b.box.max.tobytes()) for b in boxes]


def _assert_boxes_match_clusters(scenario, cloud1, cloud2):
    args = (cloud1, cloud2, scenario.camera_1, scenario.camera_2, scenario.localization)
    clusters = localize_clusters(*args)
    boxes = localize(*args)
    assert _fields(boxes) == _fields(bounding_boxes(clusters))
    keys = [(b.centroid[1], b.centroid[0]) for b in boxes]
    assert keys == sorted(keys)
    for b, c in zip(boxes, clusters):
        assert b.box.contains(b.centroid)
        _assert_near_mean(b.centroid, c.xyz)
    return boxes


@pytest.mark.parametrize("name", ["demo_11", "demo_overreach", "perf_300k"])
def test_localize_boxes_equal_boxed_clusters(name):
    # localize boxes the label runs without building the cluster clouds
    scenario = load_scenario(bundled_scenario_path(name))
    cloud1, cloud2, _ = generate_scene(scenario)
    assert len(_assert_boxes_match_clusters(scenario, cloud1, cloud2)) > 0


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_localize_boxes_equal_boxed_clusters_reseeded(seed):
    scenario = dataclasses.replace(load_scenario(bundled_scenario_path("demo_11")),
                                   seed=seed)
    _assert_boxes_match_clusters(scenario, *generate_scene(scenario)[:2])


def test_localize_clusters_equals_chained_stages(demo_scene, perf_scene):
    # transforming only the rows it uses, localize keeps exactly the rows
    # the public stages keep
    for scenario, cloud1, cloud2, _ in (demo_scene, perf_scene):
        cfg = scenario.localization
        want = _chained_clusters(cloud1, cloud2, scenario.camera_1, scenario.camera_2, cfg)
        got = localize_clusters(cloud1, cloud2, scenario.camera_1, scenario.camera_2, cfg)
        assert len(want) == 11
        _assert_same_clusters(got, want)


def _bounds(window):
    return (np.array([window.x_min, window.y_min, window.z_min]),
            np.array([window.x_max, window.y_max, window.z_max]))


def _face_points(window, rng, ulps=3):
    """Points on every face of ``window`` and up to ``ulps`` ulps either side,
    the other two coordinates drawn inside."""
    lo, hi = _bounds(window)
    pts = []
    for axis in range(3):
        for face in (lo[axis], hi[axis]):
            for k in range(-ulps, ulps + 1):
                p = rng.uniform(lo, hi)
                p[axis] = face
                for _ in range(abs(k)):
                    p[axis] = np.nextafter(p[axis], math.copysign(math.inf, k))
                pts.append(p)
    return np.array(pts)


def _random_pose(rng, scale):
    return RigidTransform.from_euler_deg(*rng.uniform(-180, 180, 3),
                                         tuple(rng.uniform(-scale, scale, 3)))


def test_localize_clusters_equals_chained_stages_on_edge_cases():
    # hand-built clouds under random poses, far translations included:
    # one palette row, one red row, no red row, and points on and a few
    # ulps either side of every palette and reduced-window face; the boxes
    # localize gives are those of the clusters
    from laserberry.localization import LocalizationConfig
    rng = np.random.default_rng(97)
    cfg = LocalizationConfig(cluster=ClusterParams(tolerance=0.01, min_size=1,
                                                   max_size=10 ** 6))
    pal_lo, pal_hi = _bounds(cfg.palette_window)
    red_lo, red_hi = _bounds(cfg.reduced_window)
    red, leaf = (190, 35, 45), (60, 140, 60)
    # black and white palette rows average to a grey that no row of either
    # colour matches, so (128, 128, 128) is the only color that passes
    bw = np.array([(0, 0, 0), (255, 255, 255)] * 5)
    cases = {
        "one palette row": [((pal_lo + pal_hi) / 2, [red]),
                            (rng.uniform(red_lo, red_hi, (6, 3)), [red]),
                            (rng.uniform(red_lo, red_hi, (6, 3)), [leaf])],
        "one red row": [(rng.uniform(pal_lo, pal_hi, (10, 3)), bw),
                        (rng.uniform(red_lo, red_hi, (1, 3)), [(128, 128, 128)]),
                        (rng.uniform(red_lo, red_hi, (6, 3)), [leaf])],
        "no red row": [(rng.uniform(pal_lo, pal_hi, (10, 3)), bw),
                       (rng.uniform(red_lo, red_hi, (6, 3)), [leaf])],
        "faces": [(rng.uniform(pal_lo, pal_hi, (10, 3)), [red]),
                  (_face_points(cfg.palette_window, rng),
                   red + rng.integers(-20, 21, (42, 3))),
                  (_face_points(cfg.reduced_window, rng), [red]),
                  (rng.uniform(red_lo, red_hi, (6, 3)), [leaf])],
    }
    for name, parts in cases.items():
        base = np.vstack([np.atleast_2d(p) for p, _ in parts])
        rgb = np.vstack([np.broadcast_to(c, np.atleast_2d(p).shape) for p, c in parts])
        for scale in (1.0, 1e3, 1e6):
            pose1, pose2 = _random_pose(rng, scale), _random_pose(rng, scale)
            cloud1 = _cloud(pose1.inverse().apply(base), rgb, "camera-1")
            cloud2 = _cloud(pose2.inverse().apply(base[::-1]), rgb[::-1], "camera-2")
            want = _chained_clusters(cloud1, cloud2, pose1, pose2, cfg)
            got = localize_clusters(cloud1, cloud2, pose1, pose2, cfg)
            assert (len(want) == 0) == (name == "no red row"), name
            _assert_same_clusters(got, want)
            boxes = localize(cloud1, cloud2, pose1, pose2, cfg)
            assert _fields(boxes) == _fields(bounding_boxes(got))


def test_palette_prefilter_keeps_every_window_row_fuzz():
    # the camera-frame box never loses a row the exact base-frame window
    # keeps, however far the pose is from the origin
    from laserberry.localization import LocalizationConfig, _rows_inside
    rng = np.random.default_rng(41)
    window = LocalizationConfig().palette_window
    kept = 0
    lo, hi = _bounds(window)
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    for scale in (1.0, 1e2, 1e4, 1e6, 1e8, 1e10, 1e12):
        for _ in range(8):
            pose = _random_pose(rng, scale)
            base = np.vstack([_face_points(window, rng), corners,
                              rng.uniform(-1, 1, (50, 3))])
            xyz = pose.inverse().apply(base)
            # a few ulps off in the camera frame too
            xyz += np.spacing(xyz) * rng.integers(-4, 5, xyz.shape)
            full = pose.apply(xyz)
            exact = np.flatnonzero(window.mask(full))
            rows, images = _rows_inside(window, pose, xyz)
            np.testing.assert_array_equal(rows, exact)
            np.testing.assert_array_equal(images, full[exact])
            kept += len(exact)
    assert kept > 0


def test_localize_transforms_only_the_rows_it_uses(perf_scene, monkeypatch):
    # per camera, the palette candidates and the color survivors are
    # transformed, not the ~150k rows of the cloud
    scenario, cloud1, cloud2, _ = perf_scene
    sizes = []
    apply = RigidTransform.apply

    def counting(self, points):
        sizes.append(len(points))
        return apply(self, points)

    monkeypatch.setattr(RigidTransform, "apply", counting)
    clusters = localize_clusters(cloud1, cloud2, scenario.camera_1, scenario.camera_2,
                                 scenario.localization)
    assert len(clusters) == 11
    assert len(cloud1) > 140_000 and len(cloud2) > 140_000
    assert sum(sizes) <= 2 * 10_000, sizes


def test_berry_and_foliage_label_pass_rates(demo_scene):
    # with calibrated thresholds, berries survive the color gate and
    # foliage does not
    scenario, cloud1, cloud2, truth = demo_scene
    from laserberry.geometry import transform_cloud
    from laserberry.localization import (calibration_reference, extract_window,
                                         filter_red, merge_clouds)
    cfg = scenario.localization
    labels = np.concatenate([truth.labels_cam1, truth.labels_cam2])
    base1 = transform_cloud(scenario.camera_1, cloud1, "harvester-base")
    base2 = transform_cloud(scenario.camera_2, cloud2, "harvester-base")
    merged = merge_clouds(base1, base2)
    pal = extract_window(merged, cfg.palette_window)
    ref = calibration_reference(pal, cfg.r_th, cfg.g_th, cfg.b_th)
    dr = np.abs(merged.rgb[:, 0].astype(float) - ref.mean[0]) < ref.thresholds[0]
    dg = np.abs(merged.rgb[:, 1].astype(float) - ref.mean[1]) < ref.thresholds[1]
    db = np.abs(merged.rgb[:, 2].astype(float) - ref.mean[2]) < ref.thresholds[2]
    keep = dr & dg & db
    berry = labels >= 0
    foliage = labels == -1
    assert keep[berry].mean() > 0.99
    assert keep[foliage].mean() < 0.01


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_color_and_cluster_parameters_must_be_positive_and_finite(value):
    with pytest.raises(ValidationError, match="g_th must be positive and finite"):
        ColorReference(100.0, 50.0, 50.0, 10.0, value, 10.0)
    with pytest.raises(ValidationError, match="tolerance must be positive and finite"):
        ClusterParams(tolerance=value, min_size=1, max_size=10)
