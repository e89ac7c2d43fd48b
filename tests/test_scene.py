"""Synthetic scene generation: determinism, partition, labels, physics."""

import dataclasses

import numpy as np
import pytest

from laserberry import GantrySim, load_scenario
from laserberry.geometry import transform_cloud
from laserberry.scenario import BerrySpec, Scenario, bundled_scenario_path
from laserberry.scene import (LABEL_FOLIAGE, LABEL_PALETTE, FruitBody,
                              apply_color_gain, generate_scene, make_world)
from stepping import fall_step


@pytest.fixture(scope="module")
def scenario():
    return load_scenario(bundled_scenario_path("demo_11"))


@pytest.fixture(scope="module")
def scene(scenario):
    return generate_scene(scenario)


def test_same_seed_bitwise_identical(scenario):
    a1, a2, at = generate_scene(scenario)
    b1, b2, bt = generate_scene(scenario)
    np.testing.assert_array_equal(a1.xyz, b1.xyz)
    np.testing.assert_array_equal(a1.rgb, b1.rgb)
    np.testing.assert_array_equal(a2.xyz, b2.xyz)
    np.testing.assert_array_equal(at.stem_diameters_mm, bt.stem_diameters_mm)
    np.testing.assert_array_equal(at.labels_cam1, bt.labels_cam1)


def test_different_seed_differs(scenario):
    other = dataclasses.replace(scenario, seed=scenario.seed + 1)
    a1, _, at = generate_scene(scenario)
    b1, _, bt = generate_scene(other)
    assert not np.array_equal(at.stem_diameters_mm, bt.stem_diameters_mm)
    assert not np.array_equal(a1.xyz[: len(b1.xyz)], b1.xyz[: len(a1.xyz)])


def test_point_budget_and_labels(scenario, scene):
    cloud1, cloud2, truth = scene
    n_berries = len(scenario.berries)
    total = len(cloud1) + len(cloud2)
    # berry and foliage points are split between cameras; palette is
    # duplicated into both
    assert total == (n_berries * scenario.berry_points
                     + scenario.foliage_points + 2 * scenario.palette.points)
    assert len(truth.labels_cam1) == len(cloud1)
    assert len(truth.labels_cam2) == len(cloud2)
    labels = np.concatenate([truth.labels_cam1, truth.labels_cam2])
    assert set(np.unique(labels)) == set(range(n_berries)) | {LABEL_FOLIAGE,
                                                              LABEL_PALETTE}
    # each berry contributes exactly its budget, no double counting
    for i in range(n_berries):
        assert int((labels == i).sum()) == scenario.berry_points
    assert int((labels == LABEL_PALETTE).sum()) == 2 * scenario.palette.points


def test_berry_points_lie_on_prolate_surface(scenario, scene):
    cloud1, _, truth = scene
    base = transform_cloud(scenario.camera_1, cloud1, "harvester-base")
    for i, center in enumerate(truth.berry_centers[:3]):
        pts = base.xyz[truth.labels_cam1 == i]
        r = truth.berry_diameters_m[i] / 2.0
        semi = np.array([r, r, 1.15 * r])
        radii = np.linalg.norm((pts - center) / semi, axis=1)
        np.testing.assert_allclose(radii, 1.0, atol=1e-9)


def test_partition_centroid_near_center(scenario, scene):
    # facing-based split leaves each berry's merged centroid near its center
    cloud1, cloud2, truth = scene
    b1 = transform_cloud(scenario.camera_1, cloud1, "harvester-base")
    b2 = transform_cloud(scenario.camera_2, cloud2, "harvester-base")
    xyz = np.vstack([b1.xyz, b2.xyz])
    labels = np.concatenate([truth.labels_cam1, truth.labels_cam2])
    for i, center in enumerate(truth.berry_centers):
        centroid = xyz[labels == i].mean(axis=0)
        assert np.linalg.norm(centroid - center) < 0.002


def test_stem_diameters_in_calibrated_range(scene):
    _, _, truth = scene
    assert np.all(truth.stem_diameters_mm >= 2.0)
    assert np.all(truth.stem_diameters_mm <= 2.4)
    # stems hang the fruit: stem bottom sits on the berry top pole
    want = truth.berry_centers[:, 2] + 1.15 * truth.berry_diameters_m / 2.0
    np.testing.assert_allclose(truth.stem_bottom_z, want)
    assert np.all(truth.stem_top_z > truth.stem_bottom_z)


def test_explicit_stem_and_toughness_override(scenario):
    berry = BerrySpec(center=(0.0, 0.0, 0.6), stem_diameter_mm=3.3,
                      toughness=1.7)
    scn = dataclasses.replace(scenario, berries=(berry,))
    _, _, truth = generate_scene(scn)
    assert truth.stem_diameters_mm[0] == 3.3
    assert truth.toughness[0] == 1.7


def test_palette_color_is_berry_base_jittered(scenario, scene):
    cloud1, _, truth = scene
    pal = cloud1.rgb[truth.labels_cam1 == LABEL_PALETTE].astype(int)
    base = np.array(scenario.colors.berry_base)
    assert np.abs(pal - base).max() <= scenario.colors.palette_jitter


def test_clouds_are_in_camera_frames(scene):
    cloud1, cloud2, _ = scene
    assert cloud1.frame == "camera-1"
    assert cloud2.frame == "camera-2"


def test_apply_color_gain_rounds_and_clips():
    from laserberry.geometry import PointCloud
    rgb = np.array([[200, 100, 3]], dtype=np.uint8)
    cloud = PointCloud(np.zeros((1, 3)), rgb, "f")
    np.testing.assert_array_equal(apply_color_gain(cloud, 0.7).rgb, [[140, 70, 2]])
    np.testing.assert_array_equal(apply_color_gain(cloud, 2.0).rgb, [[255, 200, 6]])
    np.testing.assert_array_equal(apply_color_gain(cloud, 2).rgb, [[255, 200, 6]])


# ---------------------------------------------------------------------------
# fruit bodies

def test_make_world_mirrors_truth(scene):
    _, _, truth = scene
    world = make_world(truth)
    assert len(world) == len(truth.berry_centers)
    f = world[4]
    assert f.uid == 4
    assert f.center == pytest.approx(tuple(truth.berry_centers[4]))
    assert f.stem_diameter_mm == truth.stem_diameters_mm[4]
    assert f.attached and not f.landed


def test_fruit_fall_integration():
    f = FruitBody(uid=0, x=0.0, y=0.0, z=0.1, stem_x=0.0, stem_y=0.0,
                  stem_diameter_mm=2.2, toughness=1.0)
    f.attached = False
    t, dt = 0.0, 0.001
    while not f.landed:
        fall_step(f, dt, 9.81)
        t += dt
        assert t < 1.0
    # ~sqrt(2h/g) = 143 ms for a 10 cm drop
    assert abs(t - 0.143) < 0.005
    assert f.prev_z > f.z


def test_fall_track_matches_fall_step():
    """The fall ``GantrySim.replay`` builds is fall_step's, tick for tick."""
    f = FruitBody(uid=0, x=0.0, y=0.0, z=0.61, stem_x=0.0, stem_y=0.0,
                  stem_diameter_mm=2.2, toughness=1.0, fall_velocity=0.3, attached=False)
    (fruit, v, z), = GantrySim().replay(300, 0.0007, [f]).falls
    assert fruit is f
    for k in range(1, 301):
        fall_step(f, 0.0007, 9.81)
        assert (f.fall_velocity, f.z) == (v[k], z[k])


def test_snap_moves_fruit_and_stem():
    f = FruitBody(uid=0, x=0.1, y=0.2, z=0.5, stem_x=0.1, stem_y=0.2,
                  stem_diameter_mm=2.2, toughness=1.0)
    f.snap_to(0.11, 0.19)
    assert (f.x, f.y) == (0.11, 0.19)
    assert (f.stem_x, f.stem_y) == (0.11, 0.19)
    assert f.z == 0.5
