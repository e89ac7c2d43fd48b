"""
Locating fruit in a two-camera point cloud
==========================================

Walks the localization pipeline one stage at a time on the bundled
eleven-fruit scene, in the order ``localize_clusters`` runs it. Each
camera is handled on its own: crop its palette patch and calibrate the
target color on it, keep the rows of that color, then crop those rows to
the workspace, leaving out the palette window. The two cameras' fruit
points are then merged, clustered and boxed.

Exits 1 unless the boxes equal those of ``localize`` itself.

Run with::

    python3 demos/localization_walkthrough.py
"""

import sys

import numpy as np

from laserberry import (PointCloud, bounding_boxes, calibration_reference,
                        euclidean_clusters, load_scenario, localize)
from laserberry.scenario import bundled_scenario_path
from laserberry.scene import generate_scene

scenario = load_scenario(bundled_scenario_path("demo_11"))
cloud1, cloud2, truth = generate_scene(scenario)
print(f"scene: {len(cloud1)} points from camera 1, {len(cloud2)} from camera 2")

cfg = scenario.localization
xyz_parts, rgb_parts = [], []
for n, cloud, pose in ((1, cloud1, scenario.camera_1), (2, cloud2, scenario.camera_2)):
    # Each camera reports points in its own frame; its extrinsic pose
    # moves them into the shared base frame. Lighting differs between
    # cameras and runs, so the target color is not hardcoded: each camera
    # sees the painted palette patch at a known little volume, and its
    # mean color, per channel, is that camera's red. (localize finds the
    # palette rows without moving the whole cloud: it tests a box in the
    # camera's own frame first.)
    base = pose.apply(cloud.xyz)
    on_palette = cfg.palette_window.mask(base)
    palette = PointCloud(base[on_palette], cloud.rgb[on_palette], "harvester-base")
    ref = calibration_reference(palette, cfg.r_th, cfg.g_th, cfg.b_th)

    # Keep the rows near that color, then move only those into the base
    # frame and crop them to the tray volume. The palette is red too, so
    # its window is cut out of the crop: the patch is never a fruit.
    rows = ref.rows(cloud.rgb)
    xyz = pose.apply(cloud.xyz[rows])
    inside = cfg.reduced_window.mask(xyz) & ~cfg.palette_window.mask(xyz)
    xyz_parts.append(xyz[inside])
    rgb_parts.append(cloud.rgb[rows[inside]])
    print(f"camera {n}: palette {len(palette)} points, mean color "
          f"({ref.mean_r:.1f}, {ref.mean_g:.1f}, {ref.mean_b:.1f}); "
          f"{len(rows)} of that color, {inside.sum()} of them in the fruit crop")

# Merge both cameras (camera 1 first). Euclidean clustering splits the
# red points into one group per fruit; groups outside the size band are
# noise and are dropped.
merged = PointCloud(np.vstack(xyz_parts), np.vstack(rgb_parts), "harvester-base")
clusters = euclidean_clusters(merged, cfg.cluster)
boxes = bounding_boxes(clusters)
print(f"merged: {len(merged)} points; clusters: {len(boxes)}")

# Compare with the generator's ground truth, pairing by pick order
# (ascending y, then x).
centers = truth.berry_centers
order = np.lexsort((centers[:, 0], centers[:, 1]))
print("\nrank   centroid (m)                 truth error   points")
for box, i in zip(boxes, order):
    c = box.centroid
    err = np.linalg.norm(c - centers[i]) * 1e3
    print(f"  {box.rank:2d}   ({c[0]:+.4f}, {c[1]:+.4f}, {c[2]:+.4f})"
          f"   {err:5.2f} mm     {box.point_count}")

# The walk must be the pipeline: the same boxes, bit for bit.
expected = localize(cloud1, cloud2, scenario.camera_1, scenario.camera_2, cfg)
key = lambda b: (b.rank, b.point_count, *b.centroid, *b.box.min, *b.box.max)
if [key(b) for b in boxes] != [key(b) for b in expected]:
    sys.exit("the walkthrough's boxes differ from localize's")
print("\nsame boxes as localize")
