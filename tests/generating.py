"""The scene generator as it was first written: the reference the lean one must equal.

:func:`laserberry.scene.generate_scene` draws color jitter in chunks, drops
the foliage arrays once each camera has its rows, and builds each camera's
labels from its parts' lengths, so that its peak stays near the foliage
positions plus its outputs. This module keeps the plain formulation: whole
``(n, 3)`` int64 jitter arrays shifted and clipped, every part copied per
camera while the originals live, and the parts concatenated at the end. It
makes the same Philox draws in the same order, so both must return the same
bytes for every scenario.
"""

import numpy as np

from laserberry.geometry import CAMERA_1_FRAME, CAMERA_2_FRAME, PointCloud
from laserberry.scene import (_ELONGATION, LABEL_FOLIAGE, LABEL_PALETTE,
                              STEM_DIAMETER_RANGE_MM, SceneTruth)


def reference_scene(scenario):
    """``generate_scene(scenario)``, whole arrays at a time."""
    rng = np.random.Generator(np.random.Philox(scenario.seed))
    colors = scenario.colors
    cam1_pos = scenario.camera_1.translation
    cam2_pos = scenario.camera_2.translation

    nb = len(scenario.berries)
    drawn_stems = rng.uniform(*STEM_DIAMETER_RANGE_MM, size=nb)
    stem_diameters = np.array([
        spec.stem_diameter_mm if spec.stem_diameter_mm is not None else drawn_stems[i]
        for i, spec in enumerate(scenario.berries)])

    parts1, parts2 = [], []

    def _split(to_cam1, *arrays):
        for parts, mask in ((parts1, to_cam1), (parts2, ~to_cam1)):
            rows = np.flatnonzero(mask)
            parts.append(tuple(a.take(rows, axis=0) for a in arrays))

    def _colored(n, base, jitter):
        jit = rng.integers(-jitter, jitter + 1, size=(n, 3))
        return np.clip(np.asarray(base, dtype=np.int16) + jit, 0, 255).astype(np.uint8)

    centers = np.zeros((nb, 3))
    for i, spec in enumerate(scenario.berries):
        center = np.asarray(spec.center, dtype=np.float64)
        centers[i] = center
        n = scenario.berry_points
        directions = rng.normal(size=(n, 3))
        directions /= np.maximum(np.linalg.norm(directions, axis=1, keepdims=True), 1e-12)
        radius = spec.diameter_m / 2.0
        semi = np.array([radius, radius, _ELONGATION * radius])
        pts = center + directions * semi
        rgb = _colored(n, colors.berry_base, colors.berry_jitter)
        labels = np.full(n, i, dtype=np.int32)
        ox, oy, oz = (pts - center).T
        (ax, ay, az), (bx, by, bz) = (cam1_pos - pts).T, (cam2_pos - pts).T
        facing1 = (ox * ax + oy * ay) + oz * az
        facing2 = (ox * bx + oy * by) + oz * bz
        _split(facing1 >= facing2, pts, rgb, labels)

    fw = scenario.foliage_window
    nf = scenario.foliage_points
    fol_pts = rng.uniform([fw.x_min, fw.y_min, fw.z_min],
                          [fw.x_max, fw.y_max, fw.z_max], size=(nf, 3))
    fol_rgb = _colored(nf, colors.foliage_base, colors.foliage_jitter)
    fol_labels = np.full(nf, LABEL_FOLIAGE, dtype=np.int32)
    _split(rng.integers(0, 2, size=nf) == 0, fol_pts, fol_rgb, fol_labels)

    pal = scenario.palette
    c = np.asarray(pal.center)
    half = np.asarray(pal.size) / 2.0
    pal_pts = rng.uniform(c - half, c + half, size=(pal.points, 3))
    pal_rgb = _colored(pal.points, colors.berry_base, colors.palette_jitter)
    pal_labels = np.full(pal.points, LABEL_PALETTE, dtype=np.int32)
    parts1.append((pal_pts, pal_rgb, pal_labels))
    parts2.append((pal_pts, pal_rgb, pal_labels))

    def _assemble(parts, frame, pose):
        xyz, rgb, labels = (np.concatenate(p) for p in zip(*parts))
        return PointCloud(pose.inverse().apply(xyz), rgb, frame), labels

    cloud1, labels1 = _assemble(parts1, CAMERA_1_FRAME, scenario.camera_1)
    cloud2, labels2 = _assemble(parts2, CAMERA_2_FRAME, scenario.camera_2)

    diameters = np.array([s.diameter_m for s in scenario.berries])
    stem_bottom = centers[:, 2] + _ELONGATION * diameters / 2.0
    stem_lengths = np.array([s.stem_length_m for s in scenario.berries])
    toughness = np.array([
        s.toughness if s.toughness is not None else scenario.laser.toughness
        for s in scenario.berries])

    return cloud1, cloud2, SceneTruth(
        berry_centers=centers,
        berry_diameters_m=diameters,
        stem_diameters_mm=stem_diameters,
        stem_bottom_z=stem_bottom,
        stem_top_z=stem_bottom + stem_lengths,
        toughness=toughness,
        labels_cam1=labels1,
        labels_cam2=labels2,
    )
