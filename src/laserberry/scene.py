"""Synthetic scene generation with per-point ground truth.

Scenes are drawn from a counter-based Philox generator keyed by the
scenario seed, so output is bit-identical across runs and platforms. Draw
order is fixed: stem diameters for all berries, then per berry its surface
directions and colors, then foliage positions / colors / camera
assignment, then palette positions and colors. Berries go in groups of about
``_COLOR_CHUNK`` rows: each draws into the group's buffers in turn, then the
group is shaped and split as one block. Jitter is drawn in chunks (same draws,
same order) and clipped once per part, each part freed once used: the peak is
the foliage positions plus the outputs, 17.7 MB for perf_300k's 9.3 MB.

Each berry is a slightly prolate ellipsoid sampled on its surface; berry
and foliage points are partitioned between the two cameras by which camera
each point faces, while the palette patch is fully visible to both (it
calibrates each camera independently).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import CAMERA_1_FRAME, CAMERA_2_FRAME, PointCloud

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario

#: Ground-truth label values for non-berry points.
LABEL_FOLIAGE = -1
LABEL_PALETTE = -2

#: Ratio of the vertical semi-axis to the equatorial one.
_ELONGATION = 1.15

#: Stem diameters are drawn uniformly from this band (mm) when unspecified.
STEM_DIAMETER_RANGE_MM = (2.0, 2.4)

#: Rows of color jitter one ``integers`` call draws; base plus jitter fits int16.
_COLOR_CHUNK = 1 << 14


@dataclass(frozen=True, eq=False)
class SceneTruth:
    """Generator-side ground truth for a synthetic scene."""

    berry_centers: np.ndarray        # (B, 3) m
    berry_diameters_m: np.ndarray    # (B,)
    stem_diameters_mm: np.ndarray    # (B,)
    stem_bottom_z: np.ndarray        # (B,) m, berry top
    stem_top_z: np.ndarray           # (B,) m
    toughness: np.ndarray            # (B,)
    labels_cam1: np.ndarray          # per-point: berry index, -1 foliage, -2 palette
    labels_cam2: np.ndarray


def generate_scene(scenario: Scenario) -> tuple[PointCloud, PointCloud, SceneTruth]:
    """Synthesize the two camera clouds and their ground truth."""
    rng = np.random.Generator(np.random.Philox(scenario.seed))
    colors = scenario.colors

    nb = len(scenario.berries)
    drawn_stems = rng.uniform(*STEM_DIAMETER_RANGE_MM, size=nb)
    stem_diameters = np.array([
        spec.stem_diameter_mm if spec.stem_diameter_mm is not None else drawn_stems[i]
        for i, spec in enumerate(scenario.berries)])

    parts1: list[tuple] = []        # xyz, rgb, a label per run of rows, rows per run
    parts2: list[tuple] = []

    def _split(to_cam1: np.ndarray, pts: np.ndarray, rgb: np.ndarray, labels) -> None:
        """Append each camera's rows of ``labels``' equal runs; take() on row
        indices gathers (n, 3) rows faster than a boolean mask does."""
        for parts, mask in ((parts1, to_cam1), (parts2, ~to_cam1)):
            rows = np.flatnonzero(mask)
            counts = np.count_nonzero(mask.reshape(len(labels), -1), axis=1)
            parts.append((pts.take(rows, axis=0), rgb.take(rows, axis=0), labels, counts))

    def _jitter(rows: int, jitter: int) -> np.ndarray:
        """``rows`` rows of int16 color jitter, one ``integers`` call per ``_COLOR_CHUNK``."""
        jit = np.empty((rows, 3), np.int16)
        for chunk in (jit[s:s + _COLOR_CHUNK] for s in range(0, rows, _COLOR_CHUNK)):
            chunk[:] = rng.integers(-jitter, jitter + 1, size=chunk.shape)
        return jit

    def _colored(jit: np.ndarray, base: tuple[int, int, int]) -> np.ndarray:
        return np.clip(np.add(jit, base, out=jit), 0, 255, out=jit).astype(np.uint8)

    centers = np.array([spec.center for spec in scenario.berries], np.float64).reshape(nb, 3)
    diameters = np.array([s.diameter_m for s in scenario.berries])
    semi = diameters[:, None] / 2.0 * [1.0, 1.0, _ELONGATION]
    n = scenario.berry_points

    def _berries(labels: range) -> None:
        """Draw the berries of ``labels`` in turn, then shape and split them as one block."""
        directions = np.empty((len(labels) * n, 3))
        rgb = np.empty(directions.shape, np.int16)      # the jitter, then the colors
        for j in range(0, len(rgb), n):
            rng.standard_normal(out=directions[j:j + n])
            rgb[j:j + n] = _jitter(n, colors.berry_jitter)
        rgb = _colored(rgb, colors.berry_base)
        x, y, z = directions.T                          # np.linalg.norm's left-to-right sum
        directions /= np.maximum(np.sqrt((x * x + y * y) + z * z), 1e-12)[:, None]
        center = np.repeat(centers[labels], n, axis=0)  # per row: numpy is slow to
        pts = np.repeat(semi[labels], n, axis=0) * directions  # broadcast a (3,) operand
        pts += center
        # outward . (camera - pts), summed left to right whatever numpy's SIMD kernels
        (ox, oy, oz), (px, py, pz) = np.subtract(pts, center, out=directions).T, pts.T
        facing1, facing2 = ((ox * (cx - px) + oy * (cy - py)) + oz * (cz - pz)
                            for cx, cy, cz in (scenario.camera_1.translation,
                                               scenario.camera_2.translation))
        _split(facing1 >= facing2, pts, rgb, labels)

    group = max(1, _COLOR_CHUNK // n)                   # whole berries, about a chunk of rows
    for g in range(0, nb, group):
        _berries(range(g, min(g + group, nb)))

    fw = scenario.foliage_window
    nf = scenario.foliage_points
    fol_pts = rng.uniform([fw.x_min, fw.y_min, fw.z_min],
                          [fw.x_max, fw.y_max, fw.z_max], size=(nf, 3))
    fol_rgb = _colored(_jitter(nf, colors.foliage_jitter), colors.foliage_base)
    _split(rng.integers(0, 2, size=nf) == 0, fol_pts, fol_rgb, [LABEL_FOLIAGE])
    del fol_pts, fol_rgb

    pal = scenario.palette
    c = np.asarray(pal.center)
    half = np.asarray(pal.size) / 2.0
    pal_pts = rng.uniform(c - half, c + half, size=(pal.points, 3))
    pal_rgb = _colored(_jitter(pal.points, colors.palette_jitter), colors.berry_base)
    parts1.append((pal_pts, pal_rgb, [LABEL_PALETTE], [pal.points]))
    parts2.append((pal_pts, pal_rgb, [LABEL_PALETTE], [pal.points]))

    def _assemble(parts, frame, pose):
        xyz, rgb, labels, counts = zip(*parts)      # xyz and rgb joined column-major
        xyz, rgb = (np.concatenate(a, out=np.empty((sum(map(len, a)), 3), a[0].dtype, order="F"))
                    for a in (xyz, rgb))
        labels = np.repeat(np.concatenate(labels).astype(np.int32), np.concatenate(counts))
        parts.clear()                                 # before the transform allocates
        return PointCloud(pose.inverse().apply(xyz), rgb, frame), labels

    cloud1, labels1 = _assemble(parts1, CAMERA_1_FRAME, scenario.camera_1)
    cloud2, labels2 = _assemble(parts2, CAMERA_2_FRAME, scenario.camera_2)

    stem_bottom = centers[:, 2] + _ELONGATION * diameters / 2.0
    stem_lengths = np.array([s.stem_length_m for s in scenario.berries])
    toughness = np.array([
        s.toughness if s.toughness is not None else scenario.laser.toughness
        for s in scenario.berries])

    truth = SceneTruth(
        berry_centers=centers,
        berry_diameters_m=diameters,
        stem_diameters_mm=stem_diameters,
        stem_bottom_z=stem_bottom,
        stem_top_z=stem_bottom + stem_lengths,
        toughness=toughness,
        labels_cam1=labels1,
        labels_cam2=labels2,
    )
    return cloud1, cloud2, truth


def apply_color_gain(cloud: PointCloud, gain: float) -> PointCloud:
    """Scale every channel by ``gain`` (rounded, clipped to 8 bits)."""
    return PointCloud(cloud.xyz, np.clip(np.rint(cloud.rgb * float(gain)), 0, 255), cloud.frame)


@dataclass
class FruitBody:
    """Mutable physical fruit used by the harvest simulation.

    The stem hangs the fruit from directly above its centroid; capture by
    the trapper snaps the stem onto the groove center, severing detaches
    the body, and its fall is a tick rule of ``gantry``.
    """

    uid: int
    x: float
    y: float
    z: float
    stem_x: float
    stem_y: float
    stem_diameter_mm: float
    toughness: float
    prev_z: float = 0.0
    fall_velocity: float = 0.0      # m/s, downward positive
    attached: bool = True
    attempted: bool = False
    landed: bool = False

    def __post_init__(self):
        self.prev_z = self.z

    @property
    def center(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def snap_to(self, x: float, y: float) -> None:
        """Funnel the stem (and the hanging fruit) onto the groove center."""
        self.x = self.stem_x = x
        self.y = self.stem_y = y


def make_world(truth: SceneTruth) -> list[FruitBody]:
    """Instantiate fruit bodies from scene ground truth."""
    return [FruitBody(uid=i, x=x, y=y, z=z, stem_x=x, stem_y=y, stem_diameter_mm=d, toughness=k)
            for i, ((x, y, z), d, k) in enumerate(zip(truth.berry_centers.tolist(),
                                                      truth.stem_diameters_mm.tolist(),
                                                      truth.toughness.tolist()))]
