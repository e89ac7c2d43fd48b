"""Fruit localization from a pair of registered RGB-D point clouds.

The pipeline restricts each camera cloud to the scene volume, calibrates a
reference color from a palette patch visible to both cameras, keeps only
points near that reference, merges the survivors in the gantry base frame,
and groups them into per-fruit clusters ordered along the picking axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import CalibrationError, ValidationError, require_positive
from .geometry import Aabb, BASE_FRAME, KdTree, PointCloud, RigidTransform, transform_cloud


@dataclass(frozen=True)
class SpatialWindow:
    """An open axis-aligned crop volume.

    Bounds may be given in either order per axis; they are normalized so
    that ``*_min < *_max``. Containment is strict on all six faces, so a
    degenerate window (min equal to max) is empty.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float

    def __post_init__(self):
        for axis in ("x", "y", "z"):
            lo = getattr(self, f"{axis}_min")
            hi = getattr(self, f"{axis}_max")
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValidationError("window bounds must be finite")
            if lo > hi:
                object.__setattr__(self, f"{axis}_min", hi)
                object.__setattr__(self, f"{axis}_max", lo)

    def mask(self, xyz: np.ndarray) -> np.ndarray:
        """Boolean mask of points strictly inside the window."""
        x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
        return ((x > self.x_min) & (x < self.x_max)
                & (y > self.y_min) & (y < self.y_max)
                & (z > self.z_min) & (z < self.z_max))


def extract_window(cloud: PointCloud, window: SpatialWindow) -> PointCloud:
    """Keep the points strictly inside ``window``, preserving order."""
    if len(cloud) == 0:
        return cloud
    return cloud.select(window.mask(cloud.xyz))


@dataclass(frozen=True)
class ColorReference:
    """Per-channel reference color and acceptance half-widths."""

    mean_r: float
    mean_g: float
    mean_b: float
    r_th: float
    g_th: float
    b_th: float

    def __post_init__(self):
        require_positive(r_th=self.r_th, g_th=self.g_th, b_th=self.b_th)

    @property
    def mean(self) -> np.ndarray:
        return np.array([self.mean_r, self.mean_g, self.mean_b])

    @property
    def thresholds(self) -> np.ndarray:
        return np.array([self.r_th, self.g_th, self.b_th])


def calibration_reference(palette_cloud: PointCloud, r_th: float, g_th: float,
                          b_th: float) -> ColorReference:
    """Average the palette patch color to obtain the acceptance reference.

    Raises
    ------
    CalibrationError
        If the palette cloud is empty (patch not visible to the camera).
    """
    if len(palette_cloud) == 0:
        raise CalibrationError("palette patch not visible: empty calibration cloud")
    mean = palette_cloud.rgb.astype(np.float64).mean(axis=0)
    return ColorReference(mean[0], mean[1], mean[2], r_th, g_th, b_th)


def filter_red(cloud: PointCloud, ref: ColorReference) -> PointCloud:
    """Keep points whose color deviates from the reference by strictly less
    than the per-channel threshold on every channel."""
    if len(cloud) == 0:
        return cloud
    delta = np.abs(cloud.rgb.astype(np.float64) - ref.mean)
    return cloud.select((delta < ref.thresholds).all(axis=1))


def merge_clouds(a: PointCloud, b: PointCloud) -> PointCloud:
    """Concatenate two clouds expressed in the same frame (a first)."""
    if a.frame != b.frame:
        raise ValidationError(f"cannot merge clouds in frames {a.frame!r} and {b.frame!r}")
    return PointCloud(np.vstack([a.xyz, b.xyz]), np.vstack([a.rgb, b.rgb]), a.frame)


@dataclass(frozen=True)
class ClusterParams:
    """Distance tolerance and size band for Euclidean clustering."""

    tolerance: float   # m, neighbor linkage distance
    min_size: int
    max_size: int

    def __post_init__(self):
        require_positive(tolerance=self.tolerance)
        if not (0 < self.min_size <= self.max_size):
            raise ValidationError("cluster size band must satisfy 0 < min <= max")


def euclidean_clusters(cloud: PointCloud, params: ClusterParams) -> list[PointCloud]:
    """Group points into connected components of the proximity graph.

    Two points are linked when their distance is at most ``tolerance``;
    components outside the size band are discarded. Clusters are returned
    sorted by ascending centroid y (ties broken by centroid x), with each
    cluster's points in their original order.
    """
    n = len(cloud)
    if n == 0:
        return []
    pairs = KdTree(cloud.xyz).pairs_within(params.tolerance)
    if len(pairs):
        ones = np.ones(len(pairs), dtype=np.int8)
        adj = coo_matrix((ones, (pairs[:, 0], pairs[:, 1])), shape=(n, n))
        _, labels = connected_components(adj, directed=False)
    else:
        labels = np.arange(n)
    sizes = np.bincount(labels)
    keep = (sizes >= params.min_size) & (sizes <= params.max_size)
    order = np.argsort(labels, kind="stable")
    boundaries = np.searchsorted(labels[order], np.arange(sizes.size))
    clusters = []
    for lab in np.flatnonzero(keep):
        start = boundaries[lab]
        stop = boundaries[lab + 1] if lab + 1 < sizes.size else n
        clusters.append(cloud.select(np.sort(order[start:stop])))
    clusters.sort(key=lambda c: (c.xyz[:, 1].mean(), c.xyz[:, 0].mean()))
    return clusters


@dataclass(frozen=True)
class BerryBox:
    """A localized fruit: bounding box, centroid, and pick order rank."""

    box: Aabb
    centroid: np.ndarray  # (3,)
    point_count: int
    rank: int

    def __post_init__(self):
        c = np.asarray(self.centroid, dtype=np.float64).reshape(-1)
        if c.shape != (3,):
            raise ValidationError("centroid must be a 3-vector")
        if not self.box.contains(c):
            raise ValidationError("centroid lies outside its bounding box")
        if self.point_count <= 0:
            raise ValidationError("point_count must be positive")
        object.__setattr__(self, "centroid", c)


def bounding_boxes(clusters: list[PointCloud]) -> list[BerryBox]:
    """Box each cluster; ranks follow the given (pick) order."""
    boxes = []
    for rank, cluster in enumerate(clusters):
        boxes.append(BerryBox(box=Aabb.of_points(cluster.xyz),
                              centroid=cluster.xyz.mean(axis=0),
                              point_count=len(cluster),
                              rank=rank))
    return boxes


@dataclass(frozen=True)
class LocalizationConfig:
    """Crop volumes, color thresholds, and clustering parameters.

    Defaults reflect the desk-scale workspace: a reduced scene volume in
    front of the cameras, a small palette volume off to the side, 45-count
    color half-widths, 10 mm linkage, and a 40..50000 point size band.
    """

    reduced_window: SpatialWindow = field(
        default_factory=lambda: SpatialWindow(-0.3, 0.3, -0.2, 0.2, 0.5, 0.7))
    palette_window: SpatialWindow = field(
        default_factory=lambda: SpatialWindow(-0.09, -0.07, 0.1, 0.11, 0.3, 0.35))
    r_th: float = 45.0
    g_th: float = 45.0
    b_th: float = 45.0
    cluster: ClusterParams = field(
        default_factory=lambda: ClusterParams(tolerance=0.010, min_size=40, max_size=50000))


def localize_clusters(cloud_1: PointCloud, cloud_2: PointCloud,
                      t_base_cam1: RigidTransform, t_base_cam2: RigidTransform,
                      config: LocalizationConfig | None = None) -> list[PointCloud]:
    """Per-fruit point clusters from a pair of camera clouds.

    Each cloud is re-expressed in the base frame through its camera pose,
    cropped to the reduced scene volume, color-filtered against that
    camera's palette calibration, merged, and clustered.

    Raises
    ------
    CalibrationError
        If either camera sees no palette points.
    """
    cfg = config if config is not None else LocalizationConfig()
    red_parts = []
    for cloud, pose in ((cloud_1, t_base_cam1), (cloud_2, t_base_cam2)):
        base = transform_cloud(pose, cloud, BASE_FRAME)
        palette = extract_window(base, cfg.palette_window)
        ref = calibration_reference(palette, cfg.r_th, cfg.g_th, cfg.b_th)
        scene = extract_window(base, cfg.reduced_window)
        red_parts.append(filter_red(scene, ref))
    merged = merge_clouds(red_parts[0], red_parts[1])
    return euclidean_clusters(merged, cfg.cluster)


def localize(cloud_1: PointCloud, cloud_2: PointCloud,
             t_base_cam1: RigidTransform, t_base_cam2: RigidTransform,
             config: LocalizationConfig | None = None) -> list[BerryBox]:
    """Locate fruit in a pair of camera clouds.

    Runs :func:`localize_clusters` and boxes the result. Returns boxes
    ranked by ascending centroid y (ties by centroid x).
    """
    return bounding_boxes(localize_clusters(cloud_1, cloud_2,
                                            t_base_cam1, t_base_cam2, config))
