"""Fruit localization from a pair of registered RGB-D point clouds.

Each camera cloud is calibrated against a palette patch visible to both
cameras and reduced to the points near that reference color inside the
scene volume; the survivors of both cameras, merged in the gantry base
frame, are clustered per fruit by an exact voxel-grid union in two reaches
(see :func:`euclidean_clusters`) and ranked along the picking axis. One sort
by cluster label, then row, makes each cluster a run of contiguous coordinate
rows, and :func:`localize` boxes the runs straight from those rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationError, ValidationError, require
from .geometry import Aabb, BASE_FRAME, PointCloud, RigidTransform, _gather, _readonly


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
        require("finite", **vars(self))
        for axis in ("x", "y", "z"):
            lo = getattr(self, f"{axis}_min")
            hi = getattr(self, f"{axis}_max")
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
        require("positive and finite", r_th=self.r_th, g_th=self.g_th, b_th=self.b_th)

    @property
    def mean(self) -> np.ndarray:
        return np.array([self.mean_r, self.mean_g, self.mean_b])

    @property
    def thresholds(self) -> np.ndarray:
        return np.array([self.r_th, self.g_th, self.b_th])

    def rows(self, rgb: np.ndarray) -> np.ndarray:
        """Ascending row indices of colors within the half-width on every channel.

        A channel value ``v`` passes when ``|v - mean| < threshold``, tabulated once
        for the 256 values. ``|v - mean|`` rounds monotonically on either side of the
        mean, so the ``n`` passing values of a channel are ``lo .. lo + n - 1``: one
        wrapped uint8 compare, red on every row, green and blue on the rows red
        passes (red rejects most of a cluttered frame).
        """
        table = np.abs(np.arange(256.0)[:, None] - self.mean) < self.thresholds
        lo, top = table.argmax(axis=0).tolist(), (table.sum(axis=0) - 1).tolist()  # none: -1
        r, g, b = rgb.T
        rows = np.flatnonzero(np.subtract(r, lo[0], dtype=np.uint8) <= top[0])
        return rows[(np.subtract(g[rows], lo[1], dtype=np.uint8) <= top[1])
                    & (np.subtract(b[rows], lo[2], dtype=np.uint8) <= top[2])]


def calibration_reference(palette_cloud: PointCloud, r_th: float, g_th: float,
                          b_th: float) -> ColorReference:
    """Average the palette patch color to obtain the acceptance reference.

    Raises
    ------
    CalibrationError
        If the palette cloud is empty (patch not visible to the camera).
    """
    return _palette_reference(palette_cloud.rgb, r_th, g_th, b_th)


def _palette_reference(rgb, r_th, g_th, b_th) -> ColorReference:
    """:func:`calibration_reference` from the palette colors ``rgb`` alone."""
    if len(rgb) == 0:
        raise CalibrationError("palette patch not visible: empty calibration cloud")
    mean = rgb.T @ np.ones(len(rgb)) / len(rgb)   # integer sums under 2**53: exact in any order
    return ColorReference(*mean, r_th, g_th, b_th)


def filter_red(cloud: PointCloud, ref: ColorReference) -> PointCloud:
    """Keep points whose color deviates from the reference by strictly less
    than the per-channel threshold on every channel."""
    return cloud.select(ref.rows(cloud.rgb))


def merge_clouds(a: PointCloud, b: PointCloud) -> PointCloud:
    """Concatenate two clouds expressed in the same frame (a first)."""
    if a.frame != b.frame:
        raise ValidationError(f"cannot merge clouds in frames {a.frame!r} and {b.frame!r}")
    return PointCloud(np.vstack([a.xyz, b.xyz]), np.vstack([a.rgb, b.rgb]), a.frame)


@dataclass(frozen=True)
class ClusterParams:
    """Distance tolerance and size band for Euclidean clustering."""

    tolerance: float = 0.010   # m, neighbor linkage distance
    min_size: int = 40
    max_size: int = 50000

    def __post_init__(self):
        require("positive and finite", tolerance=self.tolerance)
        require("positive", min_size=self.min_size)
        if not self.min_size <= self.max_size:
            raise ValidationError(f"max_size must be at least min_size = {self.min_size}, "
                                  f"got {self.max_size}")


#: Grid cell side over the tolerance: a hair under 1/sqrt(3), so two points
#: binned into one cell are within the tolerance even after the rounding
#: of the binning arithmetic.
_CELL_SIDE = (1.0 - 2.0 ** -20) / math.sqrt(3.0)
#: A linked pair's cells lie at most _REACH apart per axis. Forward cells up to r
#: apart fill (x, y) columns (dx, dy, first dz) of sorted keys up to dz = r (z is
#: the fastest, padded key axis): 5 columns for r = 1, 13 for r = 2.
_REACH = 2
_COLUMNS = {r: np.array([(0, 0, 1)] + [(dx, dy, -r) for dx, dy in itertools.product(
    range(-r, r + 1), repeat=2) if (dx, dy) > (0, 0)], dtype=np.int64) for r in (1, _REACH)}
#: Cells per axis, padding included, stay below this so that the packed
#: cell key fits an int64 and binning rounding stays far below the margin in
#: ``_CELL_SIDE``; wider clouds are cut into overlapping slabs (``_component_labels``).
_MAX_CELLS = 2 ** 21
#: Cells whose candidate neighbours are looked up at once, and point pairs
#: tested at once when cell pairs are checked exhaustively: both bound the
#: memory a large cloud needs.
_CELL_BLOCK = 2 ** 12
_PAIR_CHUNK = 2 ** 17
_BOX_GATE = 64     # components whose cell boxes _touching compares pairwise


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component labels of ``n`` nodes joined by edges ``a``-``b``, numbered by lowest
    node: each round hooks every edge's higher root to its lower, then jumps to roots."""
    root = np.arange(n)
    while len(a):
        ra, rb = root[a], root[b]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        a, b = a[ra != rb], b[ra != rb]
        while (root[root] != root).any():
            root = root[root]
    return (np.cumsum(root == np.arange(n)) - 1)[root]


def _within(cols, i: np.ndarray, j: np.ndarray, tol: float) -> np.ndarray:
    # x, y, z added left to right, as ((p - q)**2).sum(1) adds them
    return sum((c[i] - c[j]) ** 2 for c in cols) <= tol * tol


def _any_pair_within(cols, start, count, a, b, tol) -> np.ndarray:
    """For each cell pair ``(a[k], b[k])``, whether any point of one lies
    within ``tol`` of any point of the other. Cells are runs ``start``,
    ``count`` of ``cols``; point pairs are enumerated ``_PAIR_CHUNK`` at a
    time so memory stays bounded however many there are."""
    width = count[b]
    total = count[a] * width
    ends = np.cumsum(total)
    linked = np.zeros(len(a), dtype=bool)
    for lo in range(0, int(ends[-1]), _PAIR_CHUNK):
        g = np.arange(lo, min(lo + _PAIR_CHUNK, int(ends[-1])))
        k = np.searchsorted(ends, g, side="right")
        r = g - (ends[k] - total[k])
        near = _within(cols, start[a[k]] + r // width[k], start[b[k]] + r % width[k], tol)
        linked[k[near]] = True
    return linked


def _cell_pairs(cells: np.ndarray, stride: np.ndarray, reach: int):
    """Forward pairs ``(a, b)`` of the sorted keys ``cells`` at most ``reach`` apart
    per axis, ``_CELL_BLOCK`` cells ``a`` at a time: two searches a column, needles ascending."""
    dxy, dz = _COLUMNS[reach][:, :2] @ stride[:2], _COLUMNS[reach][:, 2]  # exact in any order
    for block in range(0, len(cells), _CELL_BLOCK):
        here = cells[block:block + _CELL_BLOCK] + dxy[:, None]
        first = np.searchsorted(cells, here + dz[:, None]).ravel()
        width = np.searchsorted(cells, here + reach, side="right").ravel() - first
        a = block + np.repeat(np.arange(width.size) % here.shape[1], width)
        yield a, np.arange(len(a)) + np.repeat(first - (np.cumsum(width) - width), width)


def _touching(q: np.ndarray, comp: np.ndarray, stride: np.ndarray) -> np.ndarray:
    """Ascending indices of the sorted cells (grid coordinates ``q``) where two of the
    components ``comp`` can meet. None if no two lie within two cells: of 2 to
    ``_BOX_GATE`` components, their cell boxes on every axis, else their cells along x.
    Otherwise the cells of each 2x2x2-cell block beside a block of another component."""
    k = comp.max() + 1
    if k == 1:
        return comp[:0]
    if k > _BOX_GATE:
        changes = np.cumsum(np.concatenate(([0], comp[1:] != comp[:-1])))
        if (changes[np.searchsorted(q[0], q[0] + 2, side="right") - 1] == changes).all():
            return comp[:0]
    else:
        lo, hi = np.full((3, k), _MAX_CELLS), np.zeros((3, k), dtype=np.int64)
        for axis in range(3):
            np.minimum.at(lo[axis], comp, q[axis])
            np.maximum.at(hi[axis], comp, q[axis])
        near = (lo[:, :, None] <= hi[:, None] + 2).all(axis=0)
        if (near & near.T).sum() == k:      # only the diagonal
            return comp[:0]
    key = stride @ (q // 2)     # exact in any order; the padding keeps neighbours on the grid
    order = np.argsort(key)
    key = key[order]
    start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    low, high = (f.reduceat(comp[order], start) for f in (np.minimum, np.maximum))
    meet = low < high
    for a, b in _cell_pairs(key[start], stride, 1):
        apart = np.minimum(low[a], low[b]) < np.maximum(high[a], high[b])
        meet[a[apart]] = meet[b[apart]] = True
    return np.sort(order[np.repeat(meet, np.diff(start, append=len(key)))])


def _grid_labels(xyz: np.ndarray, tol: float) -> np.ndarray | None:
    """Component label of each point, or None when the grid would not fit.

    Points are binned into cells of side just under ``tol / sqrt(3)``, so the
    points of one cell are linked without a distance test and a linked pair's
    cells lie at most two apart per axis. Reach 1 tests one representative pair
    (each cell's first point) per cell pair one apart and labels the cell
    components. Reach 2, on the cells :func:`_touching` finds, tests that pair
    for cell pairs up to two apart in different components, then every point pair
    where it did not decide (unless both cells hold one point), and relabels.
    """
    cols = xyz.T     # (3, n): numpy reduces (n, 3) along axis 0 one 3-wide row at a time
    lo = cols.min(axis=1)
    side = tol * _CELL_SIDE
    with np.errstate(over="ignore"):
        extent = (cols.max(axis=1) - lo) / side
    if not (extent < _MAX_CELLS - 2 * _REACH - 1).all():
        return None
    dims = extent.astype(np.int64) + 2 * _REACH + 1
    stride = np.array([dims[1] * dims[2], dims[2], 1])
    q = ((cols - lo[:, None]) / side).astype(np.int64) + _REACH
    key = q[0] * stride[0] + q[1] * stride[1] + q[2]
    order = np.argsort(key)     # labels depend only on the cell order, not on ties
    key = key[order]
    start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    cells, count = key[start], np.diff(start, append=len(key))
    q, rep = q[:, order[start]], cols[:, order[start]]  # only these outlive the sort
    linked = [(a[near], b[near]) for a, b in _cell_pairs(cells, stride, 1)
              for near in [_within(rep, a, b, tol)]]
    comp = _components(len(cells), *map(np.concatenate, zip(*linked)))
    touching = _touching(q, comp, stride)
    if len(touching):
        pairs = []
        for a, b in _cell_pairs(cells[touching], stride, _REACH):
            a, b = touching[a], touching[b]
            pairs.append((a[comp[a] != comp[b]], b[comp[a] != comp[b]]))
        a, b = map(np.concatenate, zip(*pairs))
        near = _within(rep, a, b, tol)
        comp = _components(comp.max() + 1, comp[a[near]], comp[b[near]])[comp]
        far = ~near & (count[a] * count[b] > 1) & (comp[a] != comp[b])
        if far.any():
            second = _any_pair_within(cols[:, order], start, count, a[far], b[far], tol)
            comp = _components(comp.max() + 1, comp[a[far][second]], comp[b[far][second]])[comp]
    labels = np.empty(len(xyz), dtype=np.int64)
    labels[order] = np.repeat(comp, count)
    return labels


def _component_labels(xyz: np.ndarray, tol: float) -> np.ndarray:
    """Component label of each point of the proximity graph.

    A cloud too wide for one grid is sorted along its widest axis and cut
    into slabs of at most ``_MAX_CELLS // 2`` cells. Each slab starts at a
    point and overlaps the one before by ``2 * tol``, so some slab holds
    both points of every linked pair. Each slab is labelled on its own (cut
    again along another axis if that one is still too wide), and the two
    labels of every point that lies in two slabs are joined.
    """
    if tol * tol == math.inf or len(xyz) < 2:    # with tol * tol = inf the rule links every pair
        return np.zeros(len(xyz), dtype=np.int64)
    labels = _grid_labels(xyz, tol)
    if labels is not None:
        return labels
    with np.errstate(over="ignore"):
        axis = int(np.ptp(xyz, axis=0).argmax())
    order = np.argsort(xyz[:, axis], kind="stable")
    v = xyz[:, axis][order]
    width = _MAX_CELLS // 2 * tol * _CELL_SIDE
    node = np.empty(len(v), dtype=np.int64)    # label of each point in the last slab holding it
    edges, found, at, end = [], 0, 0, 0
    while end < len(v):
        hi = v[at] + width
        if hi - v[at] > width:          # rounded up: the slab would be too wide
            hi = np.nextafter(hi, -np.inf)
        top = int(np.searchsorted(v, hi, "right"))
        sub = _component_labels(*_gather(order[at:top], xyz), tol) + found
        edges.append((node[at:end].copy(), sub[:end - at]))
        node[at:top] = sub
        found, end = int(sub.max()) + 1, top
        # the next slab starts within 2 * tol of hi, or past hi where floats are over tol apart
        nxt = int(np.searchsorted(v, hi - 2 * tol))
        at = nxt if nxt > at else end
    return _components(found, *map(np.concatenate, zip(*edges)))[node][np.argsort(order)]


def _run_boxes(cols: np.ndarray, start: np.ndarray, size: np.ndarray):
    """Bounds, and the mean clipped into them as the centroid, of each run
    ``start``, ``size`` (none empty) of the rows ``cols`` (3, n); one row per run."""
    lo, hi = (f.reduceat(cols, start, axis=1).T for f in (np.minimum, np.maximum))
    mean = np.add.reduceat(cols, start, axis=1).T / size[:, None]
    return lo, hi, np.clip(mean, lo, hi)


def _pick_runs(xyz: np.ndarray, params: ClusterParams):
    """The bounds and centroids of each label's run (:func:`_run_boxes`), its
    ``size``, the labels in the size band in pick order (ascending centroid y,
    then x, then first point index), and the one sort by label, then row: its
    ``order`` and each run's ``start`` in it."""
    labels = _component_labels(xyz, params.tolerance)
    size = np.bincount(labels)
    order = np.argsort(labels, kind="stable")
    start = np.cumsum(size) - size
    boxes = _run_boxes(xyz.T.take(order, axis=1), start, size)
    keep = np.flatnonzero((size >= params.min_size) & (size <= params.max_size))
    centroid = boxes[2][keep]
    ranked = keep[np.lexsort((order[start[keep]], centroid[:, 0], centroid[:, 1]))]
    return boxes, size, ranked, order, start


def euclidean_clusters(cloud: PointCloud, params: ClusterParams) -> list[PointCloud]:
    """Group points into connected components of the proximity graph.

    Two points are linked when ``sum((p - q)**2) <= tolerance**2``;
    components outside the size band are discarded. Clusters are returned
    sorted by ascending centroid y (ties broken by centroid x, then by the
    first point's index), with each cluster's points in their original
    order; the centroid is the one :func:`bounding_boxes` reports.

    Components come from an exact voxel-grid union (the grid form of
    Euclidean cluster extraction) in two reaches: cells one apart first,
    then cells two apart only in the 2x2x2-cell blocks where two components
    meet. A cloud spanning more than about two million cells along an axis
    (points near +-1e300, say) is cut along it into overlapping slabs, each
    labelled on its own grid, and the labels are joined.
    """
    _, size, ranked, order, start = _pick_runs(cloud.xyz, params)
    return [cloud.select(order[start[k]:start[k] + size[k]]) for k in ranked]


@dataclass(frozen=True, eq=False)
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
        require("positive", point_count=self.point_count)
        object.__setattr__(self, "centroid", _readonly(c))


def _unchecked(cls, **fields):
    """``cls(**fields)`` for a frozen dataclass, without ``__post_init__``."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _berry_boxes(boxes, size, ranked) -> list[BerryBox]:
    """Boxes of the runs ``ranked`` (in rank order) from their :func:`_run_boxes`
    and sizes; on finite points no ``Aabb`` or ``BerryBox`` check can fail."""
    lo, hi, centroid = (_readonly(a[ranked]) for a in boxes)
    return [_unchecked(BerryBox, box=_unchecked(Aabb, min=lo[i], max=hi[i]),
                       centroid=centroid[i], point_count=int(m), rank=i)
            for i, m in enumerate(size[ranked].tolist())]


def bounding_boxes(clusters: list[PointCloud]) -> list[BerryBox]:
    """Box each cluster by the rule of :func:`localize`: its bounds, and its
    mean clipped into them as the centroid. Ranks follow the given (pick)
    order. An empty cluster raises :class:`ValidationError`."""
    size = np.array([len(c) for c in clusters], dtype=np.int64)
    if not size.all():
        raise ValidationError("cannot bound an empty point set")
    cols = np.concatenate([c.xyz.T for c in clusters] or [np.empty((3, 0))], axis=1)
    boxes = _run_boxes(cols, np.cumsum(size) - size, size)
    return _berry_boxes(boxes, size, np.arange(len(size)))


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
    cluster: ClusterParams = field(default_factory=ClusterParams)

    def __post_init__(self):
        require("positive and finite", r_th=self.r_th, g_th=self.g_th, b_th=self.b_th)


def _rows_inside(window: SpatialWindow, pose: RigidTransform,
                 xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending rows of ``xyz`` that ``pose`` maps inside ``window``, and their
    images. Only candidates in the box of the window's corners mapped back
    through the inverse pose are transformed; the box is widened far beyond
    the rounding of either transform, which grows with the magnitudes."""
    w = window
    corners = np.array(list(itertools.product((w.x_min, w.x_max), (w.y_min, w.y_max),
                                              (w.z_min, w.z_max))))
    back = (corners - pose.translation) @ pose.rotation  # the inverse; the pad covers its rounding
    pad = 1e-6 * (1.0 + np.abs(corners).max() + np.abs(pose.translation).max())
    lo, hi = back.min(axis=0) - pad, back.max(axis=0) + pad
    rows = np.flatnonzero((xyz[:, 0] >= lo[0]) & (xyz[:, 0] <= hi[0]))
    for axis in (1, 2):
        v = xyz[:, axis][rows]
        rows = rows[(v >= lo[axis]) & (v <= hi[axis])]
    base = pose.apply(*_gather(rows, xyz))   # ~3x faster than xyz[rows]
    inside = window.mask(base)
    return rows[inside], base[inside]


def _fruit_rows(cloud_1: PointCloud, cloud_2: PointCloud, t_base_cam1: RigidTransform,
                t_base_cam2: RigidTransform, config: LocalizationConfig):
    """Base-frame coordinates of both cameras' fruit points (camera 1 first),
    and the rows of each camera's cloud they come from."""
    xyz_parts, row_parts = [], []
    for cloud, pose in ((cloud_1, t_base_cam1), (cloud_2, t_base_cam2)):
        rows, _ = _rows_inside(config.palette_window, pose, cloud.xyz)
        ref = _palette_reference(*_gather(rows, cloud.rgb), config.r_th, config.g_th, config.b_th)
        rows = ref.rows(cloud.rgb)
        xyz = pose.apply(*_gather(rows, cloud.xyz))
        inside = np.flatnonzero(config.reduced_window.mask(xyz) & ~config.palette_window.mask(xyz))
        xyz_parts.append(xyz.T.take(inside, axis=1))
        row_parts.append(rows[inside])
    return np.concatenate(xyz_parts, axis=1).T, row_parts


def localize_clusters(cloud_1: PointCloud, cloud_2: PointCloud,
                      t_base_cam1: RigidTransform, t_base_cam2: RigidTransform,
                      config: LocalizationConfig = LocalizationConfig()) -> list[PointCloud]:
    """Per-fruit point clusters from a pair of camera clouds.

    Per camera, the rows inside the palette window (found without
    transforming the whole cloud) give the color calibration; the rows
    that pass the color test are then re-expressed in the base frame and
    kept if inside the reduced scene volume and outside the palette window,
    so the patch is never reported as a fruit. The kept rows of both
    cameras (camera 1 first) form one merged cloud, which is clustered.
    :meth:`RigidTransform.apply` transforms each row on its own, so when
    the two windows are disjoint the result equals :func:`extract_window`,
    :func:`filter_red` and :func:`merge_clouds` chained, without building
    the intermediate clouds.

    Raises
    ------
    CalibrationError
        If either camera sees no palette points.
    """
    xyz, rows = _fruit_rows(cloud_1, cloud_2, t_base_cam1, t_base_cam2, config)
    rgb = np.concatenate([c.rgb.T.take(r, axis=1) for c, r in zip((cloud_1, cloud_2), rows)], 1).T
    return euclidean_clusters(PointCloud(xyz, rgb, BASE_FRAME), config.cluster)


def localize(cloud_1: PointCloud, cloud_2: PointCloud,
             t_base_cam1: RigidTransform, t_base_cam2: RigidTransform,
             config: LocalizationConfig = LocalizationConfig()) -> list[BerryBox]:
    """Locate fruit in a pair of camera clouds.

    Equals ``bounding_boxes(localize_clusters(...))`` field for field, but
    boxes the label runs of the merged points with no cloud per cluster.
    Boxes rank by ascending centroid y, then x, then the cluster's first
    point; the centroid is the cluster mean clipped into its bounds.
    """
    xyz, _ = _fruit_rows(cloud_1, cloud_2, t_base_cam1, t_base_cam2, config)
    return _berry_boxes(*_pick_runs(xyz, config.cluster)[:3])
