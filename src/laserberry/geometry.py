"""Colored point clouds, rigid transforms, boxes, and radius queries.

Coordinates are metric and expressed in named frames; color channels are
8-bit RGB. A record freezes its own views, never its caller's arrays, and a
record that holds arrays compares and hashes by identity. Transforms sum
in a fixed order with elementwise operations, so their results depend on
neither the BLAS, the CPU, the thread count nor the array layout.

:class:`KdTree` answers radius queries from the points sorted by x.
Clustering does not use it: it builds its own voxel grid, and cuts a cloud
too wide for that grid into overlapping slabs (see
:mod:`laserberry.localization`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require

# Canonical frame names used throughout the pipeline.
BASE_FRAME = "harvester-base"
CAMERA_1_FRAME = "camera-1"
CAMERA_2_FRAME = "camera-2"

_ROT_TOL = 1e-9


def _readonly(a: np.ndarray, order: str = "C") -> np.ndarray:
    a = np.asarray(a, order=order).view()   # freeze a view, never the caller's array
    a.setflags(write=False)
    return a


def _gather(rows, *arrays: np.ndarray) -> list[np.ndarray]:
    """Rows of (n, 3) arrays, column-major: one ``take`` a column; masks checked as indexing."""
    rows = np.asarray(rows)
    if rows.dtype == bool and rows.shape != arrays[0].shape[:1]:
        raise IndexError(f"boolean index of shape {rows.shape} for {len(arrays[0])} rows")
    rows = np.flatnonzero(rows) if rows.dtype == bool else rows
    return [a.T.take(rows, axis=1).T for a in arrays]


@dataclass(frozen=True, eq=False)
class PointCloud:
    """An ordered set of colored points in a named frame, stored column-major.

    Parameters
    ----------
    xyz : (n, 3) float64 array
        Metric coordinates, each axis one contiguous column. Must be finite.
    rgb : (n, 3) uint8 array
        Color channels, each one contiguous column, row-aligned with ``xyz``.
    frame : str
        Name of the coordinate frame the points are expressed in.
    """

    xyz: np.ndarray
    rgb: np.ndarray
    frame: str

    def __post_init__(self):
        xyz = np.asarray(self.xyz, dtype=np.float64)
        rgb = np.asarray(self.rgb)
        if xyz.ndim != 2 or xyz.shape[1] != 3:
            raise ValidationError(f"xyz must be (n, 3), got {xyz.shape}")
        if rgb.shape != xyz.shape:
            raise ValidationError(f"rgb shape {rgb.shape} != xyz shape {xyz.shape}")
        if xyz.size and not np.isfinite(xyz).all():
            raise ValidationError("cloud contains non-finite coordinates")
        if rgb.dtype != np.uint8:
            if not ((rgb >= 0) & (rgb <= 255) & (np.trunc(rgb) == rgb)).all():   # NaN fails all
                raise ValidationError("color channels must be whole numbers in [0, 255]")
            rgb = rgb.astype(np.uint8)
        object.__setattr__(self, "xyz", _readonly(xyz, "F"))
        object.__setattr__(self, "rgb", _readonly(rgb, "F"))

    @classmethod
    def empty(cls, frame: str) -> "PointCloud":
        return cls(np.empty((0, 3)), np.empty((0, 3), dtype=np.uint8), frame)

    def __len__(self) -> int:
        return self.xyz.shape[0]

    def select(self, mask_or_indices) -> "PointCloud":
        """Return the sub-cloud at the given boolean mask or index array (:func:`_gather`)."""
        return PointCloud(*_gather(mask_or_indices, self.xyz, self.rgb), self.frame)


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """A proper rigid transform ``p_out = rotation @ p_in + translation``.

    The rotation must be orthonormal with determinant +1 (checked to 1e-9).
    """

    rotation: np.ndarray     # (3, 3)
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64)
        tra = np.asarray(self.translation, dtype=np.float64).reshape(-1)
        if rot.shape != (3, 3):
            raise ValidationError(f"rotation must be (3, 3), got {rot.shape}")
        if tra.shape != (3,):
            raise ValidationError(f"translation must be (3,), got {tra.shape}")
        if not (np.isfinite(rot).all() and np.isfinite(tra).all()):
            raise ValidationError("transform contains non-finite values")
        if np.abs(rot @ rot.T - np.eye(3)).max() > _ROT_TOL:
            raise ValidationError("rotation is not orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > _ROT_TOL:
            raise ValidationError("rotation determinant is not +1 (improper rotation)")
        object.__setattr__(self, "rotation", _readonly(rot))
        object.__setattr__(self, "translation", _readonly(tra))

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_euler_deg(cls, roll: float, pitch: float, yaw: float,
                       translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        """Build from extrinsic x-y-z Euler angles in degrees.

        Roll turns about the fixed base x axis first, then pitch about the
        fixed y axis, then yaw about the fixed z axis (scipy's lower-case
        ``"xyz"``), so the matrix is ``Rz(yaw) @ Ry(pitch) @ Rx(roll)``.
        The arithmetic is scipy's ``Rotation.from_euler(...).as_matrix()``
        step for step, so the matrix equals scipy's bit for bit: each axis
        gives an elementary quaternion, composed onto the earlier ones from
        the left, and the quaternion gives the matrix.
        """
        q = None
        for axis, deg in enumerate((roll, pitch, yaw)):
            half = deg * (math.pi / 180.0) / 2.0
            e = [0.0, 0.0, 0.0, math.cos(half)]
            e[axis] = math.sin(half)
            q = e if q is None else _quat_product(e, q)
        x, y, z, w = q
        x2, y2, z2, w2 = x * x, y * y, z * z, w * w
        xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
        rot = [[x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
               [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
               [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2]]
        return cls(np.array(rot), np.asarray(translation, dtype=np.float64))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform an (n, 3) array of points into a column-major (n, 3) array.

        Column ``i`` is ``((x*r0 + y*r1) + z*r2) + t`` for rotation row ``r`` and translation
        ``t`` number ``i``. So each row depends on that row alone, and on neither the BLAS, the
        CPU, the thread count nor the array layout: ``apply(x[rows])`` is ``apply(x)[rows]``."""
        x, y, z = np.asarray(points, dtype=np.float64).T
        out, term = np.empty((3, len(x))), np.empty(len(x))
        for o, (r0, r1, r2), t in zip(out, self.rotation.tolist(), self.translation.tolist()):
            np.multiply(x, r0, out=o)
            o += np.multiply(y, r1, out=term)
            o += np.multiply(z, r2, out=term)
            o += t
        return out.T

    def inverse(self) -> "RigidTransform":
        rot_t, (x, y, z) = self.rotation.T, self.translation.tolist()  # -(R^T t), apply's order
        return RigidTransform(rot_t, [-((x * a + y * b) + z * c) for a, b, c in rot_t.tolist()])


def _quat_product(p, q) -> tuple[float, float, float, float]:
    """Hamilton product ``p q`` of ``(x, y, z, w)`` quaternions, summed in
    the order scipy's ``compose_quat`` sums it."""
    (px, py, pz, pw), (qx, qy, qz, qw) = p, q
    cx, cy, cz = py * qz - pz * qy, pz * qx - px * qz, px * qy - py * qx
    return (pw * qx + qw * px + cx, pw * qy + qw * py + cy, pw * qz + qw * pz + cz,
            pw * qw - px * qx - py * qy - pz * qz)


def transform_cloud(t: RigidTransform, cloud: PointCloud, target_frame: str) -> PointCloud:
    """Re-express a cloud in ``target_frame`` through ``t``; colors and point order are kept."""
    return PointCloud(t.apply(cloud.xyz), cloud.rgb, target_frame)


@dataclass(frozen=True, eq=False)
class Aabb:
    """Axis-aligned bounding box with inclusive bounds."""

    min: np.ndarray  # (3,)
    max: np.ndarray  # (3,)

    def __post_init__(self):
        lo = np.asarray(self.min, dtype=np.float64).reshape(-1)
        hi = np.asarray(self.max, dtype=np.float64).reshape(-1)
        if lo.shape != (3,) or hi.shape != (3,):
            raise ValidationError("Aabb bounds must be 3-vectors")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValidationError("Aabb bounds must be finite")
        if (lo > hi).any():
            raise ValidationError("Aabb min exceeds max")
        object.__setattr__(self, "min", _readonly(lo))
        object.__setattr__(self, "max", _readonly(hi))

    def contains(self, p) -> bool:
        p = np.asarray(p, dtype=np.float64)
        return bool((p >= self.min).all() and (p <= self.max).all())


class KdTree:
    """Spatial index over a fixed point set supporting exact radius queries.

    The points are sorted by x once. A query tests only the rows whose x
    lies in a window found by two binary searches, padded past the radius
    for rounding, underflow and overflow, against the rule of the linear scan,
    ``((p - q) ** 2).sum(1) <= r * r``, so both yield the same set.
    """

    def __init__(self, points: np.ndarray):
        self.points = points = _readonly(np.asarray(points, dtype=np.float64))
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValidationError(f"points must be (n, 3), got {points.shape}")
        if points.size and not np.isfinite(points).all():
            raise ValidationError("points contain non-finite coordinates")
        self._order = np.argsort(points[:, 0], kind="stable")
        self._x = points[self._order, 0]

    def __len__(self) -> int:
        return self.points.shape[0]

    def radius_search(self, query, radius: float) -> np.ndarray:
        """Ascending int64 indices of the points within ``radius`` of ``query`` (inclusive)."""
        require("non-negative and finite", radius=radius)
        q = np.asarray(query, dtype=np.float64).reshape(-1)
        if q.shape != (3,) or not np.isfinite(q).all():
            raise ValidationError("query must be a finite 3-vector")
        with np.errstate(over="ignore"):
            # rounding, dx ** 2 underflowing to 0 and r * r overflowing to inf widen the rule
            pad = math.sqrt(radius * radius) * (1 + 1e-6) + 1e-150 + 1e-15 * abs(q[0])
            rows = self._order[np.searchsorted(self._x, q[0] - pad):
                               np.searchsorted(self._x, q[0] + pad, "right")]
            return np.sort(rows[((self.points[rows] - q) ** 2).sum(1) <= radius * radius])

    def pairs_within(self, radius: float) -> np.ndarray:
        """All index pairs (i < j) within ``radius``, one :meth:`radius_search` per point."""
        require("non-negative and finite", radius=radius)
        pairs = [(i, j) for i, p in enumerate(self.points)
                 for j in self.radius_search(p, radius) if i < j]
        return np.array(pairs, dtype=np.int64).reshape(-1, 2)
