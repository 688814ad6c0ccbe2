"""Raw LiDAR frame ingestion: binary decoding, beam estimation, stratified
sampling, and structured beam-dropout simulation."""

from __future__ import annotations

import dataclasses
import os

import numpy as np

# HDL-64E vertical field of view
DEFAULT_NUM_BEAMS = 64
DEFAULT_ELEV_MIN_DEG = -24.8
DEFAULT_ELEV_MAX_DEG = 2.0

__all__ = [
    "DEFAULT_ELEV_MAX_DEG",
    "DEFAULT_ELEV_MIN_DEG",
    "DEFAULT_NUM_BEAMS",
    "DropoutConfigError",
    "EveryNth",
    "PointCloud",
    "SparseFrame",
    "TruncatedRecordError",
    "apply_beam_dropout",
    "estimate_beams",
    "read_kitti_bin",
    "stratified_sample",
    "write_kitti_bin",
]


class TruncatedRecordError(ValueError):
    """File length is not a multiple of the 16-byte record size."""


class DropoutConfigError(ValueError):
    """Dropout pattern would drop every beam or no beam."""


@dataclasses.dataclass
class PointCloud:
    """Columnar point cloud: xyz [N, 3], reflectance [N], optional beam indices.

    ``beam`` is None until :func:`estimate_beams` (or a synthetic scanner)
    assigns channel indices in [0, num_beams).
    """

    xyz: np.ndarray
    reflectance: np.ndarray
    beam: np.ndarray | None = None
    num_beams: int = DEFAULT_NUM_BEAMS
    skipped_nonfinite: int = 0

    def __len__(self) -> int:
        return self.xyz.shape[0]


@dataclasses.dataclass
class SparseFrame:
    """A point cloud after beam dropout.

    Dropout removes only the z value: point identity and (x, y) are kept,
    so the dropped set doubles as a supervised test set. ``z_masked`` is 0
    exactly at dropped rows and equals ``z_truth`` elsewhere.
    """

    cloud: PointCloud
    dropped_mask: np.ndarray
    z_truth: np.ndarray
    z_masked: np.ndarray

    @property
    def observed_mask(self) -> np.ndarray:
        return ~self.dropped_mask

    @property
    def dropped_fraction(self) -> float:
        return float(self.dropped_mask.mean())


@dataclasses.dataclass(frozen=True)
class EveryNth:
    """Drop every n-th beam: beams with (beam - offset) % n == 0."""

    n: int = 4
    offset: int = 0

    def dropped_beams(self, num_beams: int) -> np.ndarray:
        beams = np.arange(num_beams)
        return beams[(beams - self.offset) % self.n == 0]


def read_kitti_bin(path: str | os.PathLike) -> PointCloud:
    """Decode a KITTI velodyne ``.bin`` file.

    Flat sequence of 16-byte records, each four little-endian float32
    (x, y, z, reflectance), no header. Records containing non-finite
    values are skipped and counted.
    """
    size = os.path.getsize(path)
    if size % 16 != 0:
        raise TruncatedRecordError(
            f"{path}: length {size} bytes is not a multiple of 16"
        )
    raw = np.fromfile(path, dtype="<f4")
    pts = raw.reshape(-1, 4).astype(np.float64)
    finite = np.all(np.isfinite(pts), axis=1)
    skipped = int((~finite).sum())
    pts = pts[finite]
    return PointCloud(
        xyz=np.ascontiguousarray(pts[:, :3]),
        reflectance=np.clip(pts[:, 3], 0.0, 1.0),
        skipped_nonfinite=skipped,
    )


def write_kitti_bin(cloud: PointCloud, path: str | os.PathLike) -> None:
    """Inverse of :func:`read_kitti_bin`; round-trips bit-exactly for
    float32-representable values."""
    rec = np.empty((len(cloud), 4), dtype="<f4")
    rec[:, :3] = cloud.xyz
    rec[:, 3] = cloud.reflectance
    rec.tofile(path)


def estimate_beams(
    cloud: PointCloud,
    num_beams: int = DEFAULT_NUM_BEAMS,
    elev_min_deg: float = DEFAULT_ELEV_MIN_DEG,
    elev_max_deg: float = DEFAULT_ELEV_MAX_DEG,
) -> PointCloud:
    """Assign beam indices by quantizing elevation angle into uniform bins.

    The raw format carries no channel id, so the vertical structure is
    reconstructed from geometry: phi = atan2(z, hypot(x, y)), binned over
    [elev_min, elev_max] and clamped into [0, num_beams). Points at the
    exact origin get beam 0.
    """
    if num_beams < 2:
        raise ValueError("num_beams must be >= 2")
    if not elev_min_deg < elev_max_deg:
        raise ValueError("elev_min must be < elev_max")
    x, y, z = cloud.xyz[:, 0], cloud.xyz[:, 1], cloud.xyz[:, 2]
    planar = np.hypot(x, y)
    at_origin = (planar == 0.0) & (z == 0.0)
    phi = np.degrees(np.arctan2(z, planar))
    span = elev_max_deg - elev_min_deg
    beam = np.floor((phi - elev_min_deg) / span * num_beams).astype(np.int64)
    beam = np.clip(beam, 0, num_beams - 1)
    beam[at_origin] = 0
    return PointCloud(
        xyz=cloud.xyz,
        reflectance=cloud.reflectance,
        beam=beam,
        num_beams=num_beams,
        skipped_nonfinite=cloud.skipped_nonfinite,
    )


def stratified_sample(cloud: PointCloud, target: int, seed: int) -> PointCloud:
    """Subsample to ~``target`` points with per-beam quotas proportional to
    beam population (largest-remainder rounding), preserving original order."""
    if cloud.beam is None:
        raise ValueError("beam indices must be set before stratified sampling")
    n = len(cloud)
    if target >= n:
        return cloud
    counts = np.bincount(cloud.beam, minlength=cloud.num_beams)
    nonempty = np.flatnonzero(counts)
    if target < len(nonempty):
        raise ValueError(
            f"target {target} below number of non-empty beams {len(nonempty)}"
        )
    exact = counts[nonempty] * (target / n)
    quota = np.floor(exact).astype(np.int64)
    # never empty a populated beam
    quota = np.maximum(quota, 1)
    remainder = exact - np.floor(exact)
    short = target - int(quota.sum())
    if short > 0:
        order = np.lexsort((nonempty, -remainder))
        for b in order[:short]:
            if quota[b] < counts[nonempty[b]]:
                quota[b] += 1
    elif short < 0:
        order = np.lexsort((-nonempty, remainder))
        i = 0
        while short < 0 and i < len(order):
            b = order[i]
            if quota[b] > 1:
                quota[b] -= 1
                short += 1
            i += 1
    quota = np.minimum(quota, counts[nonempty])

    rng = np.random.default_rng(seed)
    keep = np.zeros(n, dtype=bool)
    for b, q in zip(nonempty, quota):
        idx = np.flatnonzero(cloud.beam == b)
        keep[rng.choice(idx, size=int(q), replace=False)] = True
    sel = np.flatnonzero(keep)
    return PointCloud(
        xyz=cloud.xyz[sel],
        reflectance=cloud.reflectance[sel],
        beam=cloud.beam[sel],
        num_beams=cloud.num_beams,
        skipped_nonfinite=cloud.skipped_nonfinite,
    )


def apply_beam_dropout(cloud: PointCloud, pattern: EveryNth = EveryNth()) -> SparseFrame:
    """Mask z on every beam selected by ``pattern``; (x, y) and membership
    are retained so reconstruction can be scored against the held-out z."""
    if cloud.beam is None:
        raise ValueError("beam indices must be set before dropout")
    dropped_beams = set(pattern.dropped_beams(cloud.num_beams).tolist())
    present = set(np.unique(cloud.beam).tolist())
    hit = present & dropped_beams
    if not hit:
        raise DropoutConfigError("pattern drops no populated beam")
    if hit == present:
        raise DropoutConfigError("pattern drops every populated beam")
    dropped = np.isin(cloud.beam, list(dropped_beams))
    z_truth = cloud.xyz[:, 2].copy()
    z_masked = np.where(dropped, 0.0, z_truth)
    return SparseFrame(
        cloud=cloud, dropped_mask=dropped, z_truth=z_truth, z_masked=z_masked
    )
