"""Raw LiDAR frame ingestion: binary decoding, beam estimation, stratified
sampling, and structured beam-dropout simulation."""

from __future__ import annotations

import dataclasses
import os
from collections.abc import Callable

import numpy as np

# HDL-64E vertical field of view
NUM_BEAMS = 64
ELEV_MIN_DEG = -24.8
ELEV_MAX_DEG = 2.0

__all__ = [
    "ELEV_MAX_DEG",
    "ELEV_MIN_DEG",
    "FrameError",
    "NUM_BEAMS",
    "PointCloud",
    "SparseFrame",
    "apply_beam_dropout",
    "choose_per_beam",
    "estimate_beams",
    "read_kitti_bin",
    "stratified_sample",
    "write_kitti_bin",
]


class FrameError(ValueError):
    """The frame cannot be used: its name holds a carriage return, its file
    is not whole 16-byte records, it has more populated beams than the sample
    target, or the dropout pattern drops every populated beam or none."""


@dataclasses.dataclass
class PointCloud:
    """Columnar point cloud: xyz [N, 3], reflectance [N], optional beam indices.

    ``beam`` is None until :func:`estimate_beams` (or a synthetic scanner)
    assigns channel indices in [0, NUM_BEAMS).
    """

    xyz: np.ndarray
    reflectance: np.ndarray
    beam: np.ndarray | None = None
    skipped_nonfinite: int = 0

    def __len__(self) -> int:
        return self.xyz.shape[0]


@dataclasses.dataclass
class SparseFrame:
    """A point cloud after beam dropout.

    Dropout removes only the z value: point identity and (x, y) are kept,
    so the dropped set doubles as a supervised test set. ``z_masked`` is 0
    exactly at dropped rows and equals ``z_truth`` elsewhere. A frame has
    beams (else ValueError), an observed and a dropped point (else FrameError).
    """

    cloud: PointCloud
    dropped_mask: np.ndarray

    def __post_init__(self):
        if self.cloud.beam is None:
            raise ValueError("beam indices must be set before dropout")
        if not self.dropped_mask.any():
            raise FrameError("pattern drops no populated beam")
        if self.dropped_mask.all():
            raise FrameError("pattern drops every populated beam")

    @property
    def observed_mask(self) -> np.ndarray:
        return ~self.dropped_mask

    @property
    def z_truth(self) -> np.ndarray:
        z = self.cloud.xyz[:, 2]
        z.flags.writeable = False  # a write would move the point
        return z

    @property
    def z_masked(self) -> np.ndarray:
        return np.where(self.dropped_mask, 0.0, self.z_truth)


def read_kitti_bin(path: str | os.PathLike) -> PointCloud:
    """Decode a KITTI velodyne ``.bin`` file.

    Flat sequence of 16-byte records, each four little-endian float32
    (x, y, z, reflectance), no header. Records containing non-finite
    values are skipped and counted.
    """
    size = os.path.getsize(path)
    if size % 16 != 0:
        raise FrameError(f"{path}: length {size} bytes is not a multiple of 16")
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


def estimate_beams(cloud: PointCloud) -> PointCloud:
    """Assign HDL-64E beam indices by quantizing elevation angle into uniform bins.

    The raw format carries no channel id, so the vertical structure is
    reconstructed from geometry: phi = atan2(z, hypot(x, y)), binned over
    [ELEV_MIN_DEG, ELEV_MAX_DEG] and clamped into [0, NUM_BEAMS). Points
    at the exact origin get beam 0.
    """
    x, y, z = cloud.xyz[:, 0], cloud.xyz[:, 1], cloud.xyz[:, 2]
    planar = np.hypot(x, y)
    at_origin = (planar == 0.0) & (z == 0.0)
    phi = np.degrees(np.arctan2(z, planar))
    span = ELEV_MAX_DEG - ELEV_MIN_DEG
    beam = np.floor((phi - ELEV_MIN_DEG) / span * NUM_BEAMS).astype(np.int64)
    beam = np.clip(beam, 0, NUM_BEAMS - 1)
    beam[at_origin] = 0
    return dataclasses.replace(cloud, beam=beam)


def choose_per_beam(
    beam: np.ndarray, quota: Callable[[np.ndarray], np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    """Sorted positions into ``beam``, drawn without replacement beam by beam:
    ``quota(counts)`` maps the populated beams' sizes (ascending beam order)
    to how many of each to keep, and each beam's ascending positions get one
    ``rng.choice``, in ascending beam order."""
    order = np.argsort(beam, kind="stable")
    grouped = beam[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    counts = np.diff(starts, append=beam.size)
    picks = [rng.choice(order[start:start + count], size=int(q), replace=False)
             for start, count, q in zip(starts, counts, quota(counts))]
    return np.sort(np.concatenate(picks))


def stratified_sample(cloud: PointCloud, target: int, seed: int) -> PointCloud:
    """Subsample to ``target`` points with per-beam quotas proportional to
    beam population (largest-remainder rounding, at least one point per
    populated beam), preserving original order; a cloud of at most
    ``target`` points is returned as it is. A larger cloud with more
    populated beams than ``target`` raises FrameError."""
    if cloud.beam is None:
        raise ValueError("beam indices must be set before stratified sampling")
    if target >= len(cloud):
        return cloud

    def quotas(counts: np.ndarray) -> np.ndarray:
        if target < counts.size:
            raise FrameError(f"target {target} below number of non-empty beams {counts.size}")
        exact = counts * (target / counts.sum())
        quota = np.maximum(np.floor(exact).astype(np.int64), 1)  # never empty a populated beam
        remainder = exact - np.floor(exact)
        short = target - int(quota.sum())
        beams = np.arange(counts.size)
        if short > 0:  # largest remainders among beams with room gain one, lower beam first
            order = np.lexsort((beams, -remainder))
            quota[order[quota[order] < counts[order]][:short]] += 1
        elif short < 0:  # smallest remainders above one lose one, higher beam first, pass by pass
            order = np.lexsort((-beams, remainder))
            while short < 0:
                cut = order[quota[order] > 1][:-short]
                quota[cut] -= 1
                short += cut.size
        return quota

    sel = choose_per_beam(cloud.beam, quotas, np.random.default_rng(seed))
    return dataclasses.replace(cloud, xyz=cloud.xyz[sel], reflectance=cloud.reflectance[sel],
                               beam=cloud.beam[sel])


def apply_beam_dropout(cloud: PointCloud, nth: int) -> SparseFrame:
    """Mask z on every ``nth`` beam, the beams with ``beam % nth == 0``;
    (x, y) and membership are retained so reconstruction can be scored
    against the held-out z."""
    if cloud.beam is None:
        raise ValueError("beam indices must be set before dropout")
    dropped = cloud.beam % nth == 0
    # the frame keeps its own points, so a later write to ``cloud`` leaves its z_truth as it is
    return SparseFrame(cloud=dataclasses.replace(cloud, xyz=cloud.xyz.copy()), dropped_mask=dropped)
