"""Evaluation metrics over the dropped points: vertical RMSE, per-coordinate
3-D RMSE, and symmetric Chamfer distance."""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.spatial import cKDTree


@dataclasses.dataclass
class EvalReport:
    frame: str
    method: str
    k: int
    rmse_z: float
    rmse_xyz: float
    chamfer: float
    train_s: float
    infer_s: float
    n_dropped: int


def rmse_z(z_hat: np.ndarray, z_truth: np.ndarray) -> float:
    z_hat = np.asarray(z_hat, dtype=np.float64)
    z_truth = np.asarray(z_truth, dtype=np.float64)
    if z_hat.shape != z_truth.shape or z_hat.size == 0:
        raise ValueError("rmse_z needs equal non-empty inputs")
    return float(np.sqrt(np.mean((z_hat - z_truth) ** 2)))


def rmse_xyz(points_hat: np.ndarray, points_truth: np.ndarray) -> float:
    """Per-coordinate RMSE over all three dimensions:
    sqrt(mean ||p_hat - p||^2 / 3). Reduces to rmse_z / sqrt(3) when the
    reconstruction preserves (x, y)."""
    points_hat = np.asarray(points_hat, dtype=np.float64)
    points_truth = np.asarray(points_truth, dtype=np.float64)
    if points_hat.shape != points_truth.shape or points_hat.size == 0:
        raise ValueError("rmse_xyz needs equal non-empty inputs")
    sq = np.sum((points_hat - points_truth) ** 2, axis=1)
    return float(np.sqrt(np.mean(sq) / 3.0))


def chamfer(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric mean nearest-neighbor distance (un-squared, averaged
    directions), in meters; kd-tree accelerated."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("chamfer needs non-empty sets")
    d_ab, _ = cKDTree(b).query(a)
    d_ba, _ = cKDTree(a).query(b)
    return float(0.5 * (d_ab.mean() + d_ba.mean()))


# the float fields of EvalReport, in field order; annotations are strings
# here (``from __future__ import annotations``)
AGGREGATED_FIELDS = tuple(f.name for f in dataclasses.fields(EvalReport) if f.type == "float")


def aggregate(reports: list[EvalReport]) -> dict[str, tuple[float, float]]:
    """Mean and sample standard deviation (ddof=1) per name of
    AGGREGATED_FIELDS, in its order; a single report gets SD 0."""
    if not reports:
        raise ValueError("no reports to aggregate")

    def stat(values):
        v = np.array(values, dtype=np.float64)
        sd = float(v.std(ddof=1)) if v.size > 1 else 0.0
        return float(v.mean()), sd

    return {name: stat([getattr(r, name) for r in reports]) for name in AGGREGATED_FIELDS}
