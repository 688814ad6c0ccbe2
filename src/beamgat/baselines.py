"""Non-learned reconstruction baselines: beam-wise linear interpolation in
azimuth bins, and nearest-neighbor substitution."""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .ingest import SparseFrame

AZIMUTH_BINS = 360  # equal azimuth bins of linear_interp


def _azimuth_bins(azim: np.ndarray, bin_count: int) -> np.ndarray:
    """The bin of each azimuth in [-pi, pi], out of ``bin_count``."""
    b = np.floor((azim + np.pi) / (2 * np.pi) * bin_count).astype(np.int64)
    return np.clip(b, 0, bin_count - 1)


def _nearest_observed(frame: SparseFrame, points: np.ndarray) -> np.ndarray:
    """Position of the planar-nearest observed point to each of ``points``."""
    obs = np.flatnonzero(frame.observed_mask)
    _, j = cKDTree(frame.cloud.xyz[obs, :2]).query(frame.cloud.xyz[points, :2])
    return obs[j]


def linear_interp(frame: SparseFrame) -> np.ndarray:
    """z estimate per dropped point by interpolating across the beam stack.

    Within each of AZIMUTH_BINS azimuth bins, every observed beam is
    represented by its point closest to the bin center. A dropped point
    takes the linear interpolation (in beam index) between the nearest
    observed beams below and above it; one-sided cases, every case of a
    frame with one observed beam among them, copy the nearest observed
    beam's z. A point whose bin holds no other observed beam (in particular,
    a bin with no observed points) falls back to the planar-nearest observed
    point.
    """
    cloud = frame.cloud
    obs = np.flatnonzero(frame.observed_mask)

    azim = np.arctan2(cloud.xyz[:, 1], cloud.xyz[:, 0])
    bins = _azimuth_bins(azim, AZIMUTH_BINS)
    centers = (np.arange(AZIMUTH_BINS) + 0.5) / AZIMUTH_BINS * 2 * np.pi - np.pi
    err = np.abs(azim - centers[bins])

    beam_lo = int(cloud.beam.min())
    span = int(cloud.beam.max()) - beam_lo + 1
    key = bins * span + (cloud.beam - beam_lo)  # (bin, beam) as one sortable key

    # representative observed point per (bin, beam): closest to the bin
    # center, the lowest index on ties; reps come out ordered by (bin, beam)
    ranked = obs[np.lexsort((obs, err[obs], key[obs]))]
    first = np.r_[True, key[ranked[1:]] != key[ranked[:-1]]]
    rep = ranked[first]
    rep_key, rep_bin, rep_beam = key[rep], bins[rep], cloud.beam[rep]

    # nearest observed beams strictly below and above each dropped point,
    # within its own bin
    dropped = np.flatnonzero(frame.dropped_mask)
    b, beam = bins[dropped], cloud.beam[dropped]
    below = np.searchsorted(rep_key, key[dropped], side="left") - 1
    above = np.searchsorted(rep_key, key[dropped], side="right")
    has_lo = (below >= 0) & (rep_bin[np.maximum(below, 0)] == b)
    has_hi = (above < rep.size) & (rep_bin[np.minimum(above, rep.size - 1)] == b)

    z_hat = np.empty(dropped.size)
    both = has_lo & has_hi
    b0, b1 = rep_beam[below[both]], rep_beam[above[both]]
    z0, z1 = frame.z_truth[rep[below[both]]], frame.z_truth[rep[above[both]]]
    t = (beam[both] - b0) / (b1 - b0)
    z_hat[both] = z0 + t * (z1 - z0)
    only_lo = has_lo & ~has_hi
    z_hat[only_lo] = frame.z_truth[rep[below[only_lo]]]
    only_hi = has_hi & ~has_lo
    z_hat[only_hi] = frame.z_truth[rep[above[only_hi]]]
    # no observed beam in the bin: the planar-nearest observed point
    empty = ~(has_lo | has_hi)
    if empty.any():
        z_hat[empty] = frame.z_truth[_nearest_observed(frame, dropped[empty])]
    return z_hat


def nearest_neighbor_sub(frame: SparseFrame) -> np.ndarray:
    """Reconstruct each dropped point as a copy of its planar-nearest
    observed point.

    Returns [n_dropped, 3]: the neighbor's full (x, y, z) is substituted,
    which trades global coordinate alignment for local z accuracy.
    """
    return frame.cloud.xyz[_nearest_observed(frame, np.flatnonzero(frame.dropped_mask))]
