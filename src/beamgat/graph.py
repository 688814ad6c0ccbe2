"""kNN graph construction over a sparse frame, as a regular neighbour table,
with beam-aware node features."""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.spatial import cKDTree

from .ingest import NUM_BEAMS, SparseFrame


@dataclasses.dataclass
class Graph:
    """Directed kNN adjacency as an [N, k+1] table: row i lists, in
    ascending order, the source nodes of the edges feeding node i
    (neighbor -> center), its self loop included. The rows of a node
    subset R are ``neighbors[R]``."""

    neighbors: np.ndarray  # [N, k+1] int64
    features: np.ndarray  # [N, 4]: x, y, masked z, beam/(NUM_BEAMS-1)

    @property
    def num_nodes(self) -> int:
        return self.neighbors.shape[0]

    @property
    def num_edges(self) -> int:
        return self.neighbors.size


NUM_FEATURES = 4  # columns of build_features
# Init scale of each feature's first-layer weights: raw (x, y) span tens of
# meters while z̃ and the beam are O(1), and unscaled logits saturate at init.
FEATURE_INIT_SCALE = (0.05, 0.05, 1.0, 1.0)


def build_features(frame: SparseFrame) -> np.ndarray:
    """Node feature rows [x, y, z_masked, beam/(NUM_BEAMS-1)].

    Dropped rows carry z=0; ground truth never leaks into features.
    """
    cloud = frame.cloud
    b_norm = cloud.beam / (NUM_BEAMS - 1)
    return np.column_stack([cloud.xyz[:, 0], cloud.xyz[:, 1], frame.z_masked, b_norm])


# (row x window) entries per kd-tree query: a round's rows are queried in
# chunks of at most this many, so a group of d coincident points, whose
# window grows past d, needs O(d) memory and not O(d^2); each row's result
# is the same either way
KNN_QUERY_ENTRIES = 1 << 20


def knn_indices(points: np.ndarray, k: int) -> np.ndarray:
    """[N, k] array: row i holds the k nearest other nodes of node i, ties
    broken by lower point index.

    ``points`` is [N, 2] (or [N, 3]); kd-tree backed. The first query window
    holds the node, its k neighbours and one more candidate, which shows
    whether the k-th distance is tied; a row whose farthest returned
    candidate still ties its k-th neighbour may have missed an
    equal-distance point, so such rows alone are queried again with twice
    the window until none ties. Each round queries its rows
    KNN_QUERY_ENTRIES // window at a time.
    """
    n = points.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n:
        raise ValueError(f"k={k} requires at least k+1={k + 1} points, got {n}")
    tree = cKDTree(points)
    out = np.empty((n, k), dtype=np.int64)
    rows = np.arange(n)
    m = min(n, k + 2)
    while rows.size:
        step = max(1, KNN_QUERY_ENTRIES // m)
        tied = [_query(tree, points, chunk, m, out) for chunk in np.split(rows, range(step, rows.size, step))]
        if m == n:
            break
        rows = np.concatenate(tied)
        m = min(n, 2 * m)
    return out


def _query(tree: cKDTree, points: np.ndarray, rows: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
    """Write the k = out.shape[1] nearest other nodes of ``rows``, from a
    window of ``m`` candidates, into ``out``; return the rows whose farthest
    candidate ties their k-th neighbour."""
    dist, idx = tree.query(points[rows], k=m)
    farthest = dist[:, -1].copy()
    # push each node's own hit past every real candidate, then order each
    # row by (distance, index) in one pass
    dist[idx == rows[:, None]] = np.inf
    order = np.lexsort((idx, dist), axis=-1)[:, :out.shape[1]]
    out[rows] = np.take_along_axis(idx, order, axis=1)
    kth = np.take_along_axis(dist, order[:, -1:], axis=1)[:, 0]
    return rows[farthest <= kth]


def build_knn_graph(frame: SparseFrame, k: int) -> Graph:
    """Directed kNN graph plus self-loops over the frame's points: every
    node has exactly k+1 incoming edges.

    Distance is measured in the (x, y) plane: dropped nodes have masked z,
    so 3-D distance on features would systematically mis-neighbor them.
    """
    feats = build_features(frame)
    rows = knn_indices(feats[:, :2], k)
    with_self = np.column_stack([rows, np.arange(len(rows))])
    return Graph(neighbors=np.sort(with_self, axis=1), features=feats)
