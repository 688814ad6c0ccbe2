"""kNN graph construction over a sparse frame, CSR-encoded, with beam-aware
node features."""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.spatial import cKDTree

from .ingest import SparseFrame

__all__ = ["Graph", "add_beam_edges", "build_features", "build_knn_graph", "dump_edges_csv"]


@dataclasses.dataclass
class Graph:
    """Directed adjacency in CSR form: row i lists the source nodes of the
    edges feeding node i (neighbor -> center), self-loop included."""

    num_nodes: int
    row_offsets: np.ndarray  # [N+1]
    neighbor_ids: np.ndarray  # [E]
    features: np.ndarray  # [N, 4]: x, y, masked z, beam/(B-1)

    @property
    def num_edges(self) -> int:
        return int(self.row_offsets[-1])

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) per edge; dst is nondecreasing (CSR order)."""
        counts = np.diff(self.row_offsets)
        dst = np.repeat(np.arange(self.num_nodes), counts)
        return self.neighbor_ids, dst

    def validate(self) -> None:
        assert self.row_offsets[0] == 0
        assert np.all(np.diff(self.row_offsets) >= 1)
        assert self.row_offsets[-1] == len(self.neighbor_ids)
        for i in range(self.num_nodes):
            row = self.neighbor_ids[self.row_offsets[i]:self.row_offsets[i + 1]]
            assert len(np.unique(row)) == len(row)


def build_features(frame: SparseFrame) -> np.ndarray:
    """Node feature rows [x, y, z_masked, beam/(B-1)].

    Dropped rows carry z=0; ground truth never leaks into features.
    """
    cloud = frame.cloud
    if cloud.beam is None:
        raise ValueError("beam indices must be set")
    b_norm = cloud.beam / (cloud.num_beams - 1)
    return np.column_stack([cloud.xyz[:, 0], cloud.xyz[:, 1], frame.z_masked, b_norm])


def knn_indices(points: np.ndarray, k: int) -> np.ndarray:
    """[N, k] array: row i holds the k nearest other nodes of node i, ties
    broken by lower point index.

    ``points`` is [N, 2] (or [N, 3]); kd-tree backed, with a widened query
    window so equal-distance candidates are re-ordered deterministically.
    """
    n = points.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n:
        raise ValueError(f"k={k} requires at least k+1={k + 1} points, got {n}")
    tree = cKDTree(points)
    m = min(n, k + 9)  # slack absorbs ties at the cutoff
    dist, idx = tree.query(points, k=m)
    # push each node's own hit past every real candidate, then order each
    # row by (distance, index) in one pass
    dist[idx == np.arange(n)[:, None]] = np.inf
    order = np.lexsort((idx, dist), axis=-1)
    return np.take_along_axis(idx, order[:, :k], axis=1)


def build_knn_graph(frame: SparseFrame, k: int, planar: bool = True) -> Graph:
    """Directed kNN graph plus self-loops over the frame's points.

    Distance is measured in the (x, y) plane by default: dropped nodes have
    masked z, so 3-D distance on features would systematically mis-neighbor
    them. ``planar=False`` uses masked-z 3-D distance for comparison.
    """
    feats = build_features(frame)
    pts = feats[:, :2] if planar else feats[:, :3]
    rows = knn_indices(pts, k)
    n = len(rows)
    with_self = np.sort(np.column_stack([rows, np.arange(n)]), axis=1)
    return Graph(
        num_nodes=n,
        row_offsets=np.arange(n + 1, dtype=np.int64) * (k + 1),
        neighbor_ids=with_self.ravel(),
        features=feats,
    )


def add_beam_edges(graph: Graph, frame: SparseFrame) -> Graph:
    """Scan-pattern edges: chain each beam by azimuth, link azimuth-nearest
    points in adjacent beams. Off by default; duplicates against existing
    kNN edges are removed."""
    cloud = frame.cloud
    beam = cloud.beam
    azim = np.arctan2(cloud.xyz[:, 1], cloud.xyz[:, 0])
    extra: set[tuple[int, int]] = set()
    beams = np.unique(beam)
    by_beam = {int(b): np.flatnonzero(beam == b) for b in beams}
    for b, idx in by_beam.items():
        chain = idx[np.argsort(azim[idx], kind="stable")]
        for u, v in zip(chain[:-1], chain[1:]):
            extra.add((int(u), int(v)))
            extra.add((int(v), int(u)))
        for nb in (b - 1, b + 1):
            if nb not in by_beam:
                continue
            other = by_beam[nb]
            for u in idx:
                j = other[np.argmin(np.abs(azim[other] - azim[u]))]
                extra.add((int(j), int(u)))

    rows = [
        set(graph.neighbor_ids[graph.row_offsets[i]:graph.row_offsets[i + 1]].tolist())
        for i in range(graph.num_nodes)
    ]
    for src, dst in extra:
        rows[dst].add(src)
    offsets = np.zeros(graph.num_nodes + 1, dtype=np.int64)
    flat = []
    for i, row in enumerate(rows):
        srt = np.array(sorted(row), dtype=np.int64)
        flat.append(srt)
        offsets[i + 1] = offsets[i] + len(srt)
    return Graph(
        num_nodes=graph.num_nodes,
        row_offsets=offsets,
        neighbor_ids=np.concatenate(flat),
        features=graph.features,
    )


def dump_edges_csv(graph: Graph, path: str) -> None:
    """Debug dump: one ``src,dst,dist`` row per edge (planar distance)."""
    src, dst = graph.edge_arrays()
    xy = graph.features[:, :2]
    d = np.linalg.norm(xy[src] - xy[dst], axis=1)
    with open(path, "w") as fh:
        fh.write("src,dst,dist\n")
        for s, t, w in zip(src, dst, d):
            fh.write(f"{s},{t},{w:.9g}\n")
