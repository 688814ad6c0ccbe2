import numpy as np
import pytest
from scipy.spatial import cKDTree

from beamgat import ingest
from beamgat.graph import add_beam_edges, build_features, build_knn_graph, dump_edges_csv, knn_indices
from beamgat.ingest import EveryNth, PointCloud

from conftest import random_frame


def brute_force_knn(points: np.ndarray, k: int) -> list[np.ndarray]:
    """O(n^2) oracle: k nearest other nodes, ties broken by lower index."""
    n = len(points)
    rows = []
    for i in range(n):
        d = np.linalg.norm(points - points[i], axis=1)
        order = np.lexsort((np.arange(n), d))
        order = order[order != i]
        rows.append(order[:k])
    return rows


def loop_knn_indices(points: np.ndarray, k: int) -> list[np.ndarray]:
    """Per-row reference for ``knn_indices``: the same widened kd-tree query,
    each row's self-hit removed and the rest ordered by (distance, index)
    one row at a time."""
    n = len(points)
    dist, idx = cKDTree(points).query(points, k=min(n, k + 9))
    rows = []
    for i in range(n):
        cand = idx[i][idx[i] != i]
        d = dist[i][idx[i] != i]
        rows.append(cand[np.lexsort((cand, d))][:k])
    return rows


def loop_build_knn_graph(frame: ingest.SparseFrame, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row reference for ``build_knn_graph``: (row_offsets, neighbor_ids)."""
    rows = loop_knn_indices(build_features(frame)[:, :2], k)
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    neighbor_ids = []
    for i, r in enumerate(rows):
        row = np.sort(np.append(r, i))
        neighbor_ids.append(row)
        offsets[i + 1] = offsets[i] + len(row)
    return offsets, np.concatenate(neighbor_ids)


def frame_from_xy(xy: np.ndarray, beams=None, num_beams=8) -> ingest.SparseFrame:
    n = len(xy)
    if beams is None:
        beams = np.tile(np.arange(num_beams), n)[:n]
    xyz = np.column_stack([xy, np.linspace(0, 1, n)])
    cloud = PointCloud(xyz=xyz, reflectance=np.zeros(n), beam=np.asarray(beams), num_beams=num_beams)
    return ingest.apply_beam_dropout(cloud, EveryNth(4, 0))


class TestKnn:
    def test_collinear_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        rows = knn_indices(pts, k=1)
        assert rows[0].tolist() == [1]
        assert rows[1].tolist() == [0]
        assert rows[2].tolist() == [1]

    def test_complete_graph_when_n_is_k_plus_one(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(5, 2))
        rows = knn_indices(pts, k=4)
        for i, row in enumerate(rows):
            assert sorted(row.tolist()) == sorted(set(range(5)) - {i})

    def test_coincident_points_pick_each_other(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [9.0, 9.0]])
        rows = knn_indices(pts, k=1)
        assert rows[0].tolist() == [1]
        assert rows[1].tolist() == [0]

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            knn_indices(np.zeros((3, 2)), k=3)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 400))
        k = int(rng.integers(1, 12))
        pts = rng.uniform(-30, 30, size=(n, 2))
        fast = knn_indices(pts, k)
        slow = brute_force_knn(pts, k)
        for f, s in zip(fast, slow):
            assert f.tolist() == s.tolist()

    def test_matches_brute_force_large(self):
        rng = np.random.default_rng(99)
        pts = rng.uniform(-100, 100, size=(2000, 2))
        fast = knn_indices(pts, 10)
        slow = brute_force_knn(pts, 10)
        for f, s in zip(fast, slow):
            assert set(f.tolist()) == set(s.tolist())


def duplicate_heavy_xy(rng: np.random.Generator) -> np.ndarray:
    """20 groups of 30 coincident points, plus a lattice with repeats."""
    groups = np.repeat(rng.uniform(-5, 5, size=(20, 2)), 30, axis=0)
    lattice = np.round(rng.uniform(0, 4, size=(400, 2)))
    return np.vstack([groups, lattice])


class TestKnnMatchesLoopReference:
    """The vectorized kNN is bit-for-bit the per-row loop, tie order included."""

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_duplicate_heavy(self, k):
        pts = duplicate_heavy_xy(np.random.default_rng(k))
        fast = knn_indices(pts, k)
        slow = loop_knn_indices(pts, k)
        assert fast.shape == (len(pts), k)
        for f, s in zip(fast, slow):
            assert f.tolist() == s.tolist()

    @pytest.mark.parametrize("k", [1, 2, 4, 9, 12])
    def test_tiny_n_is_k_plus_one(self, k):
        rng = np.random.default_rng(k)
        pts = rng.uniform(size=(k + 1, 2))
        pts[-1] = pts[0]  # one coincident pair
        for f, s in zip(knn_indices(pts, k), loop_knn_indices(pts, k)):
            assert f.tolist() == s.tolist()

    @pytest.mark.parametrize("n, k", [(650, 3), (800, 10), (4, 3), (13, 12)])
    def test_build_knn_graph(self, n, k):
        rng = np.random.default_rng(n)
        xy = duplicate_heavy_xy(rng)[:n] if n > k + 1 else rng.uniform(size=(n, 2))
        frame = frame_from_xy(xy)
        g = build_knn_graph(frame, k)
        offsets, neighbor_ids = loop_build_knn_graph(frame, k)
        np.testing.assert_array_equal(g.row_offsets, offsets)
        np.testing.assert_array_equal(g.neighbor_ids, neighbor_ids)
        assert g.row_offsets.dtype == offsets.dtype and g.neighbor_ids.dtype == neighbor_ids.dtype


class TestBuildFeatures:
    def test_observed_point(self):
        cloud = PointCloud(
            xyz=np.array([[1.0, 2.0, 3.0], [0.0, 0.0, -1.0]]),
            reflectance=np.zeros(2), beam=np.array([63, 1]), num_beams=64,
        )
        frame = ingest.SparseFrame(
            cloud=cloud, dropped_mask=np.array([False, False]),
            z_truth=cloud.xyz[:, 2].copy(), z_masked=cloud.xyz[:, 2].copy(),
        )
        feats = build_features(frame)
        np.testing.assert_allclose(feats[0], [1.0, 2.0, 3.0, 1.0])

    def test_dropped_point_masked(self):
        cloud = PointCloud(
            xyz=np.array([[1.0, 2.0, 3.0]]), reflectance=np.zeros(1),
            beam=np.array([0]), num_beams=64,
        )
        frame = ingest.SparseFrame(
            cloud=cloud, dropped_mask=np.array([True]),
            z_truth=np.array([3.0]), z_masked=np.array([0.0]),
        )
        np.testing.assert_allclose(build_features(frame)[0], [1.0, 2.0, 0.0, 0.0])

    def test_beam_normalization(self):
        cloud = PointCloud(
            xyz=np.zeros((1, 3)), reflectance=np.zeros(1),
            beam=np.array([32]), num_beams=64,
        )
        frame = ingest.SparseFrame(
            cloud=cloud, dropped_mask=np.array([False]),
            z_truth=np.zeros(1), z_masked=np.zeros(1),
        )
        assert build_features(frame)[0, 3] == pytest.approx(32 / 63)

    def test_dropped_nodes_never_expose_truth(self):
        frame = random_frame(np.random.default_rng(1), 300)
        feats = build_features(frame)
        assert np.all(feats[frame.dropped_mask, 2] == 0.0)


class TestBuildKnnGraph:
    def test_row_lengths_k_plus_one(self):
        frame = random_frame(np.random.default_rng(2), 120)
        g = build_knn_graph(frame, k=5)
        np.testing.assert_array_equal(np.diff(g.row_offsets), 6)
        g.validate()

    def test_self_loop_present(self):
        frame = random_frame(np.random.default_rng(3), 50)
        g = build_knn_graph(frame, k=3)
        for i in range(g.num_nodes):
            row = g.neighbor_ids[g.row_offsets[i]:g.row_offsets[i + 1]]
            assert i in row

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        frame = random_frame(rng, 80)
        g = build_knn_graph(frame, k=4)
        perm = rng.permutation(80)
        inv = np.argsort(perm)
        cloud_p = PointCloud(
            xyz=frame.cloud.xyz[perm], reflectance=frame.cloud.reflectance[perm],
            beam=frame.cloud.beam[perm], num_beams=frame.cloud.num_beams,
        )
        frame_p = ingest.SparseFrame(
            cloud=cloud_p, dropped_mask=frame.dropped_mask[perm],
            z_truth=frame.z_truth[perm], z_masked=frame.z_masked[perm],
        )
        g_p = build_knn_graph(frame_p, k=4)
        # new node i is old node perm[i]; old id o relabels to inv[o]
        for new_i in range(80):
            old_i = perm[new_i]
            row_old = g.neighbor_ids[g.row_offsets[old_i]:g.row_offsets[old_i + 1]]
            row_new = g_p.neighbor_ids[g_p.row_offsets[new_i]:g_p.row_offsets[new_i + 1]]
            assert set(row_new.tolist()) == {int(inv[o]) for o in row_old}

    def test_planar_vs_3d_flag(self):
        # dropped nodes at z=0 would mis-neighbor under 3-D masked distance
        xy = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        frame = frame_from_xy(xy, beams=[0, 1, 1, 2])
        g2 = build_knn_graph(frame, k=1, planar=True)
        g3 = build_knn_graph(frame, k=1, planar=False)
        assert g2.num_edges == g3.num_edges


class TestAddBeamEdges:
    def test_chain_within_beam(self):
        angles = np.radians([0, 90, 180, 270])
        xy = np.column_stack([np.cos(angles) * 5, np.sin(angles) * 5])
        n = 4
        xyz = np.column_stack([xy, np.zeros(n)])
        cloud = PointCloud(xyz=xyz, reflectance=np.zeros(n),
                           beam=np.full(n, 1), num_beams=8)
        frame = ingest.apply_beam_dropout(
            PointCloud(xyz=np.vstack([xyz, [[1, 1, 0]]]), reflectance=np.zeros(n + 1),
                       beam=np.append(np.full(n, 1), 0), num_beams=8),
            EveryNth(4, 0),
        )
        g = build_knn_graph(frame, k=1)
        g2 = add_beam_edges(g, frame)
        src, dst = g2.edge_arrays()
        edges = set(zip(src.tolist(), dst.tolist()))
        # azimuth order is 0, 1, 2, 3 (angles 0, 90, 180, 270 in [-pi, pi) sort as 180 first)
        azim = np.arctan2(frame.cloud.xyz[:4, 1], frame.cloud.xyz[:4, 0])
        chain = np.argsort(azim)
        for u, v in zip(chain[:-1], chain[1:]):
            assert (u, v) in edges and (v, u) in edges

    def test_dedup_keeps_edge_count(self):
        frame = random_frame(np.random.default_rng(6), 60)
        g = build_knn_graph(frame, k=3)
        g2 = add_beam_edges(g, frame)
        g3 = add_beam_edges(g2, frame)
        assert g2.num_edges == g3.num_edges


def test_dump_edges_csv(tmp_path):
    frame = random_frame(np.random.default_rng(7), 30)
    g = build_knn_graph(frame, k=2)
    path = tmp_path / "edges.csv"
    dump_edges_csv(g, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "src,dst,dist"
    assert len(lines) == g.num_edges + 1
