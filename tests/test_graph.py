import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from beamgat import ingest
from beamgat.graph import build_features, build_knn_graph, knn_indices
from beamgat.ingest import PointCloud
from beamgat.synth import SceneSpec, synthesize_scene

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
    one row at a time; a row whose farthest candidate ties its k-th
    neighbour is queried again with twice the window."""
    n = len(points)
    tree = cKDTree(points)
    rows = []
    for i in range(n):
        m = min(n, k + 9)
        while True:
            dist, idx = tree.query(points[i], k=m)
            cand, d = idx[idx != i], dist[idx != i]
            row = np.lexsort((cand, d))[:k]
            if m == n or dist[-1] > d[row[-1]]:
                break
            m = min(n, 2 * m)
        rows.append(cand[row])
    return rows


def loop_build_knn_graph(frame: ingest.SparseFrame, k: int) -> np.ndarray:
    """Per-row reference for ``build_knn_graph``: its neighbour table."""
    rows = loop_knn_indices(build_features(frame)[:, :2], k)
    return np.array([np.sort(np.append(r, i)) for i, r in enumerate(rows)])


def frame_from_xy(xy: np.ndarray, beams=None, num_beams=8) -> ingest.SparseFrame:
    n = len(xy)
    if beams is None:
        beams = np.tile(np.arange(num_beams), n)[:n]
    xyz = np.column_stack([xy, np.linspace(0, 1, n)])
    cloud = PointCloud(xyz=xyz, reflectance=np.zeros(n), beam=np.asarray(beams))
    return ingest.apply_beam_dropout(cloud, nth=4)


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

    def test_more_ties_than_query_slack_match_brute_force(self):
        # 30 coincident points per spot: 29 candidates tie at distance 0
        pts = np.repeat(np.random.default_rng(3).uniform(-5, 5, size=(20, 2)), 30, axis=0)
        fast = knn_indices(pts, 3)
        slow = brute_force_knn(pts, 3)
        for f, s in zip(fast, slow):
            assert f.tolist() == s.tolist()

    def test_grid_ties_past_the_first_window_match_brute_force(self):
        # on an integer grid the 5th neighbour is one of 4 diagonals tied at
        # sqrt(2), more than a window of the node, k neighbours and one
        # extra candidate can hold; shuffled so index order is not row order
        xy = np.stack(np.meshgrid(np.arange(12.0), np.arange(12.0)), axis=-1).reshape(-1, 2)
        pts = xy[np.random.default_rng(5).permutation(len(xy))]
        fast = knn_indices(pts, 5)
        slow = brute_force_knn(pts, 5)
        for f, s in zip(fast, slow):
            assert f.tolist() == s.tolist()

    def test_two_plane_scene_matches_brute_force(self):
        # wall points share exact (x, y) across beams, up to 20 per spot
        cloud = synthesize_scene(SceneSpec(kind="two_plane", point_count=4000), seed=1)
        pts = cloud.xyz[:, :2]
        fast = knn_indices(pts, 10)
        slow = brute_force_knn(pts, 10)
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
        table = loop_build_knn_graph(frame, k)
        np.testing.assert_array_equal(g.neighbors, table)
        assert g.neighbors.dtype == table.dtype == np.int64


class TestBuildFeatures:
    def test_observed_point(self):
        cloud = PointCloud(
            xyz=np.array([[1.0, 2.0, 3.0], [0.0, 0.0, -1.0]]),
            reflectance=np.zeros(2), beam=np.array([63, 1]),
        )
        frame = ingest.SparseFrame(cloud=cloud, dropped_mask=np.array([False, False]))
        feats = build_features(frame)
        np.testing.assert_allclose(feats[0], [1.0, 2.0, 3.0, 1.0])

    def test_dropped_point_masked(self):
        cloud = PointCloud(
            xyz=np.array([[1.0, 2.0, 3.0]]), reflectance=np.zeros(1),
            beam=np.array([0]),
        )
        frame = ingest.SparseFrame(cloud=cloud, dropped_mask=np.array([True]))
        np.testing.assert_allclose(build_features(frame)[0], [1.0, 2.0, 0.0, 0.0])

    def test_beam_normalization(self):
        cloud = PointCloud(
            xyz=np.zeros((1, 3)), reflectance=np.zeros(1),
            beam=np.array([32]),
        )
        frame = ingest.SparseFrame(cloud=cloud, dropped_mask=np.array([False]))
        assert build_features(frame)[0, 3] == pytest.approx(32 / 63)

    def test_dropped_nodes_never_expose_truth(self):
        frame = random_frame(np.random.default_rng(1), 300)
        feats = build_features(frame)
        assert np.all(feats[frame.dropped_mask, 2] == 0.0)


class TestBuildKnnGraph:
    def test_row_lengths_k_plus_one(self):
        frame = random_frame(np.random.default_rng(2), 120)
        g = build_knn_graph(frame, k=5)
        assert g.neighbors.shape == (120, 6)
        assert g.num_nodes == 120 and g.num_edges == 720
        # rows are strictly ascending, so no row repeats a neighbor
        assert np.all(np.diff(g.neighbors, axis=1) > 0)

    def test_self_loop_present(self):
        frame = random_frame(np.random.default_rng(3), 50)
        g = build_knn_graph(frame, k=3)
        for i in range(g.num_nodes):
            assert i in g.neighbors[i]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        frame = random_frame(rng, 80)
        g = build_knn_graph(frame, k=4)
        perm = rng.permutation(80)
        inv = np.argsort(perm)
        cloud_p = PointCloud(
            xyz=frame.cloud.xyz[perm], reflectance=frame.cloud.reflectance[perm],
            beam=frame.cloud.beam[perm],
        )
        frame_p = ingest.SparseFrame(cloud=cloud_p, dropped_mask=frame.dropped_mask[perm])
        g_p = build_knn_graph(frame_p, k=4)
        # new node i is old node perm[i]; old id o relabels to inv[o]
        for new_i in range(80):
            old_i = perm[new_i]
            assert set(g_p.neighbors[new_i].tolist()) == {int(inv[o]) for o in g.neighbors[old_i]}

    def test_distance_is_planar(self):
        # node 0 is dropped (masked z = 0): in the plane its nearest point is
        # node 1, while masked 3-D distance would pick node 2
        cloud = PointCloud(
            xyz=np.array([[0.0, 0.0, 5.0], [0.1, 0.0, 5.0], [1.0, 0.0, 0.0]]),
            reflectance=np.zeros(3), beam=np.array([0, 1, 2]),
        )
        frame = ingest.apply_beam_dropout(cloud, nth=4)
        assert frame.dropped_mask.tolist() == [True, False, False]
        g = build_knn_graph(frame, k=1)
        assert g.neighbors[0].tolist() == [0, 1]


@st.composite
def duplicate_heavy_frames(draw):
    """(frame, k) over up to 60 points on a 3 x 3 lattice, so most points
    coincide with others and a row's k-th distance often ties more
    candidates than the first kd-tree query returns."""
    n = draw(st.integers(2, 60))
    cells = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=n, max_size=n))
    k = draw(st.integers(1, n - 1))
    return frame_from_xy(np.array(cells, dtype=np.float64)), k


@settings(max_examples=200, deadline=None)
@given(duplicate_heavy_frames())
def test_knn_graph_rows_are_self_plus_brute_force_neighbours(frame_and_k):
    frame, k = frame_and_k
    g = build_knn_graph(frame, k)
    n = len(frame.cloud)
    assert g.neighbors.shape == (n, k + 1)
    assert np.all(np.diff(g.neighbors, axis=1) > 0)
    for i, (row, nearest) in enumerate(zip(g.neighbors, brute_force_knn(frame.cloud.xyz[:, :2], k))):
        assert np.count_nonzero(row == i) == 1
        assert row[row != i].tolist() == sorted(nearest.tolist())
