import numpy as np
import pytest

from scipy.spatial import cKDTree

from beamgat import baselines, ingest, synth
from beamgat.baselines import _azimuth_bins, linear_interp, nearest_neighbor_sub
from beamgat.ingest import PointCloud

from conftest import random_frame


def loop_linear_interp(frame: ingest.SparseFrame, bin_count: int = 360) -> np.ndarray:
    """Per-point reference for ``linear_interp``: representatives chosen one
    observed point at a time, each dropped point interpolated on its own."""
    cloud = frame.cloud
    obs = np.flatnonzero(frame.observed_mask)
    azim = np.arctan2(cloud.xyz[:, 1], cloud.xyz[:, 0])
    bins = _azimuth_bins(azim, bin_count)
    centers = (np.arange(bin_count) + 0.5) / bin_count * 2 * np.pi - np.pi

    rep: dict[tuple[int, int], int] = {}
    rep_err: dict[tuple[int, int], float] = {}
    for i in obs:
        key = (int(bins[i]), int(cloud.beam[i]))
        err = abs(azim[i] - centers[bins[i]])
        if key not in rep or err < rep_err[key]:
            rep[key] = int(i)
            rep_err[key] = err

    beams_in_bin: dict[int, list[int]] = {}
    for (b, beam) in rep:
        beams_in_bin.setdefault(b, []).append(beam)
    avail_by_bin = {b: np.sort(np.array(v)) for b, v in beams_in_bin.items()}

    dropped = np.flatnonzero(frame.dropped_mask)
    tree = cKDTree(cloud.xyz[obs, :2])
    z_hat = np.empty(dropped.size)
    for out_i, i in enumerate(dropped):
        b, beam = int(bins[i]), int(cloud.beam[i])
        avail = avail_by_bin.get(b)
        if avail is None or avail.size == 0:
            _, j = tree.query(cloud.xyz[i, :2])
            z_hat[out_i] = frame.z_truth[obs[j]]
            continue
        lower = avail[avail < beam]
        upper = avail[avail > beam]
        if lower.size and upper.size:
            b0, b1 = int(lower[-1]), int(upper[0])
            z0 = frame.z_truth[rep[(b, b0)]]
            z1 = frame.z_truth[rep[(b, b1)]]
            t = (beam - b0) / (b1 - b0)
            z_hat[out_i] = z0 + t * (z1 - z0)
        else:
            nearest = int(lower[-1]) if lower.size else int(upper[0])
            z_hat[out_i] = frame.z_truth[rep[(b, nearest)]]
    return z_hat


def drop_every_4th(cloud: PointCloud, offset: int = 0) -> ingest.SparseFrame:
    """Dropout of the beams b with (b - offset) % 4 == 0: every beam is
    renumbered up by (-offset) % 4, then every 4th beam is dropped. Both
    baselines read beam indices only relative to one another."""
    shift = -offset % 4
    shifted = PointCloud(xyz=cloud.xyz, reflectance=cloud.reflectance, beam=cloud.beam + shift)
    return ingest.apply_beam_dropout(shifted, nth=4)


def frame_from(xyz, beams, offset=0):
    cloud = PointCloud(xyz=np.asarray(xyz, dtype=float), reflectance=np.zeros(len(xyz)),
                       beam=np.asarray(beams))
    return drop_every_4th(cloud, offset)


def beam_plane_frame(n_beams=12, per_beam=6, slope=0.1, seed=0, offset=0):
    """z = slope * beam, points spread in azimuth; linear in beam index."""
    rng = np.random.default_rng(seed)
    pts, beams = [], []
    for b in range(n_beams):
        for j in range(per_beam):
            theta = (j + 0.5) / per_beam * 2 * np.pi - np.pi
            r = 10.0 + rng.uniform(0, 0.1)
            pts.append([r * np.cos(theta), r * np.sin(theta), slope * b])
            beams.append(b)
    return frame_from(pts, beams, offset=offset)


class TestLinearInterp:
    def test_bracketed_midpoint(self):
        # dropped beam 4 between beams 3 (z=1) and 5 (z=3), same azimuth bin
        pts = [[10.0, 0.0, 1.0], [10.0, 0.001, 2.0], [10.0, 0.002, 3.0], [0.0, 10.0, 9.0]]
        beams = [3, 4, 5, 6]
        frame = frame_from(pts, beams)
        assert frame.dropped_mask.tolist() == [False, True, False, False]
        z_hat = linear_interp(frame)
        assert z_hat[0] == pytest.approx(2.0)

    def test_one_sided_fallback(self):
        # dropped beam 0 with only higher beams observed: copies nearest higher z
        pts = [[10.0, 0.0, 5.0], [10.0, 0.1, 1.5], [10.0, 0.2, 2.5]]
        frame = frame_from(pts, [0, 1, 2])
        z_hat = linear_interp(frame)
        assert z_hat[0] == pytest.approx(1.5)

    def test_exact_on_beam_affine_plane(self):
        # offset 2 keeps every dropped beam bracketed by observed ones
        frame = beam_plane_frame(offset=2)
        dropped = np.flatnonzero(frame.dropped_mask)
        z_hat = linear_interp(frame)
        np.testing.assert_allclose(z_hat, frame.z_truth[dropped], atol=1e-12)

    def test_rejects_all_dropped(self):
        pts = [[1.0, 0.0, 0.5], [2.0, 0.0, 0.6]]
        cloud = PointCloud(xyz=np.array(pts), reflectance=np.zeros(2),
                           beam=np.array([0, 1]))
        with pytest.raises(ingest.FrameError, match="drops every populated beam"):
            ingest.SparseFrame(cloud=cloud, dropped_mask=np.array([True, True]))

    def test_deterministic(self):
        frame = beam_plane_frame(seed=3)
        a = linear_interp(frame)
        b = linear_interp(frame)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind, point_count, noise_sigma, offset", [
        ("two_plane", 4000, 0.45, 0),
        ("sinusoid", 2600, 0.45, 1),
        ("plane", 1500, 0.0, 3),
    ])
    def test_matches_loop_reference_on_scenes(self, kind, point_count, noise_sigma, offset):
        spec = synth.SceneSpec(kind=kind, point_count=point_count, noise_sigma=noise_sigma)
        frame = drop_every_4th(synth.synthesize_scene(spec, seed=1), offset)
        z_hat = linear_interp(frame)
        assert z_hat.tobytes() == loop_linear_interp(frame).tobytes()

    @pytest.mark.parametrize("n, bin_count", [(40, 360), (300, 360), (2000, 90), (500, 7)])
    def test_matches_loop_reference_on_random_frames(self, n, bin_count, monkeypatch):
        # few points per bin leave many bins empty (tree fallback); few bins
        # put many points of one beam in a bin (representative choice)
        monkeypatch.setattr(baselines, "AZIMUTH_BINS", bin_count)
        frame = random_frame(np.random.default_rng(n), n, num_beams=12)
        z_hat = linear_interp(frame)
        assert z_hat.tobytes() == loop_linear_interp(frame, bin_count=bin_count).tobytes()

    @pytest.mark.parametrize("bin_count", [360, 7])
    def test_matches_loop_reference_with_one_observed_beam(self, bin_count, monkeypatch):
        # beams {4, 5}: beam 4 is dropped and beam 5 alone is observed, so
        # every dropped point copies beam 5 in its bin or falls back to the
        # planar-nearest observed point
        rng = np.random.default_rng(bin_count)
        cloud = PointCloud(xyz=rng.uniform(-10, 10, size=(200, 3)), reflectance=np.zeros(200),
                           beam=rng.integers(4, 6, size=200))
        frame = ingest.apply_beam_dropout(cloud, nth=4)
        assert np.unique(cloud.beam[frame.observed_mask]).tolist() == [5]
        monkeypatch.setattr(baselines, "AZIMUTH_BINS", bin_count)
        z_hat = linear_interp(frame)
        assert z_hat.tobytes() == loop_linear_interp(frame, bin_count=bin_count).tobytes()
        assert np.isin(z_hat, frame.z_truth[frame.observed_mask]).all()

    def test_representative_ties_keep_first_observed_index(self):
        # beams 0 and 2 each hold two points equally far from the bin center;
        # the first observed one of each pair is the representative
        pts = [[10.0, 0.5, 1.0], [10.0, 0.5, 7.0], [10.0, 0.5, 4.0],
               [10.0, 0.5, 3.0], [10.0, 0.5, 9.0], [0.0, 10.0, 0.0]]
        beams = [0, 0, 1, 2, 2, 3]
        frame = frame_from(pts, beams, offset=1)
        assert frame.dropped_mask.tolist() == [False, False, True, False, False, False]
        z_hat = linear_interp(frame)
        assert z_hat[0] == pytest.approx(2.0)
        assert z_hat.tobytes() == loop_linear_interp(frame).tobytes()


class TestNearestNeighborSub:
    def test_coincident_planar_point(self):
        pts = [[5.0, 5.0, 1.0], [5.0, 5.0, 3.0], [1.0, 1.0, 2.0]]
        frame = frame_from(pts, [0, 1, 2])
        assert frame.dropped_mask.tolist() == [True, False, False]
        recon = nearest_neighbor_sub(frame)
        np.testing.assert_allclose(recon[0], [5.0, 5.0, 3.0])

    def test_single_observed_point_absorbs_all(self):
        pts = [[0.0, 0.0, 1.0], [9.0, 9.0, 2.0], [3.0, -3.0, 0.5]]
        frame = frame_from(pts, [0, 4, 1])  # beams 0 and 4 dropped
        recon = nearest_neighbor_sub(frame)
        assert recon.shape == (2, 3)
        for row in recon:
            np.testing.assert_allclose(row, [3.0, -3.0, 0.5])

    def test_reconstructions_coincide_with_observed_points(self):
        frame = beam_plane_frame(seed=5)
        obs = frame.cloud.xyz[frame.observed_mask]
        recon = nearest_neighbor_sub(frame)
        for row in recon:
            assert np.min(np.linalg.norm(obs - row, axis=1)) < 1e-12

    def test_full_substitution_changes_xy(self):
        # the substituted (x, y) generally differ from the dropped point's own
        frame = beam_plane_frame(seed=7)
        dropped = np.flatnonzero(frame.dropped_mask)
        recon = nearest_neighbor_sub(frame)
        assert np.any(np.abs(recon[:, :2] - frame.cloud.xyz[dropped, :2]) > 1e-9)
