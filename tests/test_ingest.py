import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from beamgat import ingest
from beamgat.ingest import (
    ELEV_MAX_DEG,
    ELEV_MIN_DEG,
    NUM_BEAMS,
    FrameError,
    PointCloud,
    apply_beam_dropout,
    estimate_beams,
    read_kitti_bin,
    stratified_sample,
    write_kitti_bin,
)

from conftest import random_frame


def write_bin(path, records):
    with open(path, "wb") as fh:
        for rec in records:
            fh.write(struct.pack("<4f", *rec))


def uniform_cloud(n_per_beam=10, num_beams=8, seed=0):
    rng = np.random.default_rng(seed)
    n = n_per_beam * num_beams
    return PointCloud(
        xyz=rng.uniform(-5, 5, size=(n, 3)),
        reflectance=rng.uniform(0, 1, size=n),
        beam=np.repeat(np.arange(num_beams), n_per_beam),
    )


class TestReadKittiBin:
    def test_two_point_decode(self, tmp_path):
        p = tmp_path / "frame.bin"
        write_bin(p, [(1.0, 2.0, 3.0, 0.5), (4.0, 5.0, 6.0, 0.1)])
        cloud = read_kitti_bin(p)
        assert len(cloud) == 2
        np.testing.assert_allclose(cloud.xyz, [[1, 2, 3], [4, 5, 6]])
        np.testing.assert_allclose(cloud.reflectance, [0.5, 0.1], atol=1e-7)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.bin"
        p.write_bytes(b"")
        assert len(read_kitti_bin(p)) == 0

    def test_truncated_record(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\x00" * 17)
        with pytest.raises(FrameError, match="not a multiple of 16"):
            read_kitti_bin(p)

    def test_nonfinite_points_skipped_and_counted(self, tmp_path):
        p = tmp_path / "nan.bin"
        write_bin(p, [(1.0, 2.0, 3.0, 0.5), (np.nan, 0.0, 0.0, 0.2), (4.0, 5.0, 6.0, 0.1)])
        cloud = read_kitti_bin(p)
        assert len(cloud) == 2
        assert cloud.skipped_nonfinite == 1

    # the file is rewritten by every example, so one tmp_path serves them all
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=st.lists(st.tuples(*[st.floats(width=32, allow_nan=False, allow_infinity=False)] * 4),
                            max_size=30),
           bad=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 3),
                                  st.sampled_from([np.nan, np.inf, -np.inf])), max_size=5))
    def test_round_trip(self, tmp_path, records, bad):
        # float32 records decode exactly and in order, with reflectance clipped
        # to [0, 1]; a record with a non-finite value, injected before any
        # position, is skipped and counted
        finite = np.array(records, dtype="<f4").reshape(-1, 4)
        rec, good = finite, np.ones(len(finite), dtype=bool)
        for pos, col, value in bad:
            row = np.zeros((1, 4), dtype="<f4")
            row[0, col] = value
            pos = min(pos, len(rec))
            rec, good = np.insert(rec, pos, row, axis=0), np.insert(good, pos, False)
        p = tmp_path / "rt.bin"
        rec.tofile(p)
        cloud = read_kitti_bin(p)
        assert cloud.skipped_nonfinite == len(bad) and len(cloud) == len(finite)
        np.testing.assert_array_equal(cloud.xyz, finite[:, :3].astype(np.float64))
        np.testing.assert_array_equal(cloud.reflectance, np.clip(finite[:, 3].astype(np.float64), 0.0, 1.0))
        assert np.all((cloud.reflectance >= 0.0) & (cloud.reflectance <= 1.0))
        write_kitti_bin(cloud, p)
        back = read_kitti_bin(p)
        assert back.skipped_nonfinite == 0
        assert back.xyz.tobytes() == cloud.xyz.tobytes()
        assert back.reflectance.tobytes() == cloud.reflectance.tobytes()


class TestEstimateBeams:
    def test_horizontal_point(self):
        cloud = PointCloud(xyz=np.array([[1.0, 0.0, 0.0]]), reflectance=np.zeros(1))
        out = estimate_beams(cloud)
        # phi = 0 deg -> floor((0 + 24.8) / 26.8 * 64) = 59
        assert out.beam[0] == 59

    @settings(max_examples=200, deadline=None)
    @example(planar=1.0, elev_deg=[-24.8, 10.0], origin_at=2)
    @given(planar=st.floats(1e-3, 1e3), elev_deg=st.lists(st.floats(-89.9, 89.9), min_size=1, max_size=40),
           origin_at=st.integers(0, 40))
    def test_boundaries(self, planar, elev_deg, origin_at):
        # points on the +x axis at one planar distance, in rising elevation,
        # with a point at the origin inserted among them
        elev_deg = np.sort(elev_deg)
        xyz = np.column_stack([np.full(elev_deg.size, planar), np.zeros(elev_deg.size),
                               planar * np.tan(np.radians(elev_deg))])
        origin_at = min(origin_at, elev_deg.size)
        xyz = np.insert(xyz, origin_at, 0.0, axis=0)
        beam = estimate_beams(PointCloud(xyz=xyz, reflectance=np.zeros(len(xyz)))).beam
        assert beam[origin_at] == 0
        beam = np.delete(beam, origin_at)
        assert np.all((beam >= 0) & (beam < NUM_BEAMS))
        assert np.all(beam[elev_deg > ELEV_MAX_DEG] == NUM_BEAMS - 1)  # above the range: clamped
        assert np.all(beam[elev_deg < ELEV_MIN_DEG] == 0)  # below it: clamped
        assert np.all(np.diff(beam) >= 0)  # never decreases as elevation rises

    def test_origin_point_flagged_beam_zero(self):
        cloud = PointCloud(xyz=np.zeros((1, 3)), reflectance=np.zeros(1))
        assert estimate_beams(cloud).beam[0] == 0

    def test_order_independence(self):
        rng = np.random.default_rng(11)
        xyz = rng.uniform(-20, 20, size=(100, 3))
        cloud = PointCloud(xyz=xyz, reflectance=np.zeros(100))
        beams = estimate_beams(cloud).beam
        perm = rng.permutation(100)
        permuted = estimate_beams(PointCloud(xyz=xyz[perm], reflectance=np.zeros(100)))
        np.testing.assert_array_equal(permuted.beam, beams[perm])


def reference_stratified_sample(cloud, target, seed):
    """Selected row indices of the per-beam loops that ``stratified_sample``
    replaced (largest-remainder adjust and one draw per beam). A beam
    already at its count passes its extra point to the next remainder, and
    the cut repeats its pass over the beams until the total is ``target``."""
    n = len(cloud)
    counts = np.bincount(cloud.beam)
    nonempty = np.flatnonzero(counts)
    exact = counts[nonempty] * (target / n)
    quota = np.maximum(np.floor(exact).astype(np.int64), 1)
    remainder = exact - np.floor(exact)
    short = target - int(quota.sum())
    if short > 0:
        order = np.lexsort((nonempty, -remainder))
        for b in order:
            if short > 0 and quota[b] < counts[nonempty[b]]:
                quota[b] += 1
                short -= 1
    elif short < 0:
        order = np.lexsort((-nonempty, remainder))
        while short < 0:
            for b in order:
                if short < 0 and quota[b] > 1:
                    quota[b] -= 1
                    short += 1
    quota = np.minimum(quota, counts[nonempty])
    rng = np.random.default_rng(seed)
    keep = np.zeros(n, dtype=bool)
    for b, q in zip(nonempty, quota):
        idx = np.flatnonzero(cloud.beam == b)
        keep[rng.choice(idx, size=int(q), replace=False)] = True
    return np.flatnonzero(keep)


class TestStratifiedSample:
    def test_matches_per_beam_loops(self):
        # random frames: skewed beam populations, many single-point beams,
        # beams of equal size (so remainders tie), and targets from the beam
        # count up, so both adjust directions are taken
        directions = set()
        for case in range(300):
            rng = np.random.default_rng(case)
            num_beams = int(rng.integers(2, 65))
            if case % 2:
                counts = rng.choice([0, 1, 1, 2, 7, 30], size=num_beams)
            else:
                counts = rng.poisson(rng.exponential(size=num_beams) ** 3 * 40)
            counts[rng.integers(num_beams)] += 1
            beam = rng.permutation(np.repeat(np.arange(num_beams), counts))
            n = beam.size
            cloud = PointCloud(xyz=rng.normal(size=(n, 3)), reflectance=np.zeros(n),
                               beam=beam)
            nonempty = np.unique(beam).size
            if n - 1 < nonempty:
                continue
            target = int(rng.integers(nonempty, n))
            exact = np.bincount(beam)[np.unique(beam)] * (target / n)
            directions.add(np.sign(target - np.maximum(np.floor(exact), 1).sum()))
            out = stratified_sample(cloud, target, seed=case)
            sel = reference_stratified_sample(cloud, target, seed=case)
            np.testing.assert_array_equal(out.xyz, cloud.xyz[sel], err_msg=f"case {case}")
            np.testing.assert_array_equal(out.beam, beam[sel], err_msg=f"case {case}")
        assert directions == {-1, 0, 1}

    @settings(max_examples=300, deadline=None)
    @given(counts=st.lists(st.integers(0, 6), min_size=1, max_size=12), data=st.data())
    def test_returns_exactly_target(self, counts, data):
        # small beams (many of them at 1 or 2 points) are where the
        # floor-of-1 rule fills a beam that a largest remainder also picks,
        # or lifts the total more than one point per beam above target
        counts = np.array(counts)
        n, nonempty = int(counts.sum()), int(np.count_nonzero(counts))
        assume(nonempty <= n - 1)
        target = data.draw(st.integers(nonempty, n - 1), label="target")
        beam = np.repeat(np.arange(counts.size), counts)
        cloud = PointCloud(xyz=np.column_stack([np.arange(n), np.zeros((n, 2))]), reflectance=np.zeros(n),
                           beam=beam)
        out = stratified_sample(cloud, target, seed=data.draw(st.integers(0, 2**32 - 1), label="seed"))
        assert len(out) == target
        kept = np.bincount(out.beam, minlength=counts.size)
        assert np.all(kept[counts > 0] >= 1)
        assert np.all(kept <= counts)
        assert np.all(np.diff(out.xyz[:, 0]) > 0)

    def test_target_below_populated_beams_rejected(self):
        cloud = uniform_cloud(n_per_beam=5, num_beams=8)
        with pytest.raises(ValueError, match="below number of non-empty beams 8"):
            stratified_sample(cloud, target=7, seed=0)

    def test_proportional_quota(self):
        cloud = uniform_cloud(n_per_beam=25, num_beams=4)
        out = stratified_sample(cloud, target=40, seed=0)
        assert len(out) == 40
        np.testing.assert_array_equal(np.bincount(out.beam), [10, 10, 10, 10])

    def test_target_at_least_cloud_returns_identity(self):
        cloud = uniform_cloud()
        out = stratified_sample(cloud, target=len(cloud) + 5, seed=0)
        assert out is cloud

    def test_determinism(self):
        cloud = uniform_cloud(n_per_beam=30, num_beams=6, seed=2)
        a = stratified_sample(cloud, target=50, seed=9)
        b = stratified_sample(cloud, target=50, seed=9)
        np.testing.assert_array_equal(a.xyz, b.xyz)

    def test_never_empties_populated_beam(self):
        rng = np.random.default_rng(4)
        beam = np.concatenate([np.zeros(90, dtype=int), [1], np.full(60, 2)])
        cloud = PointCloud(
            xyz=rng.uniform(size=(151, 3)), reflectance=np.zeros(151),
            beam=beam,
        )
        out = stratified_sample(cloud, target=30, seed=1)
        assert set(np.unique(out.beam)) == {0, 1, 2}

    def test_preserves_relative_order(self):
        cloud = uniform_cloud(n_per_beam=20, num_beams=4, seed=3)
        out = stratified_sample(cloud, target=30, seed=5)
        # selected xyz rows appear in the same order as in the source
        src = cloud.xyz.tolist()
        positions = [src.index(row) for row in out.xyz.tolist()]
        assert positions == sorted(positions)


class TestApplyBeamDropout:
    def test_canonical_quarter_drop(self):
        cloud = uniform_cloud(n_per_beam=10, num_beams=64)
        frame = apply_beam_dropout(cloud, nth=4)
        fraction = frame.dropped_mask.mean()
        assert fraction == pytest.approx(0.25)
        assert 0.20 <= fraction <= 0.30

    def test_mask_semantics(self):
        cloud = uniform_cloud(num_beams=8, seed=6)
        frame = apply_beam_dropout(cloud, nth=4)
        assert np.all(frame.z_masked[frame.dropped_mask] == 0.0)
        np.testing.assert_array_equal(
            frame.z_masked[~frame.dropped_mask], frame.z_truth[~frame.dropped_mask]
        )

    def test_z_truth_is_a_read_only_copy_of_the_cloud_z(self):
        cloud = uniform_cloud(num_beams=8, seed=6)
        z = cloud.xyz[:, 2].copy()
        frame = apply_beam_dropout(cloud, nth=4)
        cloud.xyz[:, 2] += 1.0
        np.testing.assert_array_equal(frame.z_truth, z)
        with pytest.raises(ValueError, match="read-only"):
            frame.z_truth[0] = 0.0

    def test_all_beams_dropped_rejected(self):
        cloud = uniform_cloud(num_beams=8)
        cloud = PointCloud(
            xyz=cloud.xyz[cloud.beam == 0], reflectance=cloud.reflectance[cloud.beam == 0],
            beam=cloud.beam[cloud.beam == 0],
        )
        with pytest.raises(FrameError, match="drops every populated beam"):
            apply_beam_dropout(cloud, nth=4)

    def test_no_beam_dropped_rejected(self):
        cloud = uniform_cloud(num_beams=8)
        keep = cloud.beam % 4 != 0
        cloud = PointCloud(
            xyz=cloud.xyz[keep], reflectance=cloud.reflectance[keep],
            beam=cloud.beam[keep],
        )
        with pytest.raises(FrameError, match="drops no populated beam"):
            apply_beam_dropout(cloud, nth=4)

    @pytest.mark.parametrize("beam, dropped, error, message", [
        (None, [True, False], ValueError, "beam indices must be set"),
        ([0, 1], [False, False], FrameError, "drops no populated beam"),
        ([0, 1], [True, True], FrameError, "drops every populated beam"),
    ])
    def test_frame_checks_itself(self, beam, dropped, error, message):
        cloud = PointCloud(xyz=np.ones((2, 3)), reflectance=np.zeros(2),
                           beam=None if beam is None else np.array(beam))
        with pytest.raises(error, match=message):
            ingest.SparseFrame(cloud=cloud, dropped_mask=np.array(dropped))

    def test_idempotent_masks(self):
        frame = random_frame(np.random.default_rng(8), 200)
        again = apply_beam_dropout(frame.cloud, nth=4)
        np.testing.assert_array_equal(again.dropped_mask, frame.dropped_mask)

    @settings(max_examples=300, deadline=None)
    @given(num_beams=st.integers(1, 64), nth=st.integers(2, 8), data=st.data())
    def test_mask_is_beam_mod_nth(self, num_beams, nth, data):
        beam = np.array(data.draw(st.lists(st.integers(0, num_beams - 1), max_size=40), label="beam"),
                        dtype=np.int64)
        n = beam.size
        xyz = np.column_stack([np.arange(n), -np.arange(n), np.arange(n) + 1.0])
        cloud = PointCloud(xyz=xyz, reflectance=np.zeros(n), beam=beam)
        populated = np.unique(beam)
        hit = populated % nth == 0
        if not hit.any() or hit.all():
            message = "drops no populated beam" if not hit.any() else "drops every populated beam"
            with pytest.raises(FrameError, match=message):
                apply_beam_dropout(cloud, nth)
            return
        frame = apply_beam_dropout(cloud, nth)
        np.testing.assert_array_equal(frame.dropped_mask, beam % nth == 0)
        np.testing.assert_array_equal(frame.z_masked == 0.0, frame.dropped_mask)
        observed = ~frame.dropped_mask
        np.testing.assert_array_equal(frame.z_masked[observed], frame.z_truth[observed])
