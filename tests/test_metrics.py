import numpy as np
import pytest

from beamgat.metrics import EvalReport, aggregate, chamfer, rmse_xyz, rmse_z


def brute_chamfer(a, b):
    d_ab = np.array([np.min(np.linalg.norm(b - p, axis=1)) for p in a])
    d_ba = np.array([np.min(np.linalg.norm(a - p, axis=1)) for p in b])
    return 0.5 * (d_ab.mean() + d_ba.mean())


class TestRmseZ:
    def test_perfect(self):
        z = np.array([1.0, 2.0, 3.0])
        assert rmse_z(z, z) == 0.0

    def test_unit_errors(self):
        assert rmse_z(np.array([1.0, -1.0]), np.zeros(2)) == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        # errors 3 and 4 -> sqrt((9 + 16) / 2)
        assert rmse_z(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(np.sqrt(12.5))

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        z_hat = rng.normal(size=50)
        z = rng.normal(size=50)
        perm = rng.permutation(50)
        assert rmse_z(z_hat, z) == pytest.approx(rmse_z(z_hat[perm], z[perm]), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse_z(np.array([]), np.array([]))


class TestRmseXyz:
    def test_perfect(self):
        p = np.random.default_rng(1).normal(size=(10, 3))
        assert rmse_xyz(p, p) == 0.0

    def test_sqrt3_identity_for_z_only(self):
        rng = np.random.default_rng(2)
        truth = rng.normal(size=(40, 3))
        recon = truth.copy()
        recon[:, 2] += rng.normal(size=40)
        assert rmse_xyz(recon, truth) * np.sqrt(3) == pytest.approx(
            rmse_z(recon[:, 2], truth[:, 2]), abs=1e-12
        )

    def test_published_ratio_examples(self):
        # the z-only identity reproduces the published metric pairs
        assert 0.472 / np.sqrt(3) == pytest.approx(0.272, abs=1e-3)
        assert 0.181 / np.sqrt(3) == pytest.approx(0.104, abs=1e-3)


class TestChamfer:
    def test_identical_sets(self):
        p = np.random.default_rng(3).normal(size=(20, 3))
        assert chamfer(p, p) == 0.0

    def test_single_pair(self):
        assert chamfer(np.array([[0.0, 0.0, 0.0]]), np.array([[3.0, 4.0, 0.0]])) == pytest.approx(5.0)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(30, 3))
        b = rng.normal(size=(45, 3))
        assert chamfer(a, b) == pytest.approx(chamfer(b, a), abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(25, 3))
        b = rng.normal(size=(25, 3))
        shift = np.array([10.0, -4.0, 2.5])
        assert chamfer(a + shift, b + shift) == pytest.approx(chamfer(a, b), abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(200, 3))
        b = rng.normal(size=(170, 3))
        assert chamfer(a, b) == pytest.approx(brute_chamfer(a, b), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chamfer(np.empty((0, 3)), np.ones((2, 3)))


def make_report(**kw):
    base = dict(frame="f", method="m", k=10, rmse_z=1.0, rmse_xyz=0.5,
                chamfer=0.2, train_s=1.0, infer_s=0.1, n_dropped=100)
    base.update(kw)
    return EvalReport(**base)


class TestAggregate:
    def test_identical_reports_sd_zero(self):
        agg = aggregate([make_report(), make_report()])
        assert agg["rmse_z"] == (1.0, 0.0)

    def test_hand_values(self):
        agg = aggregate([make_report(rmse_z=1.0), make_report(rmse_z=3.0)])
        mean, sd = agg["rmse_z"]
        assert mean == pytest.approx(2.0)
        assert sd == pytest.approx(np.sqrt(2.0))

    def test_single_report(self):
        agg = aggregate([make_report(rmse_z=0.7)])
        assert agg["rmse_z"] == (pytest.approx(0.7), 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])
