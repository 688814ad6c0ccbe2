"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run as part of the normal suite; the slow end-to-end criteria (4, 5) train
models and take several minutes each.  Criterion 9 needs a real KITTI frame
supplied via the BEAMGAT_KITTI_FRAME environment variable and is skipped
otherwise.
"""

import os

import numpy as np
import pytest

from beamgat import baselines, graph as graph_mod, ingest, metrics, synth
from beamgat import tensor_ad as T
from beamgat.graph import knn_indices
from beamgat.model import ModelConfig, bind_params, forward, gat_attention_layer, init_params
from beamgat.tensor_ad import Tape, Tensor
from beamgat.trainer import TrainConfig, predict_dropped, train_frame

from conftest import finite_diff_grad, rel_err
from test_graph import brute_force_knn
from test_metrics import brute_chamfer
from test_model import dense_gat_layer, dense_superior_forward, make_graph, path_graph, random_graph

# The synthetic benchmark scene for criteria 4/5: a noisy sinusoidal ground
# surface.  Sensor noise is what separates the methods — interpolation
# amplifies input noise while attention averaging suppresses it; on a
# noiseless smooth surface linear interpolation is near-optimal by
# construction and no learned smoother can beat it.
BENCH_SIGMA = 0.45
BENCH_POINTS = 2600  # requested rays; >= 2000 land on the surface
BENCH_SEEDS = (1, 2, 3)
BENCH_TRAIN = dict(epochs=300, learning_rate=1e-2, patience=50)


def _verdict(num, name, capsys, body):
    try:
        detail = body() or ""
        ok = True
    except AssertionError as exc:
        detail = str(exc).splitlines()[0]
        ok = False
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print("\n" + line)
    if not ok:
        pytest.fail(line)


def _bench_frame(seed):
    spec = synth.SceneSpec(kind="sinusoid", point_count=BENCH_POINTS, noise_sigma=BENCH_SIGMA)
    cloud = synth.synthesize_scene(spec, seed)
    return ingest.apply_beam_dropout(cloud, nth=4)


def _train_and_score(frame, graph, architecture, seed, **overrides):
    cfg = ModelConfig()
    tc = TrainConfig(**{**BENCH_TRAIN, **overrides})
    result = train_frame(frame, graph, architecture, cfg, tc, seed)
    z_hat, infer_s = predict_dropped(frame, graph, result.params, architecture, cfg)
    truth = frame.z_truth[np.flatnonzero(frame.dropped_mask)]
    return metrics.rmse_z(z_hat, truth), result.train_time_s + infer_s


# ---------------------------------------------------------------------------
# 1. sqrt(3) structural identity
# ---------------------------------------------------------------------------


def test_criterion_01_sqrt3_identity(capsys, small_sine_frame, small_sine_graph):
    def body():
        frame = small_sine_frame
        dropped = np.flatnonzero(frame.dropped_mask)
        truth = frame.cloud.xyz[dropped].copy()
        truth[:, 2] = frame.z_truth[dropped]

        def z_only_identity(z_hat, label):
            recon = truth.copy()
            recon[:, 2] = z_hat
            gap = abs(metrics.rmse_xyz(recon, truth) * np.sqrt(3.0) - metrics.rmse_z(z_hat, truth[:, 2]))
            assert gap < 1e-12, f"{label}: identity off by {gap:.3e}"

        z_only_identity(baselines.linear_interp(frame), "linear")
        for arch in ("simple_gcn", "gat_baseline", "superior_gat"):
            cfg = ModelConfig()
            params = init_params(arch, cfg, seed=0)
            z_hat, _ = predict_dropped(frame, small_sine_graph, params, arch, cfg)
            z_only_identity(z_hat, arch)

        # nearest-neighbor substitution moves (x, y) too, so it must break
        recon_nn = baselines.nearest_neighbor_sub(frame)
        assert np.abs(recon_nn[:, :2] - truth[:, :2]).max() > 1e-6
        gap = abs(metrics.rmse_xyz(recon_nn, truth) * np.sqrt(3.0) - metrics.rmse_z(recon_nn[:, 2], truth[:, 2]))
        assert gap > 1e-6, "nn substitution unexpectedly satisfied the identity"
        return "4 z-only methods within 1e-12; nn breaks it"

    _verdict(1, "sqrt(3) identity of rmse_xyz vs rmse_z", capsys, body)


# ---------------------------------------------------------------------------
# 2. gradient suite
# ---------------------------------------------------------------------------


def _grad_ok(build, x0, tol):
    tape = Tape()
    x = Tensor(x0, tape)
    loss = build(x)
    tape.backward(loss)
    analytic = x.grad

    def f(v):
        return float(build(Tensor(v)).data)

    return rel_err(analytic, finite_diff_grad(f, x0)) < tol


def test_criterion_02_gradient_suite(capsys):
    def body():
        n_checked = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(3, 8))
            a = rng.normal(size=(m, 4))
            b = rng.normal(size=(4, 3))
            n_edges = 2 * m - 2
            offsets = np.array([0, 2, m, n_edges])
            pairs = rng.normal(size=(n_edges, 3))
            bias = Tensor(rng.normal(size=4))
            logit_src = np.arange(n_edges) % m  # n_edges = 2m - 2 > m, so sources repeat
            ops = [
                lambda x: T.mse_loss(T.reshape(T.matmul(x, Tensor(b)), (-1,)), np.ones(3 * m)),
                lambda x: T.mse_loss(T.reshape(T.leaky_relu(x, 0.2), (-1,)), np.zeros(4 * m)),
                lambda x: T.mse_loss(T.reshape(T.elu(x), (-1,)), np.zeros(4 * m)),
                lambda x: T.mse_loss(T.reshape(T.sigmoid(x), (-1,)), np.zeros(4 * m)),
                lambda x: T.mse_loss(T.reshape(T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4))), (-1,)), np.zeros(4 * m)),
                lambda x: T.mse_loss(T.reshape(T.add(x, bias), (-1,)), np.zeros(4 * m)),
                lambda x: T.mse_loss(T.reshape(T.take_rows(x, np.array([0, 0, m - 1])), (-1,)), np.zeros(12)),
                lambda x: T.mse_loss(T.edge_logits(T.matmul(T.rows(x, 0, 3), Tensor(b[:, :1])),
                                                   T.matmul(x, Tensor(b[:, 1:2])), logit_src, offsets, 0.2),
                                     np.zeros(n_edges)),
            ]
            for op in ops:
                assert _grad_ok(op, a.copy(), 1e-5), f"op gradient check failed at seed {seed}"
                n_checked += 1
            def seg(x):
                alpha = T.segment_softmax(x, offsets)
                out = T.segment_weighted_sum(Tensor(pairs), alpha, offsets)
                return T.mse_loss(T.reshape(out, (-1,)), np.zeros(9))

            assert _grad_ok(seg, rng.normal(size=n_edges), 1e-5), (
                f"segment softmax/weighted-sum gradient failed at seed {seed}"
            )
            n_checked += 1

        # end-to-end: d loss / d params for the full gated model
        cfg = ModelConfig(heads=2, head_width=3, ffn_hidden=5, dec_hidden=4)
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            g = random_graph(rng, n=int(rng.integers(8, 16)), k=3)
            params = init_params("superior_gat", cfg, seed)
            target = rng.normal(size=g.num_nodes)

            def loss_with(p):
                tape = Tape()
                bound = bind_params(p, tape)
                z = forward(g, Tensor(g.features, tape), bound, "superior_gat", cfg)
                return tape, bound, T.mse_loss(z, target)

            tape, bound, loss = loss_with(params)
            tape.backward(loss)
            for name in params:
                analytic = bound[name].grad
                if analytic is None:
                    analytic = np.zeros_like(params[name])

                def f(v, name=name):
                    probe = {k: p.copy() for k, p in params.items()}
                    probe[name] = v.reshape(params[name].shape)
                    return float(loss_with(probe)[2].data)

                numeric = finite_diff_grad(f, params[name].copy())
                assert rel_err(np.asarray(analytic), numeric) < 1e-4, (
                    f"end-to-end gradient mismatch for {name} at seed {seed}"
                )
            n_checked += 1
        return f"{n_checked} gradient checks vs central differences"

    _verdict(2, "gradients match finite differences", capsys, body)


# ---------------------------------------------------------------------------
# 3. dense-attention oracle
# ---------------------------------------------------------------------------


def test_criterion_03_dense_attention_oracle(capsys):
    def body():
        worst = 0.0
        for heads, n, seed in [(1, 10, 0), (1, 60, 1), (4, 10, 2), (4, 100, 3), (4, 37, 4)]:
            cfg = ModelConfig(heads=heads, head_width=5)
            rng = np.random.default_rng(seed)
            g = random_graph(rng, n=n, k=min(6, n - 1))
            params = init_params("superior_gat", cfg, seed)
            bound = bind_params(params, None)
            sparse = gat_attention_layer(g, Tensor(g.features), bound, "attn", cfg).data
            dense = dense_gat_layer(g, g.features, params, "attn", cfg)
            worst = max(worst, float(np.abs(sparse - dense).max()))
        assert worst < 1e-9, f"sparse vs dense attention max gap {worst:.2e}"
        return f"max |sparse - dense| = {worst:.2e} over N up to 100, K in {{1,4}}"

    _verdict(3, "CSR attention equals dense N x N oracle", capsys, body)


# ---------------------------------------------------------------------------
# 4. method ordering on synthetic terrain
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_04_method_ordering(capsys):
    def body():
        scores = {"linear": [], "superior_gat": [], "gat_baseline": [], "simple_gcn": []}
        for seed in BENCH_SEEDS:
            frame = _bench_frame(seed)
            assert frame.cloud.xyz.shape[0] >= 2000
            g = graph_mod.build_knn_graph(frame, k=10)
            truth = frame.z_truth[np.flatnonzero(frame.dropped_mask)]
            scores["linear"].append(metrics.rmse_z(baselines.linear_interp(frame), truth))
            for arch in ("superior_gat", "gat_baseline", "simple_gcn"):
                rmse, _ = _train_and_score(frame, g, arch, seed)
                scores[arch].append(rmse)
        means = {m: float(np.mean(v)) for m, v in scores.items()}
        detail = " ".join(f"{m}={v:.3f}" for m, v in means.items())
        assert means["superior_gat"] < means["gat_baseline"], detail
        assert means["superior_gat"] < means["linear"], detail
        assert means["superior_gat"] < means["simple_gcn"], detail
        return detail

    _verdict(4, "gated model beats linear, GAT baseline and GCN", capsys, body)


# ---------------------------------------------------------------------------
# 5. k-sensitivity shape
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_05_k_sensitivity(capsys):
    def body():
        import gc
        import time

        frame = _bench_frame(1)
        ks = (5, 10, 15, 20)
        graphs = {k: graph_mod.build_knn_graph(frame, k=k) for k in ks}

        # Per-epoch cost comparison between adjacent k values, as the median
        # of paired CPU-time differences: single wall-clock readings on this
        # host vary by +/-30% under hypervisor steal, which would swamp the
        # real edge-count slope.  Measuring each pair back-to-back cancels
        # the slowly-varying load component.
        cfg = ModelConfig()
        params = init_params("superior_gat", cfg, seed=1)
        obs = np.flatnonzero(frame.observed_mask)

        def train_step(g):
            tape = Tape()
            bound = bind_params(params, tape)
            z = forward(g, Tensor(g.features, tape), bound, "superior_gat", cfg)
            loss = T.mse_loss(T.take_rows(z, obs), frame.z_truth[obs])
            tape.backward(loss)

        def timed(k):
            gc.collect()
            t0 = time.process_time()
            train_step(graphs[k])
            return time.process_time() - t0

        train_step(graphs[ks[0]])  # warm-up
        gc.disable()
        slopes = {}
        try:
            for a, b in zip(ks, ks[1:]):
                diffs = []
                for _ in range(16):
                    t_a1, t_b1, t_b2, t_a2 = timed(a), timed(b), timed(b), timed(a)
                    diffs.append(((t_b1 + t_b2) - (t_a1 + t_a2)) / 2)
                slopes[(a, b)] = float(np.median(diffs))
        finally:
            gc.enable()
        assert all(d > 0 for d in slopes.values()), (
            "per-epoch cost not monotone: "
            + " ".join(f"k{a}->k{b}={d * 1e3:+.0f}ms" for (a, b), d in slopes.items())
        )

        rmses = {}
        for k in (5, 10):
            rmses[k], _ = _train_and_score(frame, graphs[k], "superior_gat", seed=1)
        assert rmses[10] <= rmses[5], f"rmse k=10 ({rmses[10]:.3f}) > k=5 ({rmses[5]:.3f})"
        return (
            " ".join(f"k{a}->k{b}: {d * 1e3:+.0f}ms" for (a, b), d in slopes.items())
            + f"; rmse k5 {rmses[5]:.3f} -> k10 {rmses[10]:.3f}"
        )

    _verdict(5, "per-frame cost grows with k; k=10 no worse than k=5", capsys, body)


# ---------------------------------------------------------------------------
# 6. kNN and Chamfer oracles
# ---------------------------------------------------------------------------


def test_criterion_06_knn_chamfer_oracles(capsys):
    def body():
        rng = np.random.default_rng(0)
        pts = rng.uniform(-50, 50, size=(2000, 2))
        fast = knn_indices(pts, k=8)
        slow = brute_force_knn(pts, k=8)
        for i in range(2000):
            assert set(fast[i]) == set(slow[i]), f"kNN mismatch at node {i}"

        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(rng.integers(50, 500), 3))
            b = rng.normal(size=(rng.integers(50, 500), 3))
            worst = max(worst, abs(metrics.chamfer(a, b) - brute_chamfer(a, b)))
        assert worst < 1e-12, f"chamfer gap {worst:.2e}"
        return f"kNN exact on N=2000; chamfer gap {worst:.2e}"

    _verdict(6, "spatial-index kNN and Chamfer match brute force", capsys, body)


# ---------------------------------------------------------------------------
# 7. permutation equivariance
# ---------------------------------------------------------------------------


def test_criterion_07_permutation_equivariance(capsys):
    def body():
        rng = np.random.default_rng(4)
        cfg = ModelConfig(heads=2, head_width=4, ffn_hidden=8, dec_hidden=4)
        g = random_graph(rng, n=40, k=4)
        params = init_params("superior_gat", cfg, seed=2)
        z = forward(g, Tensor(g.features), bind_params(params, None), "superior_gat", cfg).data

        perm = rng.permutation(40)
        inv = np.argsort(perm)
        rows = [
            sorted(
                inv[j]
                for j in g.neighbor_ids[g.row_offsets[perm[i]]:g.row_offsets[perm[i] + 1]]
            )
            for i in range(40)
        ]
        g2 = make_graph(rows, g.features[perm])
        z2 = forward(g2, Tensor(g2.features), bind_params(params, None), "superior_gat", cfg).data
        gap = float(np.abs(z2 - z[perm]).max())
        assert gap < 1e-9, f"equivariance gap {gap:.2e}"
        return f"max |z(pi(G)) - pi(z(G))| = {gap:.2e}"

    _verdict(7, "node relabeling permutes predictions", capsys, body)


# ---------------------------------------------------------------------------
# 8. receptive fields
# ---------------------------------------------------------------------------


def test_criterion_08_receptive_field(capsys):
    def body():
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(9, 4))
        cfg = ModelConfig(heads=2, head_width=4, ffn_hidden=8, dec_hidden=4)
        params = init_params("superior_gat", cfg, seed=3)

        def predict(architecture, features):
            p = init_params(architecture, cfg, seed=3) if architecture != "superior_gat" else params
            g = path_graph(features)
            return forward(g, Tensor(g.features), bind_params(p, None), architecture, cfg).data

        base = predict("superior_gat", feats)
        two_hop = feats.copy()
        two_hop[2] += 10.0  # two hops from node 0
        assert np.abs(predict("superior_gat", two_hop)[0] - base[0]) <= 1e-12
        one_hop = feats.copy()
        one_hop[1] += 10.0
        assert np.abs(predict("superior_gat", one_hop)[0] - base[0]) > 1e-6

        base3 = predict("gat_baseline", feats)
        three_hop = feats.copy()
        three_hop[3] += 10.0
        assert np.abs(predict("gat_baseline", three_hop)[0] - base3[0]) > 1e-9
        return "1 aggregation hop for the gated model; 3 for the deep baseline"

    _verdict(8, "receptive fields match layer counts", capsys, body)


# ---------------------------------------------------------------------------
# 9. real-data sanity (optional)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    "BEAMGAT_KITTI_FRAME" not in os.environ,
    reason="set BEAMGAT_KITTI_FRAME to a velodyne .bin file to enable",
)
def test_criterion_09_kitti_frame(capsys):
    def body():
        cloud = ingest.read_kitti_bin(os.environ["BEAMGAT_KITTI_FRAME"])
        cloud = ingest.estimate_beams(cloud)
        cloud = ingest.stratified_sample(cloud, 50000, seed=0)
        frame = ingest.apply_beam_dropout(cloud, nth=4)
        g = graph_mod.build_knn_graph(frame, k=10)
        truth = frame.z_truth[np.flatnonzero(frame.dropped_mask)]
        rmse_lin = metrics.rmse_z(baselines.linear_interp(frame), truth)
        rmse_gat, _ = _train_and_score(frame, g, "superior_gat", seed=0)
        assert 0.05 <= rmse_gat <= 0.40, f"rmse_z {rmse_gat:.3f} outside [0.05, 0.40]"
        assert rmse_gat < rmse_lin, f"gated {rmse_gat:.3f} vs linear {rmse_lin:.3f}"
        return f"rmse_z {rmse_gat:.3f} in [0.05, 0.40], linear at {rmse_lin:.3f}"

    _verdict(9, "real KITTI frame sanity", capsys, body)


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(capsys, tmp_path):
    from beamgat.experiment import ExperimentConfig, run_experiment

    def body():
        blobs = []
        for name in ("a", "b"):
            cfg = ExperimentConfig(
                scene=synth.SceneSpec(kind="sinusoid", point_count=900, noise_sigma=BENCH_SIGMA),
                sample_target=1200,
                methods=("linear", "superior_gat"),
                model=ModelConfig(heads=2, head_width=4, ffn_hidden=16, dec_hidden=8),
                train=TrainConfig(epochs=25, learning_rate=1e-2),
                seed=7,
                out_dir=str(tmp_path / name),
                timing=False,
            )
            run_experiment(cfg)
            blobs.append(
                (tmp_path / name / "reports.csv").read_bytes()
                + (tmp_path / name / "summary.csv").read_bytes()
            )
        assert blobs[0] == blobs[1], "re-run produced different CSV bytes"
        return "reports.csv + summary.csv byte-identical across re-runs"

    _verdict(10, "seeded re-runs are byte-identical", capsys, body)
