import numpy as np
import pytest

from beamgat import graph as graph_mod
from beamgat import ingest, synth
from beamgat import tensor_ad as T
from beamgat.model import bind_params, forward, init_params
from beamgat.tensor_ad import Tensor
from beamgat import trainer
from beamgat.trainer import (
    MASK_FRACTION,
    AdamState,
    TrainConfig,
    _stratified_subset,
    adam_step,
    predict_dropped,
    train_frame,
)

from conftest import set_model_shape


@pytest.fixture(autouse=True)
def tiny_model(monkeypatch):
    """Every model this module trains or runs is this small one."""
    set_model_shape(monkeypatch, heads=2, head_width=4, ffn_hidden=16, dec_hidden=8)


def reference_stratified_subset(beams, candidates, fraction, rng):
    """The per-beam loop that ``_stratified_subset`` replaced."""
    chosen = []
    for b in np.unique(beams[candidates]):
        idx = candidates[beams[candidates] == b]
        q = max(1, int(round(fraction * idx.size)))
        chosen.append(rng.choice(idx, size=min(q, idx.size), replace=False))
    return np.sort(np.concatenate(chosen))


# ---------------------------------------------------------------------------
# adam_step
# ---------------------------------------------------------------------------


def test_adam_zero_grad_is_noop():
    params = {"w": np.array([1.0, -2.0, 3.0]), "b": np.array(0.5)}
    grads = {k: np.zeros_like(p) for k, p in params.items()}
    state = AdamState.zeros_like(params)
    adam_step(params, grads, state, lr=0.1)
    assert np.array_equal(params["w"], [1.0, -2.0, 3.0])
    assert params["b"] == 0.5
    assert state.step == 1


def test_adam_first_step_closed_form():
    # m_hat = g and v_hat = g^2 on step one, so delta = -lr * g / (|g| + eps).
    rng = np.random.default_rng(3)
    g = rng.normal(size=(4, 3))
    w0 = rng.normal(size=(4, 3))
    params = {"w": w0.copy()}
    adam_step(params, {"w": g}, AdamState.zeros_like(params), lr=1e-2)
    expected = w0 - 1e-2 * g / (np.abs(g) + trainer.EPS)
    np.testing.assert_allclose(params["w"], expected, rtol=0, atol=1e-15)


def test_adam_quadratic_bowl_descent():
    # f(w) = ||w||^2 strictly decreases over 50 steps at lr 1e-2.
    params = {"w": np.array([3.0, -2.0, 1.5, 0.7])}
    state = AdamState.zeros_like(params)
    losses = []
    for _ in range(50):
        losses.append(float(np.sum(params["w"] ** 2)))
        adam_step(params, {"w": 2.0 * params["w"]}, state, lr=1e-2)
    losses.append(float(np.sum(params["w"] ** 2)))
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_adam_moment_shapes_mirror_params():
    params = {"a": np.zeros((2, 3)), "b": np.zeros(())}
    state = AdamState.zeros_like(params)
    assert state.m["a"].shape == (2, 3)
    assert state.v["b"].shape == ()
    assert state.step == 0


# ---------------------------------------------------------------------------
# TrainConfig guards
# ---------------------------------------------------------------------------


def test_zero_epochs_rejected():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


@pytest.mark.parametrize("lr", [0.0, -5.0, float("nan"), float("inf")])
def test_learning_rate_must_be_finite_and_positive(lr):
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=lr)


@pytest.mark.parametrize("patience", [0, -5])
def test_patience_below_one_rejected(patience):
    with pytest.raises(ValueError, match="patience"):
        TrainConfig(patience=patience)


# ---------------------------------------------------------------------------
# supervision mask sampling
# ---------------------------------------------------------------------------


def test_stratified_subset_is_sorted_unique_subset():
    rng = np.random.default_rng(0)
    beams = rng.integers(0, 6, size=200)
    candidates = np.flatnonzero(beams % 4 != 0)
    sub = _stratified_subset(beams, candidates, rng)
    assert np.array_equal(sub, np.unique(sub))
    assert np.isin(sub, candidates).all()


def test_stratified_subset_touches_every_candidate_beam():
    rng = np.random.default_rng(1)
    beams = np.repeat(np.arange(5), 40)
    candidates = np.arange(beams.size)
    sub = _stratified_subset(beams, candidates, rng)
    assert set(beams[sub]) == set(range(5))
    # ~25% of 200 candidates, one-per-beam minimum keeps it near the quota
    assert 40 <= sub.size <= 60


def test_stratified_subset_matches_per_beam_loop():
    # random frames: beam counts from empty to many, sparse and dense candidates
    for case in range(300):
        rng = np.random.default_rng(case)
        n = int(rng.integers(1, 400))
        beams = rng.integers(0, int(rng.integers(1, 70)), size=n)
        candidates = np.flatnonzero(rng.random(n) < rng.uniform(0.05, 1.0))
        if candidates.size == 0:
            continue
        got = _stratified_subset(beams, candidates, np.random.default_rng([case, 1]))
        want = reference_stratified_subset(beams, candidates, MASK_FRACTION, np.random.default_rng([case, 1]))
        np.testing.assert_array_equal(got, want, err_msg=f"case {case}")


# ---------------------------------------------------------------------------
# train_frame
# ---------------------------------------------------------------------------


def _flat_frame(n=160, num_beams=8, z=-1.5, seed=0):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-8, 8, size=(n, 2))
    xyz = np.column_stack([xy, np.full(n, z)])
    cloud = ingest.PointCloud(
        xyz=xyz,
        reflectance=np.zeros(n),
        beam=rng.integers(0, num_beams, size=n),
    )
    return ingest.apply_beam_dropout(cloud, nth=4)


def test_constant_z_frame_reaches_tiny_loss():
    frame = _flat_frame()
    graph = graph_mod.build_knn_graph(frame, k=5)
    cfg = TrainConfig(epochs=200, learning_rate=3e-2)
    result = train_frame(frame, graph, "superior_gat", cfg, seed=0)
    assert min(result.loss_history) <= 1e-4


def test_loss_history_bit_identical_across_runs():
    frame = _flat_frame(n=120, seed=3)
    graph = graph_mod.build_knn_graph(frame, k=4)
    cfg = TrainConfig(epochs=12)
    r1 = train_frame(frame, graph, "superior_gat", cfg, seed=5)
    r2 = train_frame(frame, graph, "superior_gat", cfg, seed=5)
    assert r1.loss_history == r2.loss_history
    for name in r1.params:
        assert np.array_equal(r1.params[name], r2.params[name])


def test_loss_history_finite_everywhere():
    frame = _flat_frame(n=120, seed=4)
    graph = graph_mod.build_knn_graph(frame, k=4)
    result = train_frame(frame, graph, "superior_gat", TrainConfig(epochs=15), seed=2)
    assert np.isfinite(result.loss_history).all()
    assert len(result.loss_history) == 15


@pytest.mark.parametrize("arch", ["superior_gat", "gat_baseline", "simple_gcn"])
def test_overflowing_loss_raises_non_finite_error(arch):
    # the squared error of z = 1e160 overflows; mse_loss's own check raises
    frame = _flat_frame(n=120, z=1e160, seed=4)
    graph = graph_mod.build_knn_graph(frame, k=4)
    with pytest.raises(T.NonFiniteError):
        train_frame(frame, graph, arch, TrainConfig(epochs=2), seed=2)


def test_returned_params_achieve_best_recorded_loss():
    frame = _flat_frame(n=120, seed=5)
    graph = graph_mod.build_knn_graph(frame, k=4)
    result = train_frame(frame, graph, "superior_gat", TrainConfig(epochs=20), seed=9)
    best_epoch = int(np.argmin(result.loss_history))
    # replay that epoch's supervision mask with the returned parameters
    rng = np.random.default_rng([9, best_epoch])
    sup = _stratified_subset(frame.cloud.beam, np.flatnonzero(frame.observed_mask), rng)
    feats = graph.features.copy()
    feats[sup, 2] = 0.0
    z_hat = forward(graph, Tensor(feats), bind_params(result.params, None), "superior_gat")
    replayed = float(np.mean((z_hat.data[sup] - frame.z_truth[sup]) ** 2))
    assert replayed == pytest.approx(min(result.loss_history), rel=1e-12)


def test_no_observed_points_rejected():
    frame = _flat_frame(n=80, seed=6)
    all_dropped = ingest.SparseFrame(cloud=frame.cloud, dropped_mask=np.ones(frame.cloud.xyz.shape[0], dtype=bool))
    graph = graph_mod.build_knn_graph(all_dropped, k=4)
    with pytest.raises(ValueError):
        train_frame(all_dropped, graph, "superior_gat", TrainConfig(epochs=2), seed=0)


def test_early_stopping_cuts_history_short():
    frame = _flat_frame(n=120, seed=7)
    graph = graph_mod.build_knn_graph(frame, k=4)
    cfg = TrainConfig(epochs=400, learning_rate=1e-2, patience=5)
    result = train_frame(frame, graph, "superior_gat", cfg, seed=1)
    assert len(result.loss_history) < 400


# ---------------------------------------------------------------------------
# predict_dropped
# ---------------------------------------------------------------------------


def test_predict_on_frame_without_dropout_is_empty():
    frame = _flat_frame(n=80, seed=10)
    none_dropped = ingest.SparseFrame(cloud=frame.cloud, dropped_mask=np.zeros(frame.cloud.xyz.shape[0], dtype=bool))
    graph = graph_mod.build_knn_graph(none_dropped, k=4)
    for arch in ("superior_gat", "gat_baseline", "simple_gcn"):
        z_hat = predict_dropped(none_dropped, graph, init_params(arch, seed=0), arch)
        assert z_hat.shape == (0,), arch


def test_predict_on_all_dropped_frame_covers_every_node():
    frame = _flat_frame(n=80, seed=11)
    n = frame.cloud.xyz.shape[0]
    all_dropped = ingest.SparseFrame(cloud=frame.cloud, dropped_mask=np.ones(n, dtype=bool))
    graph = graph_mod.build_knn_graph(all_dropped, k=4)
    params = init_params("superior_gat", seed=0)
    z_hat = predict_dropped(all_dropped, graph, params, "superior_gat")
    assert z_hat.shape == (n,)


def test_predict_is_pure(small_sine_frame, small_sine_graph):
    params = init_params("superior_gat", seed=1)
    a = predict_dropped(small_sine_frame, small_sine_graph, params, "superior_gat")
    b = predict_dropped(small_sine_frame, small_sine_graph, params, "superior_gat")
    assert np.array_equal(a, b)


@pytest.mark.parametrize("arch", ["superior_gat", "gat_baseline", "simple_gcn"])
def test_predict_matches_full_forward_at_dropped(small_sine_frame, small_sine_graph, arch):
    params = init_params(arch, seed=2)
    z_hat = predict_dropped(small_sine_frame, small_sine_graph, params, arch)
    full = forward(small_sine_graph, Tensor(small_sine_graph.features), bind_params(params, None), arch).data
    dropped = np.flatnonzero(small_sine_frame.dropped_mask)
    assert z_hat.shape == dropped.shape
    assert np.abs(z_hat - full[dropped]).max() <= 1e-12


def test_training_epoch_computes_only_supervised_rows(small_sine_frame, small_sine_graph, monkeypatch):
    # every layer_norm of the gated model sits after its one attention hop,
    # so a training epoch normalises the supervised rows and no others
    seen = []
    original = T.layer_norm

    def spy(x, *args, **kwargs):
        seen.append(x.shape[0])
        return original(x, *args, **kwargs)

    monkeypatch.setattr(T, "layer_norm", spy)
    train_frame(small_sine_frame, small_sine_graph, "superior_gat", TrainConfig(epochs=1), seed=4)
    sup = _stratified_subset(small_sine_frame.cloud.beam, np.flatnonzero(small_sine_frame.observed_mask),
                             np.random.default_rng([4, 0]))
    assert 0 < sup.size < small_sine_frame.cloud.xyz.shape[0]
    assert seen == [sup.size] * 3
