
import numpy as np
import pytest

from beamgat import tensor_ad as T
from beamgat.graph import FEATURE_INIT_SCALE, Graph
from beamgat.model import (
    ATTN_SLOPE,
    FFN_SLOPE,
    HEAD_WIDTH,
    HEADS,
    bind_params,
    forward,
    gat_attention_layer,
    gat_baseline_forward,
    gcn_layer,
    init_params,
    simple_gcn_forward,
    superior_gat_forward,
)
from beamgat.tensor_ad import Tape, Tensor

from conftest import finite_diff_grad, rel_err, set_model_shape

SMALL = dict(heads=2, head_width=3, ffn_hidden=6, dec_hidden=4)  # a model shape cheap to finite-difference


def make_graph(rows: list[list[int]], features: np.ndarray) -> Graph:
    """Graph from explicit incoming-neighbor lists (self-loops added); every
    row must come to the same length."""
    table = np.array([sorted(set(row) | {i}) for i, row in enumerate(rows)], dtype=np.int64)
    return Graph(neighbors=table, features=features)


def random_graph(rng: np.random.Generator, n: int, k: int) -> Graph:
    feats = rng.normal(size=(n, 4))
    rows = [rng.choice([j for j in range(n) if j != i], size=k, replace=False).tolist()
            for i in range(n)]
    return make_graph(rows, feats)


def ring_graph(features: np.ndarray) -> Graph:
    """Node i's neighbours are i - 1 and i + 1 mod n: on n nodes, node j is
    min(j, n - j) hops from node 0."""
    n = len(features)
    return make_graph([[(i - 1) % n, (i + 1) % n] for i in range(n)], features)


# --- independent dense oracle -------------------------------------------------

def leaky(x, slope):
    return np.where(x > 0, x, slope * x)


def dense_gat_layer(graph: Graph, h: np.ndarray, params: dict, prefix: str, heads: int):
    """Dense N x N attention with -inf masking; no sparse machinery shared
    with the implementation under test. Each edge scores
    a^T [h'_i || h'_j] with a = [a_dst; a_src]."""
    n = graph.num_nodes
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in graph.neighbors[i]:
            adj[i, j] = True
    outs = []
    for head in range(heads):
        w = params[f"{prefix}.h{head}.W"]
        a = np.concatenate([params[f"{prefix}.h{head}.a_dst"], params[f"{prefix}.h{head}.a_src"]]).ravel()
        hp = h @ w
        logits = np.full((n, n), -np.inf)
        for i in range(n):
            for j in range(n):
                if adj[i, j]:
                    logits[i, j] = leaky(a @ np.concatenate([hp[i], hp[j]]), ATTN_SLOPE)
        logits -= logits.max(axis=1, keepdims=True)
        e = np.where(np.isfinite(logits), np.exp(logits), 0.0)
        alpha = e / e.sum(axis=1, keepdims=True)
        outs.append(leaky(alpha @ hp, ATTN_SLOPE))
    return np.concatenate(outs, axis=1)


def dense_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def dense_superior_forward(graph: Graph, h: np.ndarray, p: dict, heads: int):
    h_norm = dense_layer_norm(h @ p["proj_in"], p["in_norm.gain"], p["in_norm.bias"])
    h_attn = dense_gat_layer(graph, h, p, "attn", heads)
    gamma = 1.0 / (1.0 + np.exp(-p["gate_logit"]))
    h_gated = dense_layer_norm(gamma * h_attn + (1 - gamma) * h_norm,
                               p["gate_norm.gain"], p["gate_norm.bias"])
    ffn = leaky(h_gated @ p["ffn.W1"] + p["ffn.b1"], FFN_SLOPE) @ p["ffn.W2"] + p["ffn.b2"]
    h_final = dense_layer_norm(ffn + h_gated, p["ffn_norm.gain"], p["ffn_norm.bias"])
    hidden = leaky(h_final @ p["dec.W1"] + p["dec.b1"], FFN_SLOPE)
    return (hidden @ p["dec.W2"] + p["dec.b2"]).ravel()


# --- attention layer ---------------------------------------------------------

class TestAttentionLayer:
    def test_isolated_node_softmax_is_identity(self, monkeypatch):
        set_model_shape(monkeypatch, heads=1, head_width=3)
        feats = np.array([[1.0, -0.5, 0.25, 0.8]])
        g = make_graph([[]], feats)
        params = bind_params(init_params("superior_gat", 0), None)
        out = gat_attention_layer(g, Tensor(feats), params, "attn")
        hp = feats @ params["attn.h0.W"].data
        expected = np.where(hp > 0, hp, ATTN_SLOPE * hp)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_identical_neighbors_get_equal_weight(self, monkeypatch):
        set_model_shape(monkeypatch, heads=1, head_width=2)
        feats = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 0.5], [1.0, 2.0, 3.0, 0.5]])
        g = make_graph([[1, 2], [0, 2], [0, 1]], feats)
        params = bind_params(init_params("superior_gat", 1), None)
        hp = T.matmul(Tensor(feats), params["attn.h0.W"])
        sd = T.matmul(hp, params["attn.h0.a_dst"])
        ss = T.matmul(hp, params["attn.h0.a_src"])
        alpha = T.segment_softmax(T.edge_logits(sd, ss, g.neighbors, ATTN_SLOPE)).data
        # node 0's row is [0, 1, 2]: sources 1 and 2 carry the same features,
        # its own (zero) features score differently
        assert g.neighbors[0].tolist() == [0, 1, 2]
        assert alpha[0, 1] == pytest.approx(alpha[0, 2], rel=1e-12)
        assert abs(alpha[0, 0] - alpha[0, 1]) > 1e-3

    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_oracle(self, heads, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        set_model_shape(monkeypatch, heads=heads, head_width=2 + seed % 3)
        n = int(rng.integers(5, 100))
        g = random_graph(rng, n, k=min(4, n - 1))
        params_np = init_params("superior_gat", seed + 100)
        params = bind_params(params_np, None)
        out = gat_attention_layer(g, Tensor(g.features), params, "attn")
        expected = dense_gat_layer(g, g.features, params_np, "attn", heads)
        assert np.abs(out.data - expected).max() < 1e-9

    def test_path_graph_k1_oracle(self, monkeypatch):
        rng = np.random.default_rng(42)
        set_model_shape(monkeypatch, heads=1, head_width=2)
        feats = rng.normal(size=(4, 4))
        g = ring_graph(feats)
        params_np = init_params("superior_gat", 3)
        out = gat_attention_layer(g, Tensor(feats), bind_params(params_np, None), "attn")
        expected = dense_gat_layer(g, feats, params_np, "attn", 1)
        assert np.abs(out.data - expected).max() < 1e-9

    def test_attention_sums_to_one_every_head(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 40, 5)
        params = bind_params(init_params("superior_gat", 0), None)
        for head in range(HEADS):
            hp = T.matmul(Tensor(g.features), params[f"attn.h{head}.W"])
            sd = T.matmul(hp, params[f"attn.h{head}.a_dst"])
            ss = T.matmul(hp, params[f"attn.h{head}.a_src"])
            alpha = T.segment_softmax(T.edge_logits(sd, ss, g.neighbors, ATTN_SLOPE)).data
            assert alpha.shape == (40, 6)
            np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)


# --- full model --------------------------------------------------------------

class TestSuperiorGat:
    def test_gate_saturation_high(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 30, 4)
        params = init_params("superior_gat", 0)
        params["gate_logit"] = np.array(30.0)
        out_full = forward(g, Tensor(g.features), bind_params(params, None), "superior_gat").data
        # gate ~ 1: the normalized-input branch must not matter
        params2 = dict(params)
        params2["proj_in"] = params["proj_in"] * -3.0
        out_other = forward(g, Tensor(g.features), bind_params(params2, None), "superior_gat").data
        np.testing.assert_allclose(out_full, out_other, atol=1e-9)

    def test_gate_saturation_low_bypasses_attention(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 30, 4)
        params = init_params("superior_gat", 0)
        params["gate_logit"] = np.array(-30.0)
        out = forward(g, Tensor(g.features), bind_params(params, None), "superior_gat").data
        params2 = dict(params)
        for h in range(HEADS):
            params2[f"attn.h{h}.W"] = params[f"attn.h{h}.W"] * 2.0
        out2 = forward(g, Tensor(g.features), bind_params(params2, None), "superior_gat").data
        np.testing.assert_allclose(out, out2, atol=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_full_forward_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 50, 6)
        params_np = init_params("superior_gat", seed)
        out = superior_gat_forward(g, Tensor(g.features), bind_params(params_np, None))
        expected = dense_superior_forward(g, g.features, params_np, HEADS)
        assert np.abs(out.data - expected).max() < 1e-9

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        n = 40
        g = random_graph(rng, n, 5)
        params = bind_params(init_params("superior_gat", 2), None)
        out = forward(g, Tensor(g.features), params, "superior_gat").data

        perm = rng.permutation(n)
        inv = np.argsort(perm)
        rows_p = []
        for new_i in range(n):
            old_i = perm[new_i]
            row = g.neighbors[old_i]
            rows_p.append([int(inv[j]) for j in row if j != old_i])
        g_p = make_graph(rows_p, g.features[perm])
        out_p = forward(g_p, Tensor(g_p.features), params, "superior_gat").data
        assert np.abs(out_p - out[perm]).max() < 1e-9

    def test_single_layer_receptive_field(self):
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(6, 4))
        g = ring_graph(feats)
        params = bind_params(init_params("superior_gat", 1), None)
        base = forward(g, Tensor(feats), params, "superior_gat").data
        # 2 hops away from node 0 -> no effect
        far = feats.copy()
        far[2] += 1.0
        out_far = forward(g, Tensor(far), params, "superior_gat").data
        assert abs(out_far[0] - base[0]) <= 1e-12
        # 1 hop -> must respond
        near = feats.copy()
        near[1] += 1.0
        out_near = forward(g, Tensor(near), params, "superior_gat").data
        assert abs(out_near[0] - base[0]) > 1e-8

    def test_end_to_end_gradients(self, monkeypatch):
        rng = np.random.default_rng(7)
        set_model_shape(monkeypatch, **SMALL)
        g = random_graph(rng, 20, 3)
        params_np = init_params("superior_gat", 4)
        target = rng.normal(size=20)

        def loss_fn(p_np):
            out = forward(g, Tensor(g.features), bind_params(p_np, None), "superior_gat")
            return float(np.mean((out.data - target) ** 2))

        tape = Tape()
        bound = bind_params(params_np, tape)
        out = forward(g, Tensor(g.features), bound, "superior_gat")
        loss = T.mse_loss(out, target)
        tape.backward(loss)

        for name in params_np:
            arr = params_np[name]
            analytic = bound[name].grad
            assert analytic is not None, name

            def f(v, name=name):
                p = dict(params_np)
                p[name] = v.reshape(arr.shape)
                return loss_fn(p)

            numeric = finite_diff_grad(f, arr.astype(np.float64).copy())
            assert rel_err(np.asarray(analytic), numeric) < 1e-4, name


# --- baselines ---------------------------------------------------------------

class TestLearnedBaselines:
    def test_gcn_identical_features(self):
        feats = np.tile([1.0, -2.0, 0.5, 0.3], (5, 1))
        g = make_graph([[j for j in range(5) if j != i] for i in range(5)], feats)
        out = gcn_layer(g, Tensor(feats), Tensor(np.eye(4))).data
        expected = leaky(feats[0], ATTN_SLOPE)
        for row in out:
            np.testing.assert_allclose(row, expected, atol=1e-12)

    def test_gcn_single_node(self):
        feats = np.array([[1.0, 2.0, 3.0, 4.0]])
        g = make_graph([[]], feats)
        out = gcn_layer(g, Tensor(feats), Tensor(np.eye(4))).data
        np.testing.assert_allclose(out, leaky(feats, ATTN_SLOPE), atol=1e-12)

    def test_gcn_matches_dense_mean_oracle(self):
        rng = np.random.default_rng(8)
        g = random_graph(rng, 10, 3)
        w = rng.normal(size=(4, 6))
        out = gcn_layer(g, Tensor(g.features), Tensor(w)).data
        for i in range(10):
            mean = g.features[g.neighbors[i]].mean(axis=0)
            np.testing.assert_allclose(out[i], leaky(mean @ w, ATTN_SLOPE), atol=1e-12)

    def test_gat_baseline_three_hop_receptive_field(self):
        rng = np.random.default_rng(9)
        feats = rng.normal(size=(8, 4))
        g = ring_graph(feats)
        params = bind_params(init_params("gat_baseline", 5), None)
        base = gat_baseline_forward(g, Tensor(feats), params).data
        bumped = feats.copy()
        bumped[3] += 1.0  # 3 hops from node 0
        out = gat_baseline_forward(g, Tensor(bumped), params).data
        assert abs(out[0] - base[0]) > 1e-10
        bumped4 = feats.copy()
        bumped4[4] += 1.0  # 4 hops: out of reach
        out4 = gat_baseline_forward(g, Tensor(bumped4), params).data
        assert abs(out4[0] - base[0]) <= 1e-12

    def test_simple_gcn_runs_and_is_two_hop(self):
        rng = np.random.default_rng(10)
        feats = rng.normal(size=(7, 4))
        g = ring_graph(feats)
        params = bind_params(init_params("simple_gcn", 6), None)
        base = simple_gcn_forward(g, Tensor(feats), params).data
        bumped = feats.copy()
        bumped[2] += 1.0
        assert abs(simple_gcn_forward(g, Tensor(bumped), params).data[0] - base[0]) > 1e-10
        bumped3 = feats.copy()
        bumped3[3] += 1.0
        assert abs(simple_gcn_forward(g, Tensor(bumped3), params).data[0] - base[0]) <= 1e-12


# --- restricted output rows ------------------------------------------------------

ARCHS = ("superior_gat", "gat_baseline", "simple_gcn")
FD_PARAM = {"superior_gat": "attn.h1.W", "gat_baseline": "l2.h1.a_src", "simple_gcn": "l0.W"}


def repeat_graph(rng: np.random.Generator, n: int = 12) -> Graph:
    """Random graph of 3 neighbours plus the self loop per row, except that
    row 1 lists source 5 twice."""
    g = random_graph(rng, n, 3)
    g.neighbors[1] = [1, 5, 5, 7]
    return g


def row_sets(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    return {
        "empty": np.array([], dtype=np.int64),
        "singleton": np.array([int(rng.integers(n))]),
        "subset": np.sort(rng.choice(n, size=n // 2, replace=False)),
        "all": np.arange(n),
    }


class TestRestrictedRows:
    """``forward(..., rows=R)`` is the full forward read at R."""

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("seed", range(3))
    def test_forward_at_rows_matches_full(self, arch, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        set_model_shape(monkeypatch, **SMALL)
        g = repeat_graph(rng)
        params = bind_params(init_params(arch, seed), None)
        full = forward(g, Tensor(g.features), params, arch).data
        for name, rows in row_sets(rng, g.num_nodes).items():
            out = forward(g, Tensor(g.features), params, arch, rows=rows).data
            assert out.shape == rows.shape, name
            assert np.abs(out - full[rows]).max(initial=0.0) <= 1e-12, name

    def test_restricted_simple_gcn_projects_only_its_rows(self, monkeypatch):
        # each GCN layer aggregates, then projects what it aggregated: layer 0
        # projects every node's 4 features, the restricted layer 1 only its R
        # rows, never the [N, 64] input
        rng = np.random.default_rng(0)
        g = repeat_graph(rng, n=40)
        rows = np.sort(rng.choice(g.num_nodes, size=8, replace=False))
        params = bind_params(init_params("simple_gcn", 0), None)
        products = []
        matmul = T.matmul

        def recording_matmul(a, b):
            products.append((a.shape, b))
            return matmul(a, b)

        monkeypatch.setattr(T, "matmul", recording_matmul)
        forward(g, Tensor(g.features), params, "simple_gcn", rows=rows)
        width = HEADS * HEAD_WIDTH
        assert [shape for shape, w in products if w is params["l0.W"]] == [(g.num_nodes, 4)]
        assert [shape for shape, w in products if w is params["l1.W"]] == [(rows.size, width)]

    @pytest.mark.parametrize("heads", [1, 2])
    def test_attention_layer_at_rows_matches_dense_oracle(self, heads, monkeypatch):
        # the oracle's boolean adjacency counts a repeated source once, so
        # this graph has no repeat
        rng = np.random.default_rng(heads)
        g = random_graph(rng, 12, 3)
        set_model_shape(monkeypatch, heads=heads, head_width=3)
        params_np = init_params("superior_gat", 5)
        expected = dense_gat_layer(g, g.features, params_np, "attn", heads)
        for name, rows in row_sets(rng, g.num_nodes).items():
            out = gat_attention_layer(g, Tensor(g.features), bind_params(params_np, None), "attn", rows)
            assert out.shape == (rows.size, heads * 3), name
            assert np.abs(out.data - expected[rows]).max(initial=0.0) < 1e-9, name

    @pytest.mark.parametrize("arch", ARCHS)
    def test_gradients_at_rows_match_full_pass_and_finite_differences(self, arch, monkeypatch):
        rng = np.random.default_rng(11)
        set_model_shape(monkeypatch, **SMALL)
        g = repeat_graph(rng)
        params_np = init_params(arch, 3)
        sets = row_sets(rng, g.num_nodes)
        for name in ("singleton", "subset", "all"):
            rows = sets[name]
            target = rng.normal(size=rows.size)

            def grads(restricted):
                tape = Tape()
                bound = bind_params(params_np, tape)
                h = Tensor(g.features, tape)
                if restricted:
                    z = forward(g, h, bound, arch, rows=rows)
                else:
                    z = T.take_rows(forward(g, h, bound, arch), rows)
                tape.backward(T.mse_loss(z, target))
                return {**{k: t.grad for k, t in bound.items()}, "h": h.grad}

            restricted, full = grads(True), grads(False)
            for key, want in full.items():
                got = restricted[key]
                if key.endswith(".a_dst"):
                    # where a row's logits all lie on one side of the LeakyReLU
                    # kink, its softmax ignores the shift a_dst adds to the row,
                    # so a_dst's gradient can be round-off alone: compare it as
                    # part of the score vector [a_dst; a_src]
                    src = key.replace(".a_dst", ".a_src")
                    got, want = np.vstack([got, restricted[src]]), np.vstack([want, full[src]])
                assert rel_err(got, want) <= 1e-12, (name, key)

            def loss_fn(p_np):
                z = forward(g, Tensor(g.features), bind_params(p_np, None), arch, rows=rows)
                return float(np.mean((z.data - target) ** 2))

            for key in ("dec.W1", FD_PARAM[arch]):
                arr = params_np[key]

                def f(v, key=key):
                    return loss_fn({**params_np, key: v.reshape(arr.shape)})

                numeric = finite_diff_grad(f, arr.copy())
                assert rel_err(restricted[key], numeric) < 1e-4, (name, key)

    @pytest.mark.parametrize("arch", ARCHS)
    def test_aggregate_first_layer_gradients_match_finite_differences(self, arch, monkeypatch):
        # heads 5 wide read the 4 features: every layer 0 aggregates before it
        # projects, with the features carrying a gradient of their own
        rng = np.random.default_rng(12)
        set_model_shape(monkeypatch, **{**SMALL, "head_width": 5})
        g = repeat_graph(rng)
        params_np = init_params(arch, 4)
        rows = row_sets(rng, g.num_nodes)["subset"]
        target = rng.normal(size=rows.size)

        def loss_of(p_np, feats, tape=None):
            bound = bind_params(p_np, tape)
            h = Tensor(feats, tape)
            return bound, h, T.mse_loss(forward(g, h, bound, arch, rows=rows), target)

        tape = Tape()
        bound, h, loss = loss_of(params_np, g.features, tape)
        tape.backward(loss)
        numeric = finite_diff_grad(lambda v: float(loss_of(params_np, v)[2].data), g.features.copy())
        assert rel_err(h.grad, numeric) < 1e-4
        for key in (k for k in params_np if k.startswith(("attn.", "l0."))):
            arr = params_np[key]

            def f(v, key=key):
                return float(loss_of({**params_np, key: v.reshape(arr.shape)}, g.features)[2].data)

            assert rel_err(bound[key].grad, finite_diff_grad(f, arr.copy())) < 1e-4, key


# --- init -------------------------------------------------------

class TestInit:
    def test_deterministic(self):
        a = init_params("superior_gat", 12)
        b = init_params("superior_gat", 12)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_gate_starts_at_half(self):
        params = init_params("superior_gat", 0)
        gamma = 1.0 / (1.0 + np.exp(-params["gate_logit"]))
        assert gamma == pytest.approx(0.5)

    def test_glorot_bound(self):
        params = init_params("superior_gat", 3)
        for name, arr in params.items():
            if arr.ndim == 2:
                fan_in, fan_out = arr.shape
                bound = np.sqrt(6.0 / (fan_in + fan_out))
                assert np.abs(arr).max() <= bound, name

    def test_parameter_names_and_shapes(self):
        def heads(prefix, f_in):
            return [item for h in range(4) for item in
                    [(f"{prefix}.h{h}.W", (f_in, 16)), (f"{prefix}.h{h}.a_dst", (16, 1)),
                     (f"{prefix}.h{h}.a_src", (16, 1))]]

        decoder = [("dec.W1", (64, 32)), ("dec.b1", (32,)), ("dec.W2", (32, 1)), ("dec.b2", (1,))]
        expected = {
            "superior_gat": heads("attn", 4) + [
                ("proj_in", (4, 64)), ("in_norm.gain", (64,)), ("in_norm.bias", (64,)),
                ("gate_logit", ()), ("gate_norm.gain", (64,)), ("gate_norm.bias", (64,)),
                ("ffn.W1", (64, 128)), ("ffn.b1", (128,)), ("ffn.W2", (128, 64)), ("ffn.b2", (64,)),
                ("ffn_norm.gain", (64,)), ("ffn_norm.bias", (64,)),
            ] + decoder,
            "gat_baseline": heads("l0", 4) + heads("l1", 64) + heads("l2", 64) + decoder,
            "simple_gcn": [("l0.W", (4, 64)), ("l1.W", (64, 64))] + decoder,
        }
        for arch, names_shapes in expected.items():
            params = init_params(arch, 0)
            assert [(name, arr.shape) for name, arr in params.items()] == names_shapes, arch

    @pytest.mark.parametrize("arch, prefix", [("superior_gat", "attn"), ("gat_baseline", "l0")])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_attention_vectors_split_one_glorot_draw(self, arch, prefix, seed):
        # each head draws W, then one [2F', 1] vector a = [a_dst; a_src], so
        # the rng stream is that of a single a per head
        params = init_params(arch, seed)
        rng = np.random.default_rng(seed)
        fp = HEAD_WIDTH
        for h in range(HEADS):
            bound_w = np.sqrt(6.0 / (4 + fp))
            w = rng.uniform(-bound_w, bound_w, size=(4, fp)) * np.asarray(FEATURE_INIT_SCALE)[:, None]
            bound_a = np.sqrt(6.0 / (2 * fp + 1))
            a = rng.uniform(-bound_a, bound_a, size=(2 * fp, 1))
            np.testing.assert_array_equal(params[f"{prefix}.h{h}.W"], w)
            np.testing.assert_array_equal(
                np.vstack([params[f"{prefix}.h{h}.a_dst"], params[f"{prefix}.h{h}.a_src"]]), a)

    @pytest.mark.parametrize("arch", ["gat_baseline", "simple_gcn"])
    def test_only_layer_zero_is_feature_scaled(self, arch, monkeypatch):
        # a width-4 model: deeper layers have as many inputs as the features,
        # but only layer 0 reads the features, so only it is scaled
        set_model_shape(monkeypatch, heads=1, head_width=4)
        params = init_params(arch, 0)
        rng = np.random.default_rng(0)

        def glorot(fan_in, fan_out):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-bound, bound, size=(fan_in, fan_out))

        scale = np.asarray(FEATURE_INIT_SCALE)[:, None]
        if arch == "simple_gcn":
            expected = {"l0.W": glorot(4, 4) * scale, "l1.W": glorot(4, 4)}
        else:
            expected = {}
            for layer in range(3):
                w = glorot(4, 4)
                expected[f"l{layer}.h0.W"] = w * scale if layer == 0 else w
                expected[f"l{layer}.h0.a_dst"], expected[f"l{layer}.h0.a_src"] = np.split(glorot(8, 1), 2)
        for name, arr in expected.items():
            np.testing.assert_array_equal(params[name], arr, err_msg=name)

    def test_unknown_architecture_rejected(self, monkeypatch):
        set_model_shape(monkeypatch, **SMALL)
        g = ring_graph(np.ones((3, 4)))
        params = bind_params(init_params("superior_gat", 0), None)
        with pytest.raises(ValueError, match="unknown architecture"):
            init_params("gcn", 0)
        with pytest.raises(ValueError, match="unknown architecture"):
            forward(g, Tensor(g.features), params, "gcn")
