"""Gated single-layer graph-attention model for z reconstruction, plus the
learned baselines (two-layer mean-aggregation GCN, three-layer plain GAT).

Parameters live in a flat dict of named numpy arrays; ``bind_params``
wraps them as tape tensors for a training step.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import tensor_ad as T
from .graph import FEATURE_INIT_SCALE, NUM_FEATURES, Graph
from .tensor_ad import Tape, Tensor

__all__ = [
    "ARCHITECTURES",
    "ModelConfig",
    "bind_params",
    "forward",
    "gat_attention_layer",
    "gat_baseline_forward",
    "gcn_layer",
    "init_params",
    "simple_gcn_forward",
    "superior_gat_forward",
]

ARCHITECTURES = ("superior_gat", "gat_baseline", "simple_gcn")
GAT_BASELINE_LAYERS = 3
SIMPLE_GCN_LAYERS = 2
ATTN_SLOPE = 0.2  # LeakyReLU slope of the attention logits and aggregations
FFN_SLOPE = 0.01  # LeakyReLU slope of the feed-forward and decoder hidden layers


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    heads: int = 4
    head_width: int = 16  # residual width = heads * head_width
    ffn_hidden: int = 128
    dec_hidden: int = 32

    @property
    def width(self) -> int:
        return self.heads * self.head_width


def _check_architecture(architecture: str) -> None:
    if architecture not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {architecture!r}")


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_params(architecture: str, cfg: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Parameters of ``architecture`` (one of ARCHITECTURES): Glorot-uniform
    weights, zero biases, gate logit 0 (gate starts at 0.5); layer 0, which
    reads the node features, is scaled by FEATURE_INIT_SCALE."""
    _check_architecture(architecture)
    rng = np.random.default_rng(seed)
    w = cfg.width
    p: dict[str, np.ndarray] = {}

    def layer_weights(layer: int, f_out: int) -> np.ndarray:
        if layer > 0:
            return _glorot(rng, w, f_out, (w, f_out))
        scale = np.asarray(FEATURE_INIT_SCALE)[:, None]
        return _glorot(rng, NUM_FEATURES, f_out, (NUM_FEATURES, f_out)) * scale

    def heads(prefix: str, layer: int):
        for h in range(cfg.heads):
            p[f"{prefix}.h{h}.W"] = layer_weights(layer, cfg.head_width)
            p[f"{prefix}.h{h}.a"] = _glorot(rng, 2 * cfg.head_width, 1, (2 * cfg.head_width, 1))

    def norm(prefix: str, width: int):
        p[f"{prefix}.gain"] = np.ones(width)
        p[f"{prefix}.bias"] = np.zeros(width)

    def decoder():
        p["dec.W1"] = _glorot(rng, w, cfg.dec_hidden, (w, cfg.dec_hidden))
        p["dec.b1"] = np.zeros(cfg.dec_hidden)
        p["dec.W2"] = _glorot(rng, cfg.dec_hidden, 1, (cfg.dec_hidden, 1))
        p["dec.b2"] = np.zeros(1)

    if architecture == "superior_gat":
        heads("attn", 0)
        p["proj_in"] = layer_weights(0, w)
        norm("in_norm", w)
        p["gate_logit"] = np.zeros(())
        norm("gate_norm", w)
        p["ffn.W1"] = _glorot(rng, w, cfg.ffn_hidden, (w, cfg.ffn_hidden))
        p["ffn.b1"] = np.zeros(cfg.ffn_hidden)
        p["ffn.W2"] = _glorot(rng, cfg.ffn_hidden, w, (cfg.ffn_hidden, w))
        p["ffn.b2"] = np.zeros(w)
        norm("ffn_norm", w)
        decoder()
    elif architecture == "gat_baseline":
        for layer in range(GAT_BASELINE_LAYERS):
            heads(f"l{layer}", layer)
        decoder()
    else:  # simple_gcn
        for layer in range(SIMPLE_GCN_LAYERS):
            p[f"l{layer}.W"] = layer_weights(layer, w)
        decoder()
    return p


def bind_params(params: dict[str, np.ndarray], tape: Tape | None) -> dict[str, Tensor]:
    return {name: Tensor(arr, tape) for name, arr in params.items()}


def _at(x: Tensor, rows: np.ndarray | None) -> Tensor:
    """The rows ``rows`` of ``x`` (None: all of ``x``)."""
    return x if rows is None else T.take_rows(x, rows)


def gat_attention_layer(
    graph: Graph,
    h: Tensor,
    params: dict[str, Tensor],
    prefix: str,
    cfg: ModelConfig,
    rows: np.ndarray | None = None,
) -> Tensor:
    """Multi-head attention aggregation over the CSR graph.

    Per head: project features, score each edge j->i with
    LeakyReLU(a^T [h'_i || h'_j]), softmax over each node's incoming edges,
    aggregate as one CSR product ``A_alpha @ h'``, apply LeakyReLU.
    Head outputs are concatenated. ``h`` holds every node; the output holds
    the nodes ``rows`` (None: every node), and only their edges are scored.
    """
    offsets, src = graph.sub_csr(rows)
    outs = []
    for head in range(cfg.heads):
        hp = T.matmul(h, params[f"{prefix}.h{head}.W"])  # [N, F']
        a = params[f"{prefix}.h{head}.a"]  # [2F', 1]
        # a^T [h'_i || h'_j] splits into per-node scores, avoiding [E, 2F']
        fp = cfg.head_width
        score_dst = T.matmul(_at(hp, rows), T.rows(a, 0, fp))  # [|R|, 1]
        score_src = T.matmul(hp, T.rows(a, fp, 2 * fp))  # [N, 1]
        logits = T.edge_logits(score_dst, score_src, src, offsets, ATTN_SLOPE)
        alpha = T.segment_softmax(logits, offsets)
        agg = T.spmm(alpha, hp, src, offsets)
        outs.append(T.leaky_relu(agg, ATTN_SLOPE))
    return outs[0] if len(outs) == 1 else T.concat_cols(outs)


def superior_gat_forward(
    graph: Graph, h: Tensor, params: dict[str, Tensor], cfg: ModelConfig, rows: np.ndarray | None = None
) -> Tensor:
    """Full pipeline: input projection + norm, attention, gated residual
    fusion, feed-forward refinement, decoder. Returns one z per node of
    ``rows`` (None: every node); one attention hop, so every stage after
    it runs on those rows alone."""
    h_norm = T.layer_norm(T.matmul(_at(h, rows), params["proj_in"]), params["in_norm.gain"], params["in_norm.bias"])
    h_attn = gat_attention_layer(graph, h, params, "attn", cfg, rows)
    gate = T.sigmoid(params["gate_logit"])
    anti_gate = T.add_const(T.scale(gate, -1.0), 1.0)
    mix = T.add(T.scale(h_attn, gate), T.scale(h_norm, anti_gate))
    h_gated = T.layer_norm(mix, params["gate_norm.gain"], params["gate_norm.bias"])
    ffn = T.add(
        T.matmul(
            T.leaky_relu(T.add(T.matmul(h_gated, params["ffn.W1"]), params["ffn.b1"]), FFN_SLOPE),
            params["ffn.W2"],
        ),
        params["ffn.b2"],
    )
    h_final = T.layer_norm(T.add(ffn, h_gated), params["ffn_norm.gain"], params["ffn_norm.bias"])
    return _decode(h_final, params)


def _decode(h: Tensor, params: dict[str, Tensor]) -> Tensor:
    hidden = T.leaky_relu(T.add(T.matmul(h, params["dec.W1"]), params["dec.b1"]), FFN_SLOPE)
    z = T.add(T.matmul(hidden, params["dec.W2"]), params["dec.b2"])
    return T.reshape(z, (-1,))


def gcn_layer(graph: Graph, h: Tensor, w: Tensor, rows: np.ndarray | None = None) -> Tensor:
    """Mean aggregation with fixed weights: out_i = LeakyReLU(mean_j h_j W),
    for the nodes ``rows`` (None: every node)."""
    offsets, src = graph.sub_csr(rows)
    deg = np.diff(offsets)
    inv_deg = np.repeat(1.0 / deg, deg)
    agg = T.spmm(inv_deg, T.matmul(h, w), src, offsets)
    return T.leaky_relu(agg, ATTN_SLOPE)


def simple_gcn_forward(
    graph: Graph, h: Tensor, params: dict[str, Tensor], cfg: ModelConfig, rows: np.ndarray | None = None
) -> Tensor:
    """Mean-aggregation layers and the decoder; only the last layer and the
    decoder are restricted to ``rows``."""
    for layer in range(SIMPLE_GCN_LAYERS):
        last = layer == SIMPLE_GCN_LAYERS - 1
        h = gcn_layer(graph, h, params[f"l{layer}.W"], rows if last else None)
    return _decode(h, params)


def gat_baseline_forward(
    graph: Graph, h: Tensor, params: dict[str, Tensor], cfg: ModelConfig, rows: np.ndarray | None = None
) -> Tensor:
    """Stacked plain attention layers with additive residuals where widths
    match; no gating, no FFN. Only the last layer and the decoder are
    restricted to ``rows``."""
    for layer in range(GAT_BASELINE_LAYERS):
        layer_rows = rows if layer == GAT_BASELINE_LAYERS - 1 else None
        out = gat_attention_layer(graph, h, params, f"l{layer}", cfg, layer_rows)
        if out.shape[1] == h.shape[1]:
            out = T.add(out, _at(h, layer_rows))
        h = out
    return _decode(h, params)


_FORWARDS = {
    "superior_gat": superior_gat_forward,
    "gat_baseline": gat_baseline_forward,
    "simple_gcn": simple_gcn_forward,
}


def forward(
    graph: Graph,
    h: Tensor,
    params: dict[str, Tensor],
    architecture: str,
    cfg: ModelConfig,
    rows: np.ndarray | None = None,
) -> Tensor:
    """z of ``architecture`` at the nodes ``rows``, in their order (None:
    every node). The graph and ``h`` span every node either way."""
    _check_architecture(architecture)
    return _FORWARDS[architecture](graph, h, params, cfg, rows)
