"""Gated single-layer graph-attention model for z reconstruction, plus the
learned baselines (two-layer mean-aggregation GCN, three-layer plain GAT).

Parameters live in a flat dict of named numpy arrays; ``bind_params``
wraps them as tape tensors for a training step.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import tensor_ad as T
from .graph import Graph
from .tensor_ad import Tape, Tensor

__all__ = [
    "ModelConfig",
    "bind_params",
    "forward",
    "gat_attention_layer",
    "gat_baseline_forward",
    "gcn_layer",
    "init_params",
    "load_params",
    "save_params",
    "simple_gcn_forward",
    "superior_gat_forward",
]

ARCHITECTURES = ("superior_gat", "gat_baseline", "simple_gcn")


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    architecture: str = "superior_gat"
    in_features: int = 4
    heads: int = 4
    head_width: int = 16  # residual width = heads * head_width
    ffn_hidden: int = 128
    dec_hidden: int = 32
    layers: int = 1  # baselines only; the gated model is single-layer
    activation: str = "leaky_relu"  # aggregation nonlinearity: leaky_relu | elu
    attn_slope: float = 0.2
    ffn_slope: float = 0.01
    # Per-feature scale applied to first-layer weights at init.  Raw (x, y)
    # coordinates span tens of meters while z̃ and the beam channel are O(1);
    # without this, attention logits saturate at init and training stalls.
    input_scale: tuple = (0.05, 0.05, 1.0, 1.0)

    @property
    def width(self) -> int:
        return self.heads * self.head_width

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.architecture == "superior_gat" and self.layers != 1:
            raise ValueError("the gated model is single-layer by design")
        if len(self.input_scale) != self.in_features:
            raise ValueError("input_scale must have one entry per input feature")

    def with_(self, **kw) -> "ModelConfig":
        return dataclasses.replace(self, **kw)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_params(cfg: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Glorot-uniform weights, zero biases, gate logit 0 (gate starts at 0.5)."""
    rng = np.random.default_rng(seed)
    w = cfg.width
    scale = np.asarray(cfg.input_scale, dtype=np.float64)
    p: dict[str, np.ndarray] = {}

    def first_layer(f_in: int, f_out: int) -> np.ndarray:
        weights = _glorot(rng, f_in, f_out, (f_in, f_out))
        if f_in == cfg.in_features:
            weights *= scale[:, None]
        return weights

    def heads(prefix: str, f_in: int):
        for h in range(cfg.heads):
            p[f"{prefix}.h{h}.W"] = first_layer(f_in, cfg.head_width)
            p[f"{prefix}.h{h}.a"] = _glorot(rng, 2 * cfg.head_width, 1, (2 * cfg.head_width, 1))

    def norm(prefix: str, width: int):
        p[f"{prefix}.gain"] = np.ones(width)
        p[f"{prefix}.bias"] = np.zeros(width)

    def decoder():
        p["dec.W1"] = _glorot(rng, w, cfg.dec_hidden, (w, cfg.dec_hidden))
        p["dec.b1"] = np.zeros(cfg.dec_hidden)
        p["dec.W2"] = _glorot(rng, cfg.dec_hidden, 1, (cfg.dec_hidden, 1))
        p["dec.b2"] = np.zeros(1)

    if cfg.architecture == "superior_gat":
        heads("attn", cfg.in_features)
        p["proj_in"] = first_layer(cfg.in_features, w)
        norm("in_norm", w)
        p["gate_logit"] = np.zeros(())
        norm("gate_norm", w)
        p["ffn.W1"] = _glorot(rng, w, cfg.ffn_hidden, (w, cfg.ffn_hidden))
        p["ffn.b1"] = np.zeros(cfg.ffn_hidden)
        p["ffn.W2"] = _glorot(rng, cfg.ffn_hidden, w, (cfg.ffn_hidden, w))
        p["ffn.b2"] = np.zeros(w)
        norm("ffn_norm", w)
        decoder()
    elif cfg.architecture == "gat_baseline":
        n_layers = cfg.layers if cfg.layers > 1 else 3
        for layer in range(n_layers):
            f_in = cfg.in_features if layer == 0 else w
            heads(f"l{layer}", f_in)
        decoder()
    else:  # simple_gcn
        n_layers = cfg.layers if cfg.layers > 1 else 2
        for layer in range(n_layers):
            f_in = cfg.in_features if layer == 0 else w
            p[f"l{layer}.W"] = first_layer(f_in, w)
        decoder()
    return p


def bind_params(params: dict[str, np.ndarray], tape: Tape | None) -> dict[str, Tensor]:
    return {name: Tensor(arr, tape) for name, arr in params.items()}


def _activation(x: Tensor, cfg: ModelConfig) -> Tensor:
    if cfg.activation == "elu":
        return T.elu(x)
    return T.leaky_relu(x, cfg.attn_slope)


def gat_attention_layer(
    graph: Graph,
    h: Tensor,
    params: dict[str, Tensor],
    prefix: str,
    cfg: ModelConfig,
) -> Tensor:
    """Multi-head attention aggregation over the CSR graph.

    Per head: project features, score each edge j->i with
    LeakyReLU(a^T [h'_i || h'_j]), softmax over each node's incoming edges,
    aggregate as one CSR product ``A_alpha @ h'``, apply the nonlinearity.
    Head outputs are concatenated.
    """
    src, dst = graph.edge_arrays()
    offsets = graph.row_offsets
    outs = []
    for head in range(cfg.heads):
        hp = T.matmul(h, params[f"{prefix}.h{head}.W"])  # [N, F']
        a = params[f"{prefix}.h{head}.a"]  # [2F', 1]
        # a^T [h'_i || h'_j] splits into per-node scores, avoiding [E, 2F']
        fp = cfg.head_width
        score_dst = T.matmul(hp, T.rows(a, 0, fp))  # [N, 1]
        score_src = T.matmul(hp, T.rows(a, fp, 2 * fp))
        raw = T.add(T.take_rows(score_dst, dst), T.take_rows(score_src, src))
        logits = T.reshape(T.leaky_relu(raw, cfg.attn_slope), (-1,))
        alpha = T.segment_softmax(logits, offsets)
        agg = T.spmm(alpha, hp, src, offsets)
        outs.append(_activation(agg, cfg))
    return outs[0] if len(outs) == 1 else T.concat_cols(outs)


def superior_gat_forward(graph: Graph, h: Tensor, params: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    """Full pipeline: input projection + norm, attention, gated residual
    fusion, feed-forward refinement, decoder. Returns one z per node."""
    h_norm = T.layer_norm(T.matmul(h, params["proj_in"]), params["in_norm.gain"], params["in_norm.bias"])
    h_attn = gat_attention_layer(graph, h, params, "attn", cfg)
    gate = T.sigmoid(params["gate_logit"])
    anti_gate = T.add_const(T.scale(gate, -1.0), 1.0)
    mix = T.add(T.scale(h_attn, gate), T.scale(h_norm, anti_gate))
    h_gated = T.layer_norm(mix, params["gate_norm.gain"], params["gate_norm.bias"])
    ffn = T.add(
        T.matmul(
            T.leaky_relu(T.add(T.matmul(h_gated, params["ffn.W1"]), params["ffn.b1"]), cfg.ffn_slope),
            params["ffn.W2"],
        ),
        params["ffn.b2"],
    )
    h_final = T.layer_norm(T.add(ffn, h_gated), params["ffn_norm.gain"], params["ffn_norm.bias"])
    return _decode(h_final, params, cfg)


def _decode(h: Tensor, params: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    hidden = T.leaky_relu(T.add(T.matmul(h, params["dec.W1"]), params["dec.b1"]), cfg.ffn_slope)
    z = T.add(T.matmul(hidden, params["dec.W2"]), params["dec.b2"])
    return T.reshape(z, (-1,))


def gcn_layer(graph: Graph, h: Tensor, w: Tensor, cfg: ModelConfig) -> Tensor:
    """Mean aggregation with fixed weights: out_i = act(mean_j h_j W)."""
    offsets = graph.row_offsets
    deg = np.diff(offsets)
    inv_deg = np.repeat(1.0 / deg, deg)
    agg = T.spmm(inv_deg, T.matmul(h, w), graph.neighbor_ids, offsets)
    return _activation(agg, cfg)


def simple_gcn_forward(graph: Graph, h: Tensor, params: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    layer = 0
    while f"l{layer}.W" in params:
        h = gcn_layer(graph, h, params[f"l{layer}.W"], cfg)
        layer += 1
    return _decode(h, params, cfg)


def gat_baseline_forward(graph: Graph, h: Tensor, params: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    """Stacked plain attention layers with additive residuals where widths
    match; no gating, no FFN."""
    layer = 0
    while f"l{layer}.h0.W" in params:
        out = gat_attention_layer(graph, h, params, f"l{layer}", cfg)
        if out.shape == h.shape:
            out = T.add(out, h)
        h = out
        layer += 1
    return _decode(h, params, cfg)


_FORWARDS = {
    "superior_gat": superior_gat_forward,
    "gat_baseline": gat_baseline_forward,
    "simple_gcn": simple_gcn_forward,
}


def forward(graph: Graph, h: Tensor, params: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    return _FORWARDS[cfg.architecture](graph, h, params, cfg)


def save_params(params: dict[str, np.ndarray], path: str) -> None:
    """Checkpoint as an npz of named arrays; names and shapes are the format."""
    np.savez(path, **params)


def load_params(path: str) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {name: data[name].copy() for name in data.files}
