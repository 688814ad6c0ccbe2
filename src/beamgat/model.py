"""Gated single-layer graph-attention model for z reconstruction, plus the
learned baselines (two-layer mean-aggregation GCN, three-layer plain GAT).

``init_params`` builds the parameters, a flat dict of named numpy arrays, in
the one shape that HEADS, HEAD_WIDTH, FFN_HIDDEN and DEC_HIDDEN give; the
forward functions read the shape from the dict, and ``bind_params`` wraps it
as tape tensors for a training step.
"""

from __future__ import annotations

import numpy as np

from . import tensor_ad as T
from .graph import FEATURE_INIT_SCALE, NUM_FEATURES, Graph
from .tensor_ad import Tape, Tensor

ARCHITECTURES = ("superior_gat", "gat_baseline", "simple_gcn")
GAT_BASELINE_LAYERS = 3
SIMPLE_GCN_LAYERS = 2
ATTN_SLOPE = 0.2  # LeakyReLU slope of the attention logits and aggregations
FFN_SLOPE = 0.01  # LeakyReLU slope of the feed-forward and decoder hidden layers
HEADS = 4  # attention heads per layer
HEAD_WIDTH = 16  # channels per head; the residual width is HEADS * HEAD_WIDTH
FFN_HIDDEN = 128
DEC_HIDDEN = 32


def _check_architecture(architecture: str) -> None:
    if architecture not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {architecture!r}")


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_params(architecture: str, seed: int) -> dict[str, np.ndarray]:
    """Parameters of ``architecture`` (one of ARCHITECTURES): Glorot-uniform
    weights, zero biases, gate logit 0 (gate starts at 0.5); layer 0, which
    reads the node features, is scaled by FEATURE_INIT_SCALE."""
    _check_architecture(architecture)
    rng = np.random.default_rng(seed)
    w = HEADS * HEAD_WIDTH
    p: dict[str, np.ndarray] = {}

    def layer_weights(layer: int, f_out: int) -> np.ndarray:
        if layer > 0:
            return _glorot(rng, w, f_out, (w, f_out))
        scale = np.asarray(FEATURE_INIT_SCALE)[:, None]
        return _glorot(rng, NUM_FEATURES, f_out, (NUM_FEATURES, f_out)) * scale

    def heads(prefix: str, layer: int):
        for h in range(HEADS):
            p[f"{prefix}.h{h}.W"] = layer_weights(layer, HEAD_WIDTH)
            a = _glorot(rng, 2 * HEAD_WIDTH, 1, (2 * HEAD_WIDTH, 1))  # one draw for both halves
            p[f"{prefix}.h{h}.a_dst"], p[f"{prefix}.h{h}.a_src"] = np.split(a, 2)

    def norm(prefix: str, width: int):
        p[f"{prefix}.gain"] = np.ones(width)
        p[f"{prefix}.bias"] = np.zeros(width)

    def decoder():
        p["dec.W1"] = _glorot(rng, w, DEC_HIDDEN, (w, DEC_HIDDEN))
        p["dec.b1"] = np.zeros(DEC_HIDDEN)
        p["dec.W2"] = _glorot(rng, DEC_HIDDEN, 1, (DEC_HIDDEN, 1))
        p["dec.b2"] = np.zeros(1)

    if architecture == "superior_gat":
        heads("attn", 0)
        p["proj_in"] = layer_weights(0, w)
        norm("in_norm", w)
        p["gate_logit"] = np.zeros(())
        norm("gate_norm", w)
        p["ffn.W1"] = _glorot(rng, w, FFN_HIDDEN, (w, FFN_HIDDEN))
        p["ffn.b1"] = np.zeros(FFN_HIDDEN)
        p["ffn.W2"] = _glorot(rng, FFN_HIDDEN, w, (FFN_HIDDEN, w))
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
    rows: np.ndarray | None = None,
) -> Tensor:
    """Multi-head attention aggregation over the neighbour table.

    Per head (the ``{prefix}.h*.W`` parameters, in the dict's order):
    project features h' = h W, score each edge j->i with LeakyReLU(a_dst^T
    h'_i + a_src^T h'_j) as an [R, k+1] logit table, softmax along each
    node's row, aggregate as one sparse product ``A_alpha @ h'``, apply
    LeakyReLU. Head outputs are concatenated. ``h`` holds every node; the
    output holds the nodes ``rows`` (None: every node), and only their rows
    are scored.

    A head whose input ``h`` is narrower than its output aggregates first,
    since ``A (h W) = (A h) W`` and the product over the edges is cheaper on
    the narrower side: it scores with ``h @ (W a)`` and returns
    ``(A_alpha @ h) W``, the same values without an [N, F'] array.
    """
    neighbors = graph.neighbors if rows is None else graph.neighbors[rows]
    heads = [name[:-2] for name in params if name.startswith(f"{prefix}.h") and name.endswith(".W")]
    outs = []
    for head in heads:
        w, a_dst, a_src = params[f"{head}.W"], params[f"{head}.a_dst"], params[f"{head}.a_src"]
        if h.shape[1] < w.shape[1]:
            x, a_dst, a_src = h, T.matmul(w, a_dst), T.matmul(w, a_src)
        else:
            x, w = T.matmul(h, w), None  # [N, F']
        # the score splits into per-node terms, avoiding [E, 2F']
        score_dst = T.matmul(_at(x, rows), a_dst)  # [|R|, 1]
        score_src = T.matmul(x, a_src)  # [N, 1]
        logits = T.edge_logits(score_dst, score_src, neighbors, ATTN_SLOPE)
        alpha = T.segment_softmax(logits)
        agg = T.spmm(alpha, x, neighbors)
        outs.append(T.leaky_relu(agg if w is None else T.matmul(agg, w), ATTN_SLOPE))
    return T.concat_cols(outs)


def superior_gat_forward(graph: Graph, h: Tensor, params: dict[str, Tensor], rows: np.ndarray | None = None) -> Tensor:
    """Full pipeline: input projection + norm, attention, gated residual
    fusion, feed-forward refinement, decoder. Returns one z per node of
    ``rows`` (None: every node); one attention hop, so every stage after
    it runs on those rows alone.

    ``h`` is rebound and each part is deleted once it has been mixed, so a
    part no backward reads (a norm's output, whose readers keep its
    rebuild; the mix; the FFN output) is freed there, and no extra [R, 64]
    array is alive while a norm runs."""
    h_norm = T.layer_norm(T.matmul(_at(h, rows), params["proj_in"]), params["in_norm.gain"], params["in_norm.bias"])
    h_attn = gat_attention_layer(graph, h, params, "attn", rows)
    gate = T.sigmoid(params["gate_logit"])
    anti_gate = T.add_const(T.scale(gate, -1.0), 1.0)
    h = T.add(T.scale(h_attn, gate), T.scale(h_norm, anti_gate))
    del h_attn, h_norm
    h = T.layer_norm(h, params["gate_norm.gain"], params["gate_norm.bias"])
    ffn = T.mlp(h, params["ffn.W1"], params["ffn.b1"], params["ffn.W2"], params["ffn.b2"], FFN_SLOPE)
    h = T.add(ffn, h)
    del ffn
    h = T.layer_norm(h, params["ffn_norm.gain"], params["ffn_norm.bias"])
    return _decode(h, params)


def _decode(h: Tensor, params: dict[str, Tensor]) -> Tensor:
    z = T.mlp(h, params["dec.W1"], params["dec.b1"], params["dec.W2"], params["dec.b2"], FFN_SLOPE)
    return T.reshape(z, (-1,))


def gcn_layer(graph: Graph, h: Tensor, w: Tensor, rows: np.ndarray | None = None) -> Tensor:
    """Mean aggregation with fixed weights: out_i = LeakyReLU((mean_j h_j) W),
    for the nodes ``rows`` (None: every node); each of a row's k+1 entries
    weighs 1/(k+1). The layer aggregates before it projects, so only the
    rows it returns are multiplied by ``W``; with ``W`` as wide as ``h`` or
    wider, that is never the costlier order."""
    neighbors = graph.neighbors if rows is None else graph.neighbors[rows]
    mean = Tensor(np.full(neighbors.shape, 1.0 / neighbors.shape[1]))
    return T.leaky_relu(T.matmul(T.spmm(mean, h, neighbors), w), ATTN_SLOPE)


def simple_gcn_forward(graph: Graph, h: Tensor, params: dict[str, Tensor], rows: np.ndarray | None = None) -> Tensor:
    """Mean-aggregation layers and the decoder; only the last layer and the
    decoder are restricted to ``rows``."""
    for layer in range(SIMPLE_GCN_LAYERS):
        last = layer == SIMPLE_GCN_LAYERS - 1
        h = gcn_layer(graph, h, params[f"l{layer}.W"], rows if last else None)
    return _decode(h, params)


def gat_baseline_forward(graph: Graph, h: Tensor, params: dict[str, Tensor], rows: np.ndarray | None = None) -> Tensor:
    """Stacked plain attention layers with additive residuals where widths
    match; no gating, no FFN. Only the last layer and the decoder are
    restricted to ``rows``."""
    for layer in range(GAT_BASELINE_LAYERS):
        layer_rows = rows if layer == GAT_BASELINE_LAYERS - 1 else None
        out = gat_attention_layer(graph, h, params, f"l{layer}", layer_rows)
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
    rows: np.ndarray | None = None,
) -> Tensor:
    """z of ``architecture`` at the nodes ``rows``, in their order (None:
    every node). The graph and ``h`` span every node either way."""
    _check_architecture(architecture)
    return _FORWARDS[architecture](graph, h, params, rows)
