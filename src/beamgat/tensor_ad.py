"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Only the operations the models actually need are provided. All data is
float64, row-major. Recording happens on an explicit :class:`Tape`; tensors
created without a tape are constants and receive no gradient.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

__all__ = [
    "NonFiniteError",
    "Tape",
    "Tensor",
    "add",
    "add_const",
    "concat_cols",
    "edge_logits",
    "elu",
    "layer_norm",
    "leaky_relu",
    "matmul",
    "mse_loss",
    "reshape",
    "scale",
    "segment_softmax",
    "segment_weighted_sum",
    "sigmoid",
    "spmm",
    "take_rows",
]


class NonFiniteError(FloatingPointError):
    """A forward op produced NaN or Inf."""


class Tensor:
    """Dense float64 array, optionally linked into a gradient tape."""

    __slots__ = ("data", "grad", "tape")

    def __init__(self, data, tape: "Tape | None" = None):
        arr = np.asarray(data, dtype=np.float64)
        # ascontiguousarray would promote 0-d scalars to 1-d
        self.data = arr if arr.ndim == 0 else np.ascontiguousarray(arr)
        self.grad: np.ndarray | None = None
        self.tape = tape

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, tape={self.tape is not None})"


class Tape:
    """Ordered record of operations; inputs always precede their consumers."""

    def __init__(self):
        self._nodes: list[tuple[Tensor, callable]] = []
        self._consumed = False

    def _record(self, out: Tensor, backward_fn) -> None:
        self._nodes.append((out, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Reverse traversal from a scalar loss; accumulates leaf gradients.

        Nodes are popped as the pass reaches them, and each output's
        ``.grad`` is reset to None once its backward function has run, so
        intermediates are freed during the reverse pass rather than after
        it. Only leaf tensors keep a gradient.
        """
        if loss.data.size != 1:
            raise ValueError("backward requires a scalar loss")
        if loss.tape is not self:
            raise ValueError("loss was not recorded on this tape")
        if self._consumed:
            raise RuntimeError("tape already consumed; one backward pass per recording")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        # popping drops each node's closure, and the inputs it holds, as soon
        # as the pass is past it; the emptied list also breaks the
        # tensor <-> tape reference cycle without waiting for the gc
        nodes = self._nodes
        while nodes:
            out, backward_fn = nodes.pop()
            if out.grad is not None:
                backward_fn(out.grad)
                out.grad = None


def _check_finite(data: np.ndarray) -> np.ndarray:
    # a single-pass sum is finite iff the array holds no NaN/Inf
    if not np.isfinite(data.sum()):
        if np.all(np.isfinite(data)):  # pathological overflow of the sum itself
            return data
        raise NonFiniteError("non-finite value in forward computation")
    return data


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``. A first gradient of the right shape is
    kept as it is, not copied: the output gradient a backward function
    passes through is dropped by ``Tape.backward`` once that function has
    run, so ``t`` is its only holder; a backward function that hands one
    array to two inputs copies it for the second."""
    if t.tape is None:
        return
    if t.grad is None:
        if g.shape != t.data.shape:
            g = np.broadcast_to(g, t.data.shape).copy()
        t.grad = g
    else:
        t.grad += g


def _tape_of(*tensors: Tensor) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise ValueError("operands recorded on different tapes")
            tape = t.tape
    return tape


def _make(data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    tape = _tape_of(*inputs)
    out = Tensor(_check_finite(data), tape)
    if tape is not None:
        tape._record(out, backward_fn)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    data = a.data @ b.data

    def bwd(g):
        # a constant operand (the node features) gets no product
        if a.tape is not None:
            _accum(a, g @ b.data.T)
        if b.tape is not None:
            _accum(b, a.data.T @ g)

    return _make(data, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also supports adding a length-F bias to an [N, F] matrix."""
    if a.data.shape == b.data.shape:
        def bwd(g):
            _accum(a, g)
            _accum(b, g.copy())
    elif a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]:
        def bwd(g):
            _accum(a, g)
            _accum(b, g.sum(axis=0))
    else:
        raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")
    return _make(a.data + b.data, (a, b), bwd)


def scale(x: Tensor, s: "Tensor | float") -> Tensor:
    """Multiply by a python float or a scalar tensor (learnable gate)."""
    if isinstance(s, Tensor):
        if s.data.size != 1:
            raise ValueError("scale factor must be scalar")
        data = x.data * s.data.reshape(())

        def bwd(g):
            _accum(x, g * s.data.reshape(()))
            _accum(s, np.full(s.data.shape, np.sum(g * x.data)))

        return _make(data, (x, s), bwd)

    def bwd(g):
        _accum(x, g * s)

    return _make(x.data * s, (x,), bwd)


def add_const(x: Tensor, c: float) -> Tensor:
    def bwd(g):
        _accum(x, g)

    return _make(x.data + c, (x,), bwd)


def _check_slope(slope: float) -> None:
    # max(x, slope * x) is the leaky ReLU only for 0 <= slope <= 1
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"leaky_relu slope must be in [0, 1], got {slope}")


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    _check_slope(slope)
    data = np.maximum(x.data, slope * x.data)

    def bwd(g):
        # convention: derivative at exactly 0 is `slope`
        _accum(x, np.where(x.data > 0, g, slope * g))

    return _make(data, (x,), bwd)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    data = np.where(x.data > 0, x.data, alpha * np.expm1(x.data))

    def bwd(g):
        _accum(x, g * np.where(x.data > 0, 1.0, alpha * np.exp(x.data)))

    return _make(data, (x,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    data = 1.0 / (1.0 + np.exp(-x.data))

    def bwd(g):
        _accum(x, g * data * (1.0 - data))

    return _make(data, (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape

    def bwd(g):
        _accum(x, g.reshape(old))

    return _make(x.data.reshape(shape), (x,), bwd)


def concat_cols(parts: list[Tensor]) -> Tensor:
    widths = [p.data.shape[1] for p in parts]
    data = np.concatenate([p.data for p in parts], axis=1)
    offsets = np.concatenate([[0], np.cumsum(widths)])

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[:, lo:hi])

    return _make(data, tuple(parts), bwd)


def _scatter_add(g: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """Row scatter-add via bincount (much faster than np.add.at)."""
    if g.ndim == 1:
        return np.bincount(idx, weights=g, minlength=n)
    f = g.shape[1]
    flat_idx = (idx[:, None] * f + np.arange(f)).ravel()
    return np.bincount(flat_idx, weights=g.ravel(), minlength=n * f).reshape(n, f)


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)

    def bwd(g):
        if x.tape is None:
            return
        _accum(x, _scatter_add(g, idx, x.data.shape[0]))

    return _make(x.data[idx], (x,), bwd)


def rows(x: Tensor, lo: int, hi: int) -> Tensor:
    """Contiguous row slice x[lo:hi]."""

    def bwd(g):
        if x.tape is None:
            return
        gx = np.zeros_like(x.data)
        gx[lo:hi] = g
        _accum(x, gx)

    return _make(x.data[lo:hi].copy(), (x,), bwd)


def _segment_ids(offsets: np.ndarray) -> np.ndarray:
    counts = np.diff(offsets)
    if np.any(counts <= 0):
        raise ValueError("empty segment")
    return np.repeat(np.arange(len(counts)), counts)


def segment_softmax(logits: Tensor, offsets: np.ndarray) -> Tensor:
    """Softmax within contiguous segments given by CSR-style offsets.

    Subtracts the per-segment max before exponentiating; each segment's
    outputs sum to 1.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    seg = _segment_ids(offsets)
    v = logits.data
    if v.ndim != 1 or v.shape[0] != offsets[-1]:
        raise ValueError("logits must be 1-D with one entry per edge")
    seg_max = np.maximum.reduceat(v, offsets[:-1])
    e = np.exp(v - seg_max[seg])
    seg_sum = np.add.reduceat(e, offsets[:-1])
    alpha = e / seg_sum[seg]

    def bwd(g):
        # softmax Jacobian per segment: da = alpha * (g - sum_seg(g * alpha))
        dot = np.add.reduceat(g * alpha, offsets[:-1])
        _accum(logits, alpha * (g - dot[seg]))

    return _make(alpha, (logits,), bwd)


def _edge_row_dots(g: np.ndarray, values: np.ndarray, neighbor_ids: np.ndarray, row_offsets: np.ndarray) -> np.ndarray:
    """<g[i], values[neighbor_ids[e]]> for every edge e of CSR row i (SDDMM).

    Rows are grouped by degree, and each group is one ``[rows, d, F]``
    gather of neighbour rows contracted against ``g[rows]``, so neither a
    per-edge copy of ``g`` nor a product temporary is built. A kNN graph,
    and any row subset of it, is one group.
    """
    values = values.reshape(len(values), -1)
    g = g.reshape(len(g), -1)
    deg = np.diff(row_offsets)
    dots = np.empty(len(neighbor_ids))
    for d in np.unique(deg[deg > 0]):
        group = np.flatnonzero(deg == d)
        edges = row_offsets[group, None] + np.arange(d)  # [rows, d]
        dots[edges] = np.einsum("rdf,rf->rd", values[neighbor_ids[edges]], g[group])
    return dots


def spmm(
    weights: "Tensor | np.ndarray",
    values: Tensor,
    neighbor_ids: np.ndarray,
    row_offsets: np.ndarray,
) -> Tensor:
    """Sparse-dense product ``A @ values`` with A given in CSR form:
    out[i] = sum over e in row i of weights[e] * values[neighbor_ids[e]].

    Backward is ``A^T @ g`` for ``values`` and the per-edge row dot
    <g[i], values[neighbor_ids[e]]> (SDDMM) for ``weights``. A plain
    ndarray for ``weights`` is a constant and gets no gradient.
    """
    neighbor_ids = np.asarray(neighbor_ids, dtype=np.int64)
    row_offsets = np.asarray(row_offsets, dtype=np.int64)
    weight_t = weights if isinstance(weights, Tensor) else None
    w = np.asarray(weights.data if weight_t is not None else weights, dtype=np.float64)
    if w.shape != neighbor_ids.shape or row_offsets[-1] != len(neighbor_ids):
        raise ValueError("weights/neighbor_ids/row_offsets length mismatch")
    n_rows = len(row_offsets) - 1
    adj = scipy.sparse.csr_array((w, neighbor_ids, row_offsets), shape=(n_rows, values.data.shape[0]))

    def bwd(g):
        if values.tape is not None:
            _accum(values, adj.T @ g)
        if weight_t is not None and weight_t.tape is not None:
            _accum(weight_t, _edge_row_dots(g, values.data, neighbor_ids, row_offsets))

    inputs = (values,) if weight_t is None else (values, weight_t)
    return _make(adj @ values.data, inputs, bwd)


def _per_row(x: Tensor, n: int, name: str) -> np.ndarray:
    """``x`` ([n] or [n, 1]) as a flat [n] view."""
    if x.data.shape not in ((n,), (n, 1)):
        raise ValueError(f"{name} must be [{n}] or [{n}, 1], got {x.shape}")
    return x.data.reshape(n)


def edge_logits(
    score_dst: Tensor,
    score_src: Tensor,
    src: np.ndarray,
    offsets: np.ndarray,
    slope: float,
) -> Tensor:
    """Attention logits ``LeakyReLU(score_dst[i] + score_src[src[e]])`` for
    every edge e of CSR row i, as one [E] array.

    ``score_dst`` holds one score per row and ``score_src`` one per source
    node, each [n] or [n, 1]. Backward scatters into both ends with
    bincount, as ``take_rows`` does, so the gradients equal those of the
    take_rows/add/leaky_relu chain bit for bit.
    """
    _check_slope(slope)
    src = np.asarray(src, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets[-1] != len(src):
        raise ValueError("src/offsets length mismatch")
    deg = np.diff(offsets)
    n_src = score_src.data.shape[0]
    raw = np.repeat(_per_row(score_dst, len(deg), "score_dst"), deg) + _per_row(score_src, n_src, "score_src")[src]

    def bwd(g):
        g_raw = np.where(raw > 0, g, slope * g)
        if score_dst.tape is not None:
            dst = np.repeat(np.arange(len(deg)), deg)
            _accum(score_dst, np.bincount(dst, weights=g_raw, minlength=len(deg)).reshape(score_dst.data.shape))
        if score_src.tape is not None:
            _accum(score_src, np.bincount(src, weights=g_raw, minlength=n_src).reshape(score_src.data.shape))

    return _make(np.maximum(raw, slope * raw), (score_dst, score_src), bwd)


def segment_weighted_sum(values: Tensor, weights: Tensor, offsets: np.ndarray) -> Tensor:
    """out[n] = sum over segment n of weights[e] * values[e]."""
    return spmm(weights, values, np.arange(values.data.shape[0]), offsets)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise normalization with population variance, then affine."""
    centered = x.data - x.data.mean(axis=1, keepdims=True)
    var = (centered * centered).mean(axis=1, keepdims=True)  # as x.var: denominator F
    inv = 1.0 / np.sqrt(var + eps)
    xhat = np.multiply(centered, inv, out=centered)
    data = xhat * gain.data + bias.data

    def bwd(g):
        _accum(gain, np.sum(g * xhat, axis=0))
        _accum(bias, np.sum(g, axis=0))
        if x.tape is not None:
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            _accum(x, inv * (dxhat - m1 - xhat * m2))

    return _make(data, (x, gain, bias), bwd)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    target = np.asarray(target, dtype=np.float64)
    if pred.data.shape != target.shape:
        raise ValueError(f"mse shape mismatch: {pred.shape} vs {target.shape}")
    if pred.data.size == 0:
        raise ValueError("mse of empty prediction")
    diff = pred.data - target
    data = np.array(np.mean(diff * diff))

    def bwd(g):
        _accum(pred, g.reshape(()) * 2.0 * diff / diff.size)

    return _make(data, (pred,), bwd)
