"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Only the operations the models actually need are provided. All data is
float64, row-major. Recording happens on an explicit :class:`Tape`; tensors
created without a tape are constants and receive no gradient. The graph ops
(``edge_logits``, ``segment_softmax``, ``spmm``) work on an [R, K]
neighbour table: row r lists the K source nodes feeding output row r.
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
    # a single-pass sum is finite iff the array holds no NaN/Inf; a finite
    # array whose sum overflows is checked element by element, so that
    # overflow is expected and not warned about
    with np.errstate(over="ignore"):
        total = data.sum()
    if not np.isfinite(total):
        if np.all(np.isfinite(data)):
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
    learned = isinstance(s, Tensor)
    if learned and s.data.size != 1:
        raise ValueError("scale factor must be scalar")
    factor = s.data.reshape(()) if learned else s
    with np.errstate(over="ignore"):  # _make raises NonFiniteError on overflow
        data = x.data * factor

    def bwd(g):
        _accum(x, g * factor)
        if learned:
            _accum(s, np.full(s.data.shape, np.sum(g * x.data)))

    return _make(data, (x, s) if learned else (x,), bwd)


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


def _table(neighbors: np.ndarray) -> np.ndarray:
    """``neighbors`` as an int64 [R, K] neighbour table, K >= 1."""
    neighbors = np.asarray(neighbors, dtype=np.int64)
    if neighbors.ndim != 2 or neighbors.shape[1] == 0:
        raise ValueError(f"neighbors must be an [R, K] table with K >= 1, got shape {neighbors.shape}")
    return neighbors


def segment_softmax(logits: Tensor) -> Tensor:
    """Softmax along each row of [R, K] logits, one row per node's K
    incoming edges.

    Subtracts the row max before exponentiating; each row sums to 1.
    """
    v = logits.data
    if v.ndim != 2 or v.shape[1] == 0:
        raise ValueError(f"logits must be [R, K] with K >= 1, got {logits.shape}")
    e = np.exp(v - v.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        # softmax Jacobian per row: da = alpha * (g - sum_row(g * alpha))
        dot = (g * alpha).sum(axis=1, keepdims=True)
        _accum(logits, alpha * (g - dot))

    return _make(alpha, (logits,), bwd)


def spmm(weights: "Tensor | np.ndarray", values: Tensor, neighbors: np.ndarray) -> Tensor:
    """Sparse-dense product over a neighbour table:
    out[i] = sum over k of weights[i, k] * values[neighbors[i, k]].

    ``weights`` and ``neighbors`` are [R, K]. Forward is ``A @ values``
    and the ``values`` gradient ``A^T @ g``, both scipy CSR products with
    the table as A's column ids; the ``weights`` gradient is the row dot
    <g[i], values[neighbors[i, k]]> (SDDMM), one [R, K, F] gather of
    neighbour rows contracted against g. A plain ndarray for ``weights``
    is a constant and gets no gradient.
    """
    neighbors = _table(neighbors)
    weight_t = weights if isinstance(weights, Tensor) else None
    w = np.asarray(weights.data if weight_t is not None else weights, dtype=np.float64)
    if w.shape != neighbors.shape:
        raise ValueError(f"weights {w.shape} must match the neighbour table {neighbors.shape}")
    r, k = neighbors.shape
    adj = scipy.sparse.csr_array(
        (w.ravel(), neighbors.ravel(), np.arange(0, r * k + 1, k)), shape=(r, values.data.shape[0])
    )

    def bwd(g):
        if values.tape is not None:
            _accum(values, adj.T @ g)
        if weight_t is not None and weight_t.tape is not None:
            _accum(weight_t, np.einsum("rkf,rf->rk", values.data[neighbors], g))

    inputs = (values,) if weight_t is None else (values, weight_t)
    return _make(adj @ values.data, inputs, bwd)


def _per_row(x: Tensor, n: int, name: str) -> np.ndarray:
    """``x`` ([n] or [n, 1]) as a flat [n] view."""
    if x.data.shape not in ((n,), (n, 1)):
        raise ValueError(f"{name} must be [{n}] or [{n}, 1], got {x.shape}")
    return x.data.reshape(n)


def edge_logits(score_dst: Tensor, score_src: Tensor, neighbors: np.ndarray, slope: float) -> Tensor:
    """Attention logits ``LeakyReLU(score_dst[i] + score_src[neighbors[i, k]])``
    as one [R, K] array.

    ``score_dst`` holds one score per table row and ``score_src`` one per
    source node, each [n] or [n, 1]. Backward sums each row into
    ``score_dst`` and scatters into ``score_src`` as ``take_rows`` does.
    """
    _check_slope(slope)
    neighbors = _table(neighbors)
    n_src = score_src.data.shape[0]
    dst = _per_row(score_dst, neighbors.shape[0], "score_dst")
    raw = dst[:, None] + _per_row(score_src, n_src, "score_src")[neighbors]

    def bwd(g):
        g_raw = np.where(raw > 0, g, slope * g)
        if score_dst.tape is not None:
            _accum(score_dst, g_raw.sum(axis=1).reshape(score_dst.data.shape))
        if score_src.tape is not None:
            _accum(score_src, _scatter_add(g_raw.ravel(), neighbors.ravel(), n_src).reshape(score_src.data.shape))

    return _make(np.maximum(raw, slope * raw), (score_dst, score_src), bwd)


def segment_weighted_sum(values: Tensor, weights: Tensor) -> Tensor:
    """out[r] = sum over k of weights[r, k] * values[r * K + k]."""
    return spmm(weights, values, np.arange(values.data.shape[0]).reshape(weights.data.shape))


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
