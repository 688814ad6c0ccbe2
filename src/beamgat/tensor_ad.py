"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Only the operations the models actually need are provided. All data is
float64, row-major. Recording happens on an explicit :class:`Tape`; tensors
created without a tape are constants and receive no gradient. The graph ops
(``edge_logits``, ``segment_softmax``, ``spmm``) work on an [R, K]
neighbour table: row r lists the K source nodes feeding output row r.

The tape holds no tensors. Each recorded tensor owns a gradient cell, and
the tape keeps that cell with the op's backward function, which holds its
inputs' cells and only the arrays it reads. An intermediate array that no
backward function reads is freed as soon as the forward drops its tensor.
A layer norm's output recorded on a tape carries a rebuild of ``xhat *
gain + bias`` from the arrays the norm's backward keeps anyway; an op that
reads that output in its backward (``matmul``, a learned ``scale``) keeps
the rebuild instead of the array and calls it when the backward runs, so
the output is held by its tensor alone.

An op chains its elementwise steps through arrays it allocated itself
(``out=``, ``np.copyto(..., where=)``), with the ufuncs and reductions of
the plain expression in its order, so the bytes are the expression's. No op
writes into an input, into an array its backward keeps, or into the
upstream gradient ``g``, which ``concat_cols`` hands out as views.
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


class _Cell:
    """Where a recorded tensor's gradient accumulates."""

    __slots__ = ("grad", "shape")

    def __init__(self, shape: tuple[int, ...]):
        self.grad: np.ndarray | None = None
        self.shape = shape


class Tensor:
    """Dense float64 array, optionally linked into a gradient tape."""

    __slots__ = ("data", "tape", "_cell", "_rebuild")

    def __init__(self, data, tape: "Tape | None" = None):
        arr = np.asarray(data, dtype=np.float64)
        # ascontiguousarray would promote 0-d scalars to 1-d
        self.data = arr if arr.ndim == 0 else np.ascontiguousarray(arr)
        self.tape = tape
        self._cell = None if tape is None else _Cell(self.data.shape)
        # a call that returns ``data``'s bytes in a new array (see layer_norm)
        self._rebuild = None

    @property
    def grad(self) -> np.ndarray | None:
        """The accumulated gradient; None for a constant, and for a
        recorded intermediate once the backward pass is past it."""
        return None if self._cell is None else self._cell.grad

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, tape={self.tape is not None})"


class Tape:
    """Ordered record of operations; inputs always precede their consumers."""

    def __init__(self):
        self._nodes: list[tuple[_Cell, callable]] = []
        self._consumed = False

    def backward(self, loss: Tensor) -> None:
        """Reverse traversal from a scalar loss; accumulates leaf gradients.

        Nodes are popped as the pass reaches them, and each output's
        gradient is taken out of its cell before its backward function
        runs, so gradients and the arrays a closure holds are freed during
        the reverse pass rather than after it. Only leaf tensors keep a
        gradient.
        """
        if loss.data.size != 1:
            raise ValueError("backward requires a scalar loss")
        if loss.tape is not self:
            raise ValueError("loss was not recorded on this tape")
        if self._consumed:
            raise RuntimeError("tape already consumed; one backward pass per recording")
        self._consumed = True
        loss._cell.grad = np.ones_like(loss.data)
        # popping drops each node's closure, and the arrays it holds, as soon
        # as the pass is past it
        nodes = self._nodes
        while nodes:
            cell, backward_fn = nodes.pop()
            g, cell.grad = cell.grad, None
            if g is not None:
                backward_fn(g)


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


def _accum(cell: _Cell | None, g: np.ndarray) -> None:
    """Add ``g``, which has the cell's shape, into ``cell`` (None: a
    constant, which gets nothing). A first gradient is kept as it is, not
    copied: the output gradient a backward function passes through was taken
    out of its cell by ``Tape.backward``, so ``cell`` is its only holder; a
    backward function that hands one array to two inputs copies it for the
    second."""
    if cell is None:
        return
    if cell.grad is None:
        cell.grad = g
    else:
        cell.grad += g


def _tape_of(*tensors: Tensor) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise ValueError("operands recorded on different tapes")
            tape = t.tape
    return tape


def _keep(x: Tensor):
    """What a backward keeps to read ``x.data``: the rebuild, when ``x``
    has one, else the array; ``_kept`` turns it back into the array."""
    return x.data if x._rebuild is None else x._rebuild


def _kept(kept) -> np.ndarray:
    return kept if isinstance(kept, np.ndarray) else kept()


def _make(data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    tape = _tape_of(*inputs)
    out = Tensor(_check_finite(data), tape)
    if tape is not None:
        tape._nodes.append((out._cell, backward_fn))
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of two 2-D tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul needs [n, m] x [m, p] operands, got {a.shape} x {b.shape}")
    data = a.data @ b.data
    # each operand is kept only for the other's gradient; a constant operand
    # (the node features) gets no product
    ca, cb = a._cell, b._cell
    a_kept = _keep(a) if cb is not None else None
    b_kept = _keep(b) if ca is not None else None

    def bwd(g):
        if ca is not None:
            _accum(ca, g @ _kept(b_kept).T)
        if cb is not None:
            _accum(cb, _kept(a_kept).T @ g)

    return _make(data, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also supports adding a length-F bias to an [N, F] matrix."""
    ca, cb = a._cell, b._cell
    if a.data.shape == b.data.shape:
        def bwd(g):
            _accum(ca, g)
            if cb is not None:  # one array cannot be both cells' gradient
                _accum(cb, g if ca is None else g.copy())
    elif a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]:
        def bwd(g):
            _accum(ca, g)
            _accum(cb, g.sum(axis=0))
    else:
        raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")
    with np.errstate(over="ignore"):  # _make raises NonFiniteError on overflow
        data = a.data + b.data
    return _make(data, (a, b), bwd)


def scale(x: Tensor, s: "Tensor | float") -> Tensor:
    """Multiply by a python float or a scalar tensor (learnable gate)."""
    learned = isinstance(s, Tensor)
    if learned and s.data.size != 1:
        raise ValueError("scale factor must be scalar")
    factor = s.data.reshape(()) if learned else s
    with np.errstate(over="ignore"):  # _make raises NonFiniteError on overflow
        data = x.data * factor
    cx = x._cell
    cs = s._cell if learned else None
    x_kept = _keep(x) if cs is not None else None

    def bwd(g):
        if cs is None:
            _accum(cx, g * factor)
        else:
            # one buffer (an array even for a 0-d gate) holds the products
            # for the factor's sum, then x's gradient
            buf = np.multiply(g, _kept(x_kept), out=np.empty(g.shape))
            total = np.sum(buf)
            if cx is not None:
                _accum(cx, np.multiply(g, factor, out=buf))
            _accum(cs, np.full(cs.shape, total))

    return _make(data, (x, s) if learned else (x,), bwd)


def add_const(x: Tensor, c: float) -> Tensor:
    cx = x._cell

    def bwd(g):
        _accum(cx, g)

    with np.errstate(over="ignore"):  # _make raises NonFiniteError on overflow
        data = x.data + c
    return _make(data, (x,), bwd)


def _check_slope(slope: float) -> None:
    # max(x, slope * x) is the leaky ReLU only for 0 <= slope <= 1
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"leaky_relu slope must be in [0, 1], got {slope}")


def leaky_relu(x: Tensor, slope: float) -> Tensor:
    _check_slope(slope)
    cx = x._cell
    positive = x.data > 0  # convention: derivative at exactly 0 is `slope`

    def bwd(g):
        _accum(cx, _leaky_grad(g, positive, slope))

    data = np.multiply(x.data, slope)
    return _make(np.maximum(x.data, data, out=data), (x,), bwd)


def _leaky_grad(g: np.ndarray, positive: np.ndarray, slope: float) -> np.ndarray:
    """``np.where(positive, g, slope * g)`` in one new array."""
    out = np.multiply(g, slope)
    np.copyto(out, g, where=positive)
    return out


def elu(x: Tensor) -> Tensor:
    data = np.where(x.data > 0, x.data, np.expm1(x.data))
    cx, x_data = x._cell, x.data

    def bwd(g):
        _accum(cx, g * np.where(x_data > 0, 1.0, np.exp(x_data)))

    return _make(data, (x,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # exp(-x) overflows to inf for x << 0, and 1 / inf is 0
        data = 1.0 / (1.0 + np.exp(-x.data))
    cx = x._cell

    def bwd(g):
        _accum(cx, g * data * (1.0 - data))

    return _make(data, (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    cx, old = x._cell, x.data.shape

    def bwd(g):
        _accum(cx, g.reshape(old))

    return _make(x.data.reshape(shape), (x,), bwd)


def concat_cols(parts: list[Tensor]) -> Tensor:
    widths = [p.data.shape[1] for p in parts]
    data = np.concatenate([p.data for p in parts], axis=1)
    offsets = np.concatenate([[0], np.cumsum(widths)])
    cells = [p._cell for p in parts]

    def bwd(g):
        for cell, lo, hi in zip(cells, offsets[:-1], offsets[1:]):
            _accum(cell, g[:, lo:hi])

    return _make(data, tuple(parts), bwd)


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """The rows ``x[idx]``, as ``spmm`` with one unit weight per output row:
    the forward has the bytes of ``x[idx]`` (but for a -0.0, which comes out
    as 0.0), and the backward ``A^T g`` adds each source row's gradients in
    ascending output order."""
    idx = np.asarray(idx, dtype=np.int64)[:, None]
    return spmm(Tensor(np.ones(idx.shape)), x, idx)


def rows(x: Tensor, lo: int, hi: int) -> Tensor:
    """Contiguous row slice x[lo:hi], for 0 <= lo <= hi <= len(x)."""
    return take_rows(x, np.arange(lo, hi))


def _table(neighbors: np.ndarray, n_src: int) -> np.ndarray:
    """``neighbors`` as an int64 [R, K] neighbour table, K >= 1, of source
    rows in [0, n_src). The range is checked because scipy's CSR products
    do not check their column ids."""
    neighbors = np.asarray(neighbors, dtype=np.int64)
    if neighbors.ndim != 2 or neighbors.shape[1] == 0:
        raise ValueError(f"neighbors must be an [R, K] table with K >= 1, got shape {neighbors.shape}")
    if neighbors.size and (neighbors.min() < 0 or neighbors.max() >= n_src):
        raise IndexError(f"neighbour ids must lie in [0, {n_src})")
    return neighbors


def segment_softmax(logits: Tensor) -> Tensor:
    """Softmax along each row of [R, K] logits, one row per node's K
    incoming edges.

    Subtracts the row max before exponentiating; each row sums to 1.
    """
    v = logits.data
    if v.ndim != 2 or v.shape[1] == 0:
        raise ValueError(f"logits must be [R, K] with K >= 1, got {logits.shape}")
    alpha = np.subtract(v, v.max(axis=1, keepdims=True))
    np.exp(alpha, out=alpha)
    np.divide(alpha, alpha.sum(axis=1, keepdims=True), out=alpha)
    cl = logits._cell

    def bwd(g):
        # softmax Jacobian per row: da = alpha * (g - sum_row(g * alpha))
        da = np.multiply(g, alpha)
        dot = da.sum(axis=1, keepdims=True)
        np.subtract(g, dot, out=da)
        _accum(cl, np.multiply(alpha, da, out=da))

    return _make(alpha, (logits,), bwd)


# table rows per gather of the SDDMM: a [4096, K, F] block instead of one
# [R, K, F] array; each output entry is the same f-sum either way
SDDMM_BLOCK_ROWS = 4096


def spmm(weights: Tensor, values: Tensor, neighbors: np.ndarray) -> Tensor:
    """Sparse-dense product over a neighbour table:
    out[i] = sum over k of weights[i, k] * values[neighbors[i, k]].

    ``weights`` and ``neighbors`` are [R, K]. Forward is ``A @ values``
    and the ``values`` gradient ``A^T @ g``, both scipy CSR products with
    the table as A's column ids; the ``weights`` gradient is the row dot
    <g[i], values[neighbors[i, k]]> (SDDMM), a gather of neighbour rows
    contracted against g, SDDMM_BLOCK_ROWS table rows at a time into one
    [R, K] array. Backward keeps A, and ``values`` only when the weights
    learn.
    """
    neighbors = _table(neighbors, values.data.shape[0])
    w = weights.data
    if w.shape != neighbors.shape:
        raise ValueError(f"weights {w.shape} must match the neighbour table {neighbors.shape}")
    r, k = neighbors.shape
    adj = scipy.sparse.csr_array(
        (w.ravel(), neighbors.ravel(), np.arange(0, r * k + 1, k)), shape=(r, values.data.shape[0])
    )

    cv, cw = values._cell, weights._cell
    v = values.data if cw is not None else None

    def bwd(g):
        if cv is not None:
            _accum(cv, adj.T @ g)
        if cw is not None:
            dw = np.empty((r, k))
            for lo in range(0, r, SDDMM_BLOCK_ROWS):
                hi = lo + SDDMM_BLOCK_ROWS
                np.einsum("rkf,rf->rk", v[neighbors[lo:hi]], g[lo:hi], out=dw[lo:hi])
            _accum(cw, dw)

    return _make(adj @ values.data, (values, weights), bwd)


def _per_row(x: Tensor, n: int, name: str) -> np.ndarray:
    """``x``, an [n, 1] column, as a flat [n] view."""
    if x.data.shape != (n, 1):
        raise ValueError(f"{name} must be [{n}, 1], got {x.shape}")
    return x.data.reshape(n)


def edge_logits(score_dst: Tensor, score_src: Tensor, neighbors: np.ndarray, slope: float) -> Tensor:
    """Attention logits ``LeakyReLU(score_dst[i] + score_src[neighbors[i, k]])``
    as one [R, K] array.

    ``score_dst`` holds one score per table row and ``score_src`` one per
    source node, each an [n, 1] column. Backward sums each row into
    ``score_dst`` and scatters into ``score_src`` with one ``bincount``.
    """
    _check_slope(slope)
    n_src = score_src.data.shape[0]
    neighbors = _table(neighbors, n_src)
    dst = _per_row(score_dst, neighbors.shape[0], "score_dst")
    raw = _per_row(score_src, n_src, "score_src")[neighbors]
    with np.errstate(over="ignore"):  # _make raises NonFiniteError on overflow
        np.add(dst[:, None], raw, out=raw)
    positive = raw > 0
    c_dst, c_src = score_dst._cell, score_src._cell

    def bwd(g):
        g_raw = _leaky_grad(g, positive, slope)
        if c_dst is not None:
            _accum(c_dst, g_raw.sum(axis=1).reshape(c_dst.shape))
        if c_src is not None:
            scattered = np.bincount(neighbors.ravel(), weights=g_raw.ravel(), minlength=n_src)
            _accum(c_src, scattered.reshape(c_src.shape))

    with np.errstate(invalid="ignore"):  # an overflowed score times a slope of 0 is NaN
        data = np.maximum(raw, np.multiply(raw, slope), out=raw)
    return _make(data, (score_dst, score_src), bwd)


def segment_weighted_sum(values: Tensor, weights: Tensor) -> Tensor:
    """out[r] = sum over k of weights[r, k] * values[r * K + k]."""
    return spmm(weights, values, np.arange(values.data.shape[0]).reshape(weights.data.shape))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Row-wise normalization with population variance and epsilon 1e-5, then affine."""
    centered = np.subtract(x.data, x.data.mean(axis=1, keepdims=True))
    with np.errstate(over="ignore"):  # an overflowing variance raises NonFiniteError below
        data = np.multiply(centered, centered)  # the output's buffer holds the squares first
        var = data.mean(axis=1, keepdims=True)  # as x.var: denominator F
    inv = 1.0 / np.sqrt(_check_finite(var) + 1e-5)  # an infinite var would zero its xhat row
    xhat = np.multiply(centered, inv, out=centered)
    np.multiply(xhat, gain.data, out=data)
    np.add(data, bias.data, out=data)
    cx, c_gain, c_bias, gain_data = x._cell, gain._cell, bias._cell, gain.data

    def bwd(g):
        # two [R, F] buffers: the products for the gain's sum become dxhat,
        # and the second holds dxhat * xhat, then xhat * m2
        buf = np.multiply(g, xhat)
        _accum(c_gain, np.sum(buf, axis=0))
        _accum(c_bias, np.sum(g, axis=0))
        if cx is not None:
            dxhat = np.multiply(g, gain_data, out=buf)
            m1 = dxhat.mean(axis=1, keepdims=True)
            prod = np.multiply(dxhat, xhat)
            m2 = prod.mean(axis=1, keepdims=True)
            # inv * (dxhat - m1 - xhat * m2)
            np.subtract(dxhat, m1, out=dxhat)
            np.subtract(dxhat, np.multiply(xhat, m2, out=prod), out=dxhat)
            _accum(cx, np.multiply(inv, dxhat, out=dxhat))

    out = _make(data, (x, gain, bias), bwd)
    if out.tape is not None:
        bias_data = bias.data

        def rebuild():
            # the forward's two ufuncs in its order, so the bytes are data's;
            # gain and bias change only after the backward pass
            y = np.multiply(xhat, gain_data)
            return np.add(y, bias_data, out=y)

        out._rebuild = rebuild
    return out


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    target = np.asarray(target, dtype=np.float64)
    if pred.data.shape != target.shape:
        raise ValueError(f"mse shape mismatch: {pred.shape} vs {target.shape}")
    if pred.data.size == 0:
        raise ValueError("mse of empty prediction")
    diff = pred.data - target
    with np.errstate(over="ignore"):  # _make raises NonFiniteError on overflow
        data = np.array(np.mean(diff * diff))
    cp = pred._cell

    def bwd(g):
        _accum(cp, g.reshape(()) * 2.0 * diff / diff.size)

    return _make(data, (pred,), bwd)
