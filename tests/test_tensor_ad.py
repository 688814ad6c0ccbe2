import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse

from beamgat import graph as graph_mod, model
from beamgat import tensor_ad as T
from beamgat.tensor_ad import NonFiniteError, Tape, Tensor

from conftest import finite_diff_grad, random_frame, rel_err

SEEDS = range(20)


def check_grad(build, x0: np.ndarray, tol: float = 1e-5):
    """build(tensor) -> scalar Tensor; compare backward vs central differences."""
    tape = Tape()
    x = Tensor(x0, tape)
    loss = build(x)
    tape.backward(loss)
    analytic = x.grad

    def f(v):
        return float(build(Tensor(v)).data)

    numeric = finite_diff_grad(f, x0)
    assert rel_err(analytic, numeric) < tol


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(a, Tensor(np.eye(2)))
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_column():
    out = T.matmul(Tensor(np.eye(2)), Tensor([[5.0], [7.0]]))
    np.testing.assert_array_equal(out.data, [[5.0], [7.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


@pytest.mark.parametrize("a_shape, b_shape", [((2, 2), (2,)), ((2,), (2, 2)), ((2,), (2,)),
                                              ((3, 2, 2), (2, 2)), ((2, 2), (2, 2, 2)), ((), (2, 2))])
def test_matmul_rejects_operands_that_are_not_2d(a_shape, b_shape):
    # numpy would broadcast or contract these, and the backward's ``g @ b.T``
    # would return a gradient of the wrong shape
    tape = Tape()
    with pytest.raises(ValueError, match="matmul"):
        T.matmul(Tensor(np.ones(a_shape), tape), Tensor(np.ones(b_shape), tape))


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul_grad(seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(3, 3))
    check_grad(lambda x: T.mse_loss(T.reshape(T.matmul(x, Tensor(b)), (-1,)), np.zeros(9)),
               rng.normal(size=(3, 3)))


def test_matmul_backward_skips_a_constant_operand():
    # a constant [N, 64] times a learned [64, 1]: the gradient of the constant
    # would be an [N, 64] product (10 MB) that nothing reads
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(20000, 64)))
    tape = Tape()
    b = Tensor(rng.normal(size=(64, 1)), tape)
    out = T.matmul(a, b)
    loss = T.mse_loss(T.reshape(out, (-1,)), np.zeros(20000))
    tracemalloc.start()
    tape.backward(loss)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 2e6
    assert a.grad is None
    np.testing.assert_array_equal(b.grad, a.data.T @ (2.0 * out.data / out.data.size))


def test_leaky_relu_values():
    out = T.leaky_relu(Tensor([-1.0, 0.0, 2.0]), slope=0.2)
    np.testing.assert_allclose(out.data, [-0.2, 0.0, 2.0])


def test_leaky_relu_slope_one_is_identity():
    x = np.array([-3.0, 4.0])
    out = T.leaky_relu(Tensor(x), slope=1.0)
    np.testing.assert_array_equal(out.data, x)


@pytest.mark.parametrize("slope", [0.0, 0.01, 0.2, 0.5, 1.0])
def test_leaky_relu_forward_bit_identical_to_where_form(slope):
    tiny = np.finfo(np.float64).smallest_subnormal
    big = np.finfo(np.float64).max
    x = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, 1e-310, -1e-310,
                  1.0, -2.5, 1e308, -1e308, big, -big])
    # the finiteness check's sum of ±1e308 overflows on finite data, which
    # must pass without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.leaky_relu(Tensor(x), slope).data
    assert out.tobytes() == np.where(x > 0, x, slope * x).tobytes()


def test_leaky_relu_derivative_at_zero_is_slope():
    tape = Tape()
    x = Tensor([0.0, -0.0, 1.0, -1.0], tape)
    out = T.leaky_relu(x, 0.2)
    tape.backward(T.mse_loss(out, out.data - 1.0))  # upstream gradient 2 * 1 / 4 everywhere
    np.testing.assert_allclose(x.grad, [0.1, 0.1, 0.5, 0.1], rtol=1e-12)


@pytest.mark.parametrize("slope", [-0.1, 1.5, np.nan])
def test_leaky_relu_slope_outside_unit_interval_rejected(slope):
    with pytest.raises(ValueError, match="slope"):
        T.leaky_relu(Tensor([1.0, -1.0]), slope)
    with pytest.raises(ValueError, match="slope"):
        T.edge_logits(Tensor(np.zeros((4, 1))), Tensor(np.zeros((4, 1))), LOGIT_TABLE, slope)


@pytest.mark.parametrize("seed", SEEDS)
def test_leaky_relu_grad(seed):
    rng = np.random.default_rng(seed)
    # keep entries away from the kink, where finite differences are invalid
    x0 = rng.normal(size=7)
    x0[np.abs(x0) < 1e-3] = 0.5
    check_grad(lambda x: T.mse_loss(T.leaky_relu(x, 0.2), np.zeros(7)), x0)


def test_segment_softmax_symmetry():
    out = T.segment_softmax(Tensor([[0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]])


def test_segment_softmax_singleton():
    out = T.segment_softmax(Tensor([[3.7]]))
    np.testing.assert_allclose(out.data, [[1.0]])


def test_segment_softmax_known_values():
    # scalar softmax oracle for [1, 2, 3]
    v = np.array([1.0, 2.0, 3.0])
    expected = np.exp(v) / np.exp(v).sum()
    out = T.segment_softmax(Tensor([v])).data[0]
    np.testing.assert_allclose(out, expected, atol=5e-6)
    np.testing.assert_allclose(out, [0.09003, 0.24473, 0.66524], atol=5e-6)


def test_segment_softmax_shift_invariance_and_sum():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(3, 4))
    base = T.segment_softmax(Tensor(v)).data
    shifted = v.copy()
    shifted[0] += 100.0
    shifted[1] -= 55.0
    out = T.segment_softmax(Tensor(shifted)).data
    np.testing.assert_allclose(out, base, atol=1e-12)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_segment_softmax_empty_segment_rejected():
    # a zero-width table gives every row an empty segment; 1-D logits are
    # no table at all
    with pytest.raises(ValueError):
        T.segment_softmax(Tensor(np.zeros((2, 0))))
    with pytest.raises(ValueError):
        T.segment_softmax(Tensor([1.0, 2.0]))


@pytest.mark.parametrize("seed", SEEDS)
def test_segment_softmax_grad(seed):
    rng = np.random.default_rng(seed)
    target = rng.normal(size=(3, 3))
    check_grad(lambda x: T.mse_loss(T.segment_softmax(x), target),
               rng.normal(size=(3, 3)))


def test_segment_weighted_sum_copies_single_values():
    values = Tensor([[2.0], [4.0]])
    out = T.segment_weighted_sum(values, Tensor([[1.0], [1.0]]))
    np.testing.assert_allclose(out.data, [[2.0], [4.0]])


def test_segment_weighted_sum_mean():
    out = T.segment_weighted_sum(Tensor([[2.0], [4.0]]), Tensor([[0.5, 0.5]]))
    np.testing.assert_allclose(out.data, [[3.0]])


@pytest.mark.parametrize("seed", SEEDS)
def test_segment_weighted_sum_grad(seed):
    rng = np.random.default_rng(seed)
    w0 = rng.normal(size=(4, 2))
    v0 = rng.normal(size=(8, 3))
    target = rng.normal(size=12)

    check_grad(lambda v: T.mse_loss(
        T.reshape(T.segment_weighted_sum(v, Tensor(w0)), (-1,)), target), v0)
    check_grad(lambda w: T.mse_loss(
        T.reshape(T.segment_weighted_sum(Tensor(v0), w), (-1,)), target), w0)


# Neighbour tables over 4 source rows. SPMM_TABLE has the shape of a kNN
# graph (k + 1 = 3 with the self loop) and repeats source 3 in row 1; the
# second table has more rows than sources and repeats a source in two rows.
SPMM_TABLE = np.array([[0, 1, 2], [1, 3, 3], [2, 0, 3], [3, 1, 0]])
SPMM_TABLES = (SPMM_TABLE, np.array([[2, 0], [0, 0], [3, 1], [3, 3], [0, 2]]))


def dense_adjacency(weights, table, n_cols):
    dense = np.zeros((len(table), n_cols))
    for row in range(len(table)):
        for k in range(table.shape[1]):
            dense[row, table[row, k]] += weights[row, k]
    return dense


@pytest.mark.parametrize("seed", range(5))
def test_spmm_matches_dense_product(seed):
    rng = np.random.default_rng(seed)
    for table in SPMM_TABLES:
        w = rng.normal(size=table.shape)
        v = rng.normal(size=(4, 3))
        out = T.spmm(Tensor(w), Tensor(v), table).data
        np.testing.assert_allclose(out, dense_adjacency(w, table, 4) @ v, atol=1e-14)


@pytest.mark.parametrize("seed", SEEDS)
def test_spmm_grad(seed):
    rng = np.random.default_rng(seed)
    for table in SPMM_TABLES:
        w0 = rng.normal(size=table.shape)
        v0 = rng.normal(size=(4, 3))
        target = rng.normal(size=len(table) * 3)

        check_grad(lambda v: T.mse_loss(
            T.reshape(T.spmm(Tensor(w0), v, table), (-1,)), target), v0)
        check_grad(lambda w: T.mse_loss(
            T.reshape(T.spmm(w, Tensor(v0), table), (-1,)), target), w0)


def test_spmm_weight_gradient_peak_stays_near_one_gather():
    # A kNN-shaped table, E = 200k edges of in-degree 20 and F = 16. The
    # weight gradient needs the [E, F] gather of neighbour rows; a per-edge
    # copy of the output gradient, or a product temporary, is one more [E, F].
    n, d, f = 10000, 20, 16
    rng = np.random.default_rng(0)
    table = rng.integers(0, n, size=(n, d))
    values = Tensor(rng.normal(size=(n, f)))
    tape = Tape()
    w = Tensor(rng.normal(size=(n, d)), tape)
    out = T.spmm(w, values, table)
    loss = T.mse_loss(T.reshape(out, (-1,)), np.zeros(n * f))
    gather = n * d * f * 8
    tracemalloc.start()
    try:
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * gather, f"weight gradient peaked at {peak / gather:.2f} [E, F] gathers"
    g = 2.0 * out.data / out.data.size
    expected = (values.data[table] * g[:, None, :]).sum(axis=2)
    np.testing.assert_allclose(w.grad, expected, rtol=1e-12, atol=1e-18)


def test_spmm_constant_weights_get_no_gradient():
    rng = np.random.default_rng(0)
    tape = Tape()
    weights = rng.normal(size=SPMM_TABLE.shape)
    before = weights.copy()
    v = Tensor(rng.normal(size=(4, 2)), tape)
    out = T.spmm(Tensor(weights), v, SPMM_TABLE)
    tape.backward(T.mse_loss(T.reshape(out, (-1,)), np.zeros(8)))
    assert v.grad is not None
    np.testing.assert_array_equal(weights, before)
    dense = dense_adjacency(weights, SPMM_TABLE, 4)
    np.testing.assert_allclose(v.grad, dense.T @ (2.0 * out.data / out.data.size), atol=1e-14)


def test_spmm_length_mismatch_rejected():
    with pytest.raises(ValueError):
        T.spmm(Tensor(np.ones(3)), Tensor(np.ones((4, 2))), SPMM_TABLE)
    with pytest.raises(ValueError):
        T.spmm(Tensor(np.ones(12)), Tensor(np.ones((4, 2))), SPMM_TABLE.ravel())


# Neighbour table of 4 nodes for the attention logits: every row holds its
# self loop, and rows 1 and 3 each repeat a source.
LOGIT_TABLE = np.array([[0, 2, 3], [0, 0, 1], [1, 2, 3], [1, 3, 3]])


def unfused_edge_logits(score_dst, score_src, neighbors, slope):
    """The take_rows/add/leaky_relu/reshape chain that ``edge_logits`` fuses."""
    dst = np.repeat(np.arange(len(neighbors)), neighbors.shape[1])
    raw = T.add(T.take_rows(score_dst, dst), T.take_rows(score_src, neighbors.ravel()))
    return T.reshape(T.leaky_relu(raw, slope), neighbors.shape)


@pytest.mark.parametrize("shape", [(4, 1), (2, 1)])
@pytest.mark.parametrize("seed", range(5))
def test_edge_logits_bit_identical_to_unfused_chain(seed, shape):
    # ``shape`` is score_dst's: every row of the table, or its first two rows
    # as a restricted forward scores them. numpy sums a row of fewer than 8
    # entries in order, so on this table the fused row sum is bit-identical
    # to the scatter of take_rows' A^T g, which adds each source row's
    # gradients in ascending output order
    rng = np.random.default_rng(seed)
    table = LOGIT_TABLE[:shape[0]]
    d0, s0 = rng.normal(size=shape), rng.normal(size=(4, 1))
    d0[0] = -s0[0]  # row 0's self loop sits exactly on the kink
    target = rng.normal(size=table.shape)
    results = []
    for op in (T.edge_logits, unfused_edge_logits):
        tape = Tape()
        score_dst, score_src = Tensor(d0, tape), Tensor(s0, tape)
        logits = op(score_dst, score_src, table, 0.2)
        tape.backward(T.mse_loss(logits, target))
        results.append((logits.data.tobytes(), score_dst.grad.tobytes(), score_src.grad.tobytes()))
    assert results[0] == results[1]


@pytest.mark.parametrize("seed", SEEDS)
def test_edge_logits_grad(seed):
    rng = np.random.default_rng(seed)
    d0, s0 = rng.normal(size=(4, 1)), rng.normal(size=(4, 1))
    target = rng.normal(size=LOGIT_TABLE.shape)
    check_grad(lambda x: T.mse_loss(
        T.edge_logits(x, Tensor(s0), LOGIT_TABLE, 0.2), target), d0)
    check_grad(lambda x: T.mse_loss(
        T.edge_logits(Tensor(d0), x, LOGIT_TABLE, 0.2), target), s0)


def test_edge_logits_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        T.edge_logits(Tensor(np.zeros((3, 1))), Tensor(np.zeros((4, 1))), LOGIT_TABLE, 0.2)
    # scores are [n, 1] columns, as the model's products give them; a flat [n] is rejected
    with pytest.raises(ValueError):
        T.edge_logits(Tensor(np.zeros(4)), Tensor(np.zeros((4, 1))), LOGIT_TABLE, 0.2)
    with pytest.raises(ValueError):
        T.edge_logits(Tensor(np.zeros((4, 1))), Tensor(np.zeros(4)), LOGIT_TABLE, 0.2)
    with pytest.raises(ValueError):
        T.edge_logits(Tensor(np.zeros((4, 1))), Tensor(np.zeros((4, 2))), LOGIT_TABLE, 0.2)
    with pytest.raises(ValueError):
        T.edge_logits(Tensor(np.zeros((12, 1))), Tensor(np.zeros((4, 1))), LOGIT_TABLE.ravel(), 0.2)


def test_layer_norm_constant_row_zeros():
    out = T.layer_norm(Tensor([[5.0, 5.0, 5.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_unit_row():
    # population variance of [-1, 1] is 1; eps shrinks the output slightly
    out = T.layer_norm(Tensor([[-1.0, 1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    expected = np.array([[-1.0, 1.0]]) / np.sqrt(1 + 1e-5)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_layer_norm_statistics():
    rng = np.random.default_rng(3)
    x = rng.normal(scale=50.0, size=(6, 32))
    out = T.layer_norm(Tensor(x), Tensor(np.ones(32)), Tensor(np.zeros(32))).data
    assert np.abs(out.mean(axis=1)).max() < 1e-10
    assert np.abs(out.var(axis=1) - 1.0).max() < 1e-6


def reference_layer_norm(x, gain, bias, eps=1e-5):
    """The op's forward as first written, with ``x.var`` recomputing the mean."""
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mu) * (1.0 / np.sqrt(var + eps)) * gain + bias


@pytest.mark.parametrize("shape, loc, scale", [((7, 16), 0.0, 1.0), ((50, 64), 1e4, 3.0),
                                               ((3, 5), -2.5, 1e-3), ((1, 1), 4.0, 1.0)])
def test_layer_norm_forward_bit_identical_to_var_form(shape, loc, scale):
    rng = np.random.default_rng(shape[0])
    x = rng.normal(loc, scale, size=shape)
    gain, bias = rng.normal(size=shape[1]), rng.normal(size=shape[1])
    out = T.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
    assert out.tobytes() == reference_layer_norm(x, gain, bias).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_layer_norm_grad(seed):
    rng = np.random.default_rng(seed)
    target = rng.normal(size=8)
    gain0 = rng.normal(size=4)
    bias0 = rng.normal(size=4)
    x0 = rng.normal(size=(2, 4))

    check_grad(lambda x: T.mse_loss(
        T.reshape(T.layer_norm(x, Tensor(gain0), Tensor(bias0)), (-1,)), target), x0)
    check_grad(lambda gn: T.mse_loss(
        T.reshape(T.layer_norm(Tensor(x0), gn, Tensor(bias0)), (-1,)), target), gain0)
    check_grad(lambda b: T.mse_loss(
        T.reshape(T.layer_norm(Tensor(x0), Tensor(gain0), b), (-1,)), target), bias0)


def test_sigmoid_at_zero():
    assert float(T.sigmoid(Tensor(0.0)).data) == 0.5


def test_mse_zero_and_known():
    x = Tensor([1.0, 2.0])
    assert float(T.mse_loss(x, x.data).data) == 0.0
    assert float(T.mse_loss(Tensor([0.0]), np.array([2.0])).data) == 4.0


@pytest.mark.parametrize("seed", SEEDS)
def test_take_rows_and_concat_grad(seed):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, 4, size=6)
    target = rng.normal(size=6 * 4)

    def build(x):
        gathered = T.take_rows(x, idx)
        both = T.concat_cols([gathered, T.scale(gathered, 2.0)])
        return T.mse_loss(T.reshape(both, (-1,)), target)

    check_grad(build, rng.normal(size=(4, 2)))


@pytest.mark.parametrize("width", [None, 3])
@pytest.mark.parametrize("seed", range(5))
def test_take_rows_bit_identical_to_fancy_index_and_add_at(seed, width):
    # repeated and unsorted indices, rows 0 and 9 never taken
    rng = np.random.default_rng(seed)
    idx = rng.permutation(np.concatenate([rng.integers(1, 9, size=12), [1, 1, 8]]))
    shape = (10,) if width is None else (10, width)
    x0, target = rng.normal(size=shape), rng.normal(size=(idx.size,) + shape[1:])
    tape = Tape()
    x = Tensor(x0, tape)
    out = T.take_rows(x, idx)
    assert out.data.tobytes() == x0[idx].tobytes()
    tape.backward(T.mse_loss(out, target))
    g = 1.0 * 2.0 * (x0[idx] - target) / target.size  # mse_loss's gradient, as it computes it
    expected = np.zeros(shape)
    np.add.at(expected, idx, g)
    assert x.grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("lo, hi", [(0, 10), (2, 7), (4, 5), (6, 6)])
def test_rows_is_take_rows_of_a_range(lo, hi):
    rng = np.random.default_rng(lo)
    x0, target = rng.normal(size=(10, 3)), rng.normal(size=(hi - lo) * 3)
    results = []
    for op in (lambda x: T.rows(x, lo, hi), lambda x: T.take_rows(x, np.arange(lo, hi))):
        tape = Tape()
        x = Tensor(x0, tape)
        out = op(x)
        if hi > lo:
            tape.backward(T.mse_loss(T.reshape(out, (-1,)), target))
        results.append((out.data.tobytes(), None if x.grad is None else x.grad.tobytes()))
    assert results[0] == results[1]
    assert results[0][0] == x0[lo:hi].tobytes()


@pytest.mark.parametrize("idx", [[0, 10], [-1, 2]])
def test_take_rows_rejects_indices_outside_the_rows(idx):
    with pytest.raises(IndexError):
        T.take_rows(Tensor(np.ones((10, 2))), np.array(idx))


@pytest.mark.parametrize("seed", range(10))
def test_sigmoid_scale_add_grad(seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(3, 2))

    def build(x):
        gate = T.sigmoid(T.rows(x, 0, 1))  # misuse a row as the gate input
        return T.mse_loss(T.reshape(T.scale(Tensor(y), T.rows(T.reshape(gate, (-1,)), 0, 1)), (-1,)),
                          np.zeros(6))

    x0 = rng.normal(size=(2, 1))
    tape = Tape()
    x = Tensor(x0, tape)
    loss = build(x)
    tape.backward(loss)
    numeric = finite_diff_grad(lambda v: float(build(Tensor(v)).data), x0)
    assert rel_err(x.grad, numeric) < 1e-5


def test_backward_sum_gradient_is_ones():
    tape = Tape()
    w = Tensor([1.0, 2.0, 3.0], tape)
    loss = T.mse_loss(w, w.data - 1.0)  # mean((w - (w-1))^2) = 1, d/dw = 2(w-target)/3
    tape.backward(loss)
    np.testing.assert_allclose(w.grad, 2.0 / 3.0)


def test_backward_linear_regression_closed_form():
    # loss = mse(X w, y); gradient = 2 X^T (X w - y) / m
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = np.array([1.0, -1.0])
    w0 = np.array([[0.5], [-0.25]])
    tape = Tape()
    w = Tensor(w0, tape)
    loss = T.mse_loss(T.reshape(T.matmul(Tensor(X), w), (-1,)), y)
    tape.backward(loss)
    expected = 2.0 * X.T @ (X @ w0.ravel() - y) / len(y)
    np.testing.assert_allclose(w.grad.ravel(), expected, atol=1e-12)


def test_backward_requires_scalar():
    tape = Tape()
    x = Tensor([1.0, 2.0], tape)
    y = T.scale(x, 2.0)
    with pytest.raises(ValueError):
        tape.backward(y)


def test_double_backward_rejected():
    tape = Tape()
    x = Tensor([1.0], tape)
    loss = T.mse_loss(x, np.zeros(1))
    tape.backward(loss)
    with pytest.raises(RuntimeError):
        tape.backward(loss)


def test_nonfinite_forward_detected():
    # NonFiniteError is the only signal: numpy's overflow warning would be
    # raised here as an error instead
    for factor in (1e10, Tensor([1e10])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                T.scale(Tensor([1e308]), factor)


@pytest.mark.parametrize("case", ["add", "add_const", "edge_logits", "edge_logits_at_slope_0"])
def test_overflowing_op_raises_only_non_finite_error(case):
    big = np.array([[1e308]])
    ops = {
        "add": lambda: T.add(Tensor(big), Tensor(big)),
        "add_const": lambda: T.add_const(Tensor(big), 1e308),
        "edge_logits": lambda: T.edge_logits(Tensor(big), Tensor(big), np.zeros((1, 1)), 0.2),
        "edge_logits_at_slope_0": lambda: T.edge_logits(Tensor(big), Tensor(big), np.zeros((1, 1)), 0.0),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            ops[case]()


def test_sigmoid_of_a_large_negative_is_zero_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert float(T.sigmoid(Tensor(-1000.0)).data) == 0.0


def test_layer_norm_overflowing_variance_raises():
    # the squares overflow to inf, which would silently set the row to its bias
    with pytest.raises(NonFiniteError):
        T.layer_norm(Tensor([[1e200, -1e200]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))


def test_gradient_accumulation_at_shared_input():
    tape = Tape()
    x = Tensor([1.0, 2.0], tape)
    both = T.add(x, x)
    loss = T.mse_loss(both, np.zeros(2))
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, 2.0 * 2.0 * both.data / 2.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_add_of_one_tensor_on_both_sides_does_not_alias_gradients(seed):
    # h feeds both sides of an add and a later op; d and e receive the same
    # output gradient, so an uncopied first gradient would let h's second
    # accumulation write through into e's pending gradient
    rng = np.random.default_rng(seed)
    w0, target = rng.normal(size=(3, 4)), rng.normal(size=12)

    def build(w):
        h = T.sigmoid(w)
        e = T.scale(h, 3.0)
        d = T.add(h, h)
        f = T.add_const(T.add(d, e), 0.5)
        return T.mse_loss(T.reshape(T.add(f, h), (-1,)), target)

    check_grad(build, w0)
    tape = Tape()
    w = Tensor(w0, tape)
    tape.backward(build(w))
    h = 1.0 / (1.0 + np.exp(-w0))
    g = 2.0 * ((6.0 * h + 0.5).ravel() - target).reshape(3, 4) / 12
    np.testing.assert_allclose(w.grad, 6.0 * g * h * (1.0 - h), rtol=1e-12)


def test_first_gradient_is_taken_without_a_copy():
    tape = Tape()
    x = Tensor(np.ones((2, 3)), tape)
    built = np.full((2, 3), 7.0)
    T._accum(x._cell, built)
    assert x.grad is built


def test_backward_frees_intermediates_and_keeps_leaf_grads():
    rng = np.random.default_rng(0)
    b = rng.normal(size=(3, 2))
    x0 = rng.normal(size=(4, 3))

    def build(x):
        h = T.matmul(x, Tensor(b))
        return h, T.mse_loss(T.reshape(T.sigmoid(h), (-1,)), np.zeros(8))

    tape = Tape()
    x = Tensor(x0, tape)
    h, loss = build(x)
    tape.backward(loss)
    assert tape._nodes == []
    assert h.grad is None and loss.grad is None
    numeric = finite_diff_grad(lambda v: float(build(Tensor(v))[1].data), x0)
    assert rel_err(x.grad, numeric) < 1e-5


def test_backward_drops_large_intermediate():
    tape = Tape()
    x = Tensor(np.ones((2000, 8)), tape)
    big = T.scale(x, 3.0)
    ref = weakref.ref(big.data)
    loss = T.mse_loss(T.reshape(big, (-1,)), np.zeros(16000))
    del big
    tape.backward(loss)
    assert ref() is None
    np.testing.assert_allclose(x.grad, 2.0 * 9.0 / 16000)


def test_backward_peak_memory_stays_flat_along_a_chain():
    # Each of the 30 chained outputs is freed as soon as its node has run,
    # so the reverse pass needs a few arrays at a time rather than one
    # gradient per node.
    n, steps = 20000, 30
    nbytes = n * 8
    tape = Tape()
    x = Tensor(np.ones(n), tape)
    h = x
    for _ in range(steps):
        h = T.scale(h, 1.01)
    loss = T.mse_loss(h, np.zeros(n))
    del h
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 5 * nbytes, f"backward peaked {(peak - base) / nbytes:.1f} arrays above its start"
    np.testing.assert_allclose(x.grad, 2.0 * 1.01 ** (2 * steps) / n)


def test_constant_has_no_gradient_and_grad_is_read_only():
    tape = Tape()
    c = Tensor(np.ones((2, 3)))
    w = Tensor(np.ones((3, 1)), tape)
    tape.backward(T.mse_loss(T.reshape(T.matmul(c, w), (-1,)), np.zeros(2)))
    assert c.grad is None
    assert w.grad is not None
    with pytest.raises(AttributeError):
        w.grad = np.zeros((3, 1))


def test_tape_drops_an_output_no_backward_reads():
    # add(matmul(x, w), b): matmul's backward reads x and w, add's reads
    # neither operand, so the product is freed before backward runs
    rng = np.random.default_rng(0)
    tape = Tape()
    x = Tensor(rng.normal(size=(5, 3)), tape)
    w = Tensor(rng.normal(size=(3, 2)), tape)
    b = Tensor(rng.normal(size=2), tape)
    product = T.matmul(x, w)
    ref = weakref.ref(product.data)
    out = T.add(product, b)
    del product
    assert ref() is None
    loss = T.mse_loss(T.reshape(out, (-1,)), np.zeros(10))
    tape.backward(loss)
    g = 2.0 * out.data / out.data.size
    np.testing.assert_allclose(w.grad, x.data.T @ g, rtol=1e-12)
    np.testing.assert_allclose(x.grad, g @ w.data.T, rtol=1e-12)
    np.testing.assert_allclose(b.grad, g.sum(axis=0), rtol=1e-12)


@pytest.mark.parametrize("consumer", ["matmul", "scale"])
def test_tape_drops_a_layer_norm_output_its_consumer_reads(consumer):
    # the consumer's backward reads the norm's output, but keeps the norm's
    # rebuild of it, so the output array dies with its tensor
    rng = np.random.default_rng(0)
    tape = Tape()
    x = Tensor(rng.normal(size=(6, 4)), tape)
    gain, bias = Tensor(rng.normal(size=4), tape), Tensor(rng.normal(size=4), tape)
    normed = T.layer_norm(x, gain, bias)
    kept = normed.data.copy()
    ref = weakref.ref(normed.data)
    if consumer == "matmul":
        w = Tensor(rng.normal(size=(4, 3)), tape)
        out = T.matmul(normed, w)
    else:
        w = Tensor(np.array(-0.7), tape)
        out = T.scale(normed, w)
    del normed
    assert ref() is None
    tape.backward(T.mse_loss(T.reshape(out, (-1,)), np.zeros(out.data.size)))
    g = 2.0 * out.data / out.data.size
    want = kept.T @ g if consumer == "matmul" else np.full((), np.sum(g * kept))
    np.testing.assert_allclose(w.grad, want, rtol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_layer_norm_rebuild_has_the_output_bytes(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(2.0, 3.0, size=(40, 64))
    gain, bias = rng.normal(1.0, 2.0, size=64), rng.normal(size=64)
    tape = Tape()
    out = T.layer_norm(Tensor(x, tape), Tensor(gain, tape), Tensor(bias, tape))
    rebuilt = out._rebuild()
    assert rebuilt is not out.data
    assert rebuilt.tobytes() == out.data.tobytes()
    # without a tape no op keeps anything, so there is nothing to rebuild
    assert T.layer_norm(Tensor(x), Tensor(gain), Tensor(bias))._rebuild is None


def test_superior_gat_tape_keeps_little_per_node():
    # A live tape after a superior_gat forward at rows = N/5 holds about 900
    # B per node, and the forward peaks at about 1.07 kB: each op keeps only
    # what its backward reads, mostly [R, 64] inputs of the products and
    # norms, and an op that reads a norm's output keeps the norm's rebuild.
    # Keeping every op's output held 3.3 kB; keeping the norm outputs held
    # 1.2 kB and peaked at 1.47 kB; heads that project all N nodes before
    # they aggregate held 1.8 kB.
    n = 3000
    frame = random_frame(np.random.default_rng(0), n)
    g = graph_mod.build_knn_graph(frame, k=10)
    rows = np.arange(0, n, 5)
    params = model.init_params("superior_gat", 0)
    feats = Tensor(g.features)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tape = Tape()
        z = model.forward(g, feats, model.bind_params(params, tape), "superior_gat", rows=rows)
        loss = T.mse_loss(z, np.zeros(rows.size))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept, peak = kept - base, peak - base
    assert kept < 1000 * n, f"tape keeps {kept / n:.0f} B per node"
    assert peak < 1250 * n, f"forward peaked at {peak / n:.0f} B per node"
    tape.backward(loss)


# ---------------------------------------------------------------------------
# in-place kernels: what each op allocates, and what it must leave alone
# ---------------------------------------------------------------------------

MEM_SHAPE = (20000, 64)
MEM_UNIT = MEM_SHAPE[0] * MEM_SHAPE[1] * 8  # bytes of one [20000, 64] array


def peak_above_start(fn) -> float:
    """Peak traced memory while ``fn`` runs, above what was traced when it
    started, in [20000, 64] arrays; what ``fn`` returns is counted."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return (peak - base) / MEM_UNIT


def last_backward(tape: Tape):
    """The backward function of the op recorded last on ``tape``."""
    return tape._nodes[-1][1]


def memory_case(op: str, rng, tape: Tape):
    """A zero-argument call of ``op`` on recorded [20000, 64] inputs."""
    x = Tensor(rng.normal(size=MEM_SHAPE), tape)
    if op == "layer_norm":
        gain, bias = Tensor(rng.normal(size=MEM_SHAPE[1]), tape), Tensor(rng.normal(size=MEM_SHAPE[1]), tape)
        return lambda: T.layer_norm(x, gain, bias)
    if op == "leaky_relu":
        return lambda: T.leaky_relu(x, 0.2)
    if op == "scale":
        gate = Tensor(np.array(0.3), tape)
        return lambda: T.scale(x, gate)
    assert op == "segment_softmax"
    return lambda: T.segment_softmax(x)


# Bounds in [20000, 64] arrays, counting the op's output or gradients. The
# plain expressions peaked at: layer_norm 3.04 forward and 3.04 backward,
# leaky_relu 2.13 and 2.0, a learned scale's backward 2.0 and
# segment_softmax's forward 2.07; writing each chain into one array the op
# allocated gives 2.05/2.04, 1.13/1.0, 1.0 and 1.07.
@pytest.mark.parametrize("op, forward_bound, backward_bound", [
    ("layer_norm", 2.3, 2.3), ("leaky_relu", 1.3, 1.3), ("scale", None, 1.3), ("segment_softmax", 1.3, None),
])
def test_op_peak_memory_stays_near_its_outputs(op, forward_bound, backward_bound):
    rng = np.random.default_rng(0)
    tape = Tape()
    call = memory_case(op, rng, tape)
    if forward_bound is not None:
        forward = peak_above_start(call)
        assert forward <= forward_bound, f"{op} forward peaked at {forward:.2f} arrays"
    out = call()
    g = rng.normal(size=out.shape)
    if backward_bound is not None:
        backward = peak_above_start(lambda: last_backward(tape)(g))
        assert backward <= backward_bound, f"{op} backward peaked at {backward:.2f} arrays"


@pytest.mark.parametrize("learned_side", [0, 1])
def test_add_backward_copies_no_gradient_for_a_constant_operand(learned_side):
    rng = np.random.default_rng(0)
    tape = Tape()
    operands = [Tensor(rng.normal(size=MEM_SHAPE)) for _ in range(2)]
    operands[learned_side] = Tensor(operands[learned_side].data, tape)
    T.add(*operands)
    g = rng.normal(size=MEM_SHAPE)
    backward = peak_above_start(lambda: last_backward(tape)(g))
    assert backward < 0.1, f"add backward allocated {backward:.2f} arrays"
    assert operands[learned_side].grad is g and operands[1 - learned_side].grad is None


def concat_view(rng, shape) -> np.ndarray:
    """A gradient of ``shape`` as ``concat_cols`` hands it to one part: a
    column slice of a wider array, so not contiguous."""
    wide = rng.normal(size=(shape[0], shape[1] + 5))
    g = wide[:, 2:2 + shape[1]]
    assert not g.flags.c_contiguous
    return g


def plain_spmm(w, v, table, g):
    adj = scipy.sparse.csr_array((w.ravel(), table.ravel(), np.arange(0, table.size + 1, table.shape[1])),
                                 shape=(table.shape[0], v.shape[0]))
    return adj @ v, [np.einsum("rkf,rf->rk", v[table], g), adj.T @ g]


def plain_edge_logits(d, s, table, g, slope=0.2):
    raw = d.reshape(-1)[:, None] + s.reshape(-1)[table]
    g_raw = np.where(raw > 0, g, slope * g)
    src = np.bincount(table.ravel(), weights=g_raw.ravel(), minlength=s.shape[0])
    return np.maximum(raw, slope * raw), [g_raw.sum(axis=1).reshape(d.shape), src.reshape(s.shape)]


def plain_layer_norm(x, gain, bias, g):
    centered = x - x.mean(axis=1, keepdims=True)
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = centered * inv
    dxhat = g * gain
    m1 = dxhat.mean(axis=1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return xhat * gain + bias, [dx, np.sum(g * xhat, axis=0), np.sum(g, axis=0)]


def plain_segment_softmax(v, g):
    e = np.exp(v - v.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    return alpha, [alpha * (g - (g * alpha).sum(axis=1, keepdims=True))]


# Each case: the input arrays, each recorded as a learned tensor; the op on
# those tensors; and the op's plain expressions, which map the input arrays
# and the upstream gradient to (output, [gradient per input]). The table
# reads 300 source rows, and its rows span two SDDMM blocks.
INPLACE_TABLE = np.random.default_rng(1).integers(0, 300, size=(T.SDDMM_BLOCK_ROWS + 37, 11))
INPLACE_CASES = {
    "layer_norm": (lambda rng: [rng.normal(3.0, 2.0, size=(500, 64)), rng.normal(size=64), rng.normal(size=64)],
                   T.layer_norm, plain_layer_norm),
    "leaky_relu": (lambda rng: [np.where(rng.random((500, 64)) < 0.1, -0.0, rng.normal(size=(500, 64)))],
                   lambda x: T.leaky_relu(x, 0.2),
                   lambda x, g: (np.maximum(x, 0.2 * x), [np.where(x > 0, g, 0.2 * g)])),
    "scale": (lambda rng: [rng.normal(size=(500, 64)), np.array(-0.7)],
              T.scale, lambda x, s, g: (x * s, [g * s, np.full((), np.sum(g * x))])),
    "scale_by_a_float": (lambda rng: [rng.normal(size=(500, 64))],
                         lambda x: T.scale(x, -1.5), lambda x, g: (x * -1.5, [g * -1.5])),
    "scale_of_a_scalar": (lambda rng: [np.array(0.4), np.array(-1.3)],
                          T.scale, lambda x, s, g: (x * s, [g * s, np.full((), np.sum(g * x))])),
    "segment_softmax": (lambda rng: [rng.normal(size=(500, 11))], T.segment_softmax, plain_segment_softmax),
    "edge_logits": (lambda rng: [rng.normal(size=(len(INPLACE_TABLE), 1)), rng.normal(size=(300, 1))],
                    lambda d, s: T.edge_logits(d, s, INPLACE_TABLE, 0.2),
                    lambda d, s, g: plain_edge_logits(d, s, INPLACE_TABLE, g)),
    "spmm": (lambda rng: [rng.normal(size=INPLACE_TABLE.shape), rng.normal(size=(300, 16))],
             lambda w, v: T.spmm(w, v, INPLACE_TABLE),
             lambda w, v, g: plain_spmm(w, v, INPLACE_TABLE, g)),
    "add": (lambda rng: [rng.normal(size=(500, 64)), rng.normal(size=(500, 64))],
            T.add, lambda a, b, g: (a + b, [g, g])),
    "add_a_bias": (lambda rng: [rng.normal(size=(500, 64)), rng.normal(size=64)],
                   T.add, lambda a, b, g: (a + b, [g, g.sum(axis=0)])),
}


@pytest.mark.parametrize("case", sorted(INPLACE_CASES))
def test_op_leaves_inputs_kept_arrays_and_gradient_alone_and_keeps_the_plain_bytes(case):
    make_inputs, op, plain = INPLACE_CASES[case]
    rng = np.random.default_rng(0)
    arrays = make_inputs(rng)
    tape = Tape()
    inputs = [Tensor(a.copy(), tape) for a in arrays]
    out = op(*inputs)
    backward = last_backward(tape)
    kept = [c.cell_contents for c in backward.__closure__ if isinstance(c.cell_contents, np.ndarray)]
    kept_before = [a.copy() for a in kept]
    g = concat_view(rng, out.shape) if out.data.ndim == 2 else rng.normal(size=out.shape)
    g_before = g.copy()
    backward(g)

    def same(a, b):
        return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()

    assert all(same(t.data, a) for t, a in zip(inputs, arrays)), "an input changed"
    assert all(same(a, b) for a, b in zip(kept, kept_before)), "an array the backward keeps changed"
    assert same(g, g_before), "the upstream gradient changed"
    want_out, want_grads = plain(*arrays, g_before)
    assert same(out.data, want_out)
    for t, want in zip(inputs, want_grads):
        assert same(t.grad, want)


def test_spmm_weight_gradient_in_row_blocks_equals_the_one_piece_gather():
    r, n, f = 2 * T.SDDMM_BLOCK_ROWS + 3, 3000, 16
    rng = np.random.default_rng(0)
    table = rng.integers(0, n, size=(r, 11))
    values = Tensor(rng.normal(size=(n, f)))
    for g in (rng.normal(size=(r, f)), concat_view(rng, (r, f))):
        tape = Tape()
        w = Tensor(rng.normal(size=table.shape), tape)
        T.spmm(w, values, table)
        last_backward(tape)(g)
        assert w.grad.tobytes() == np.einsum("rkf,rf->rk", values.data[table], g).tobytes()


def test_spmm_weight_gradient_peaks_below_one_gather():
    # test_spmm_weight_gradient_peak_stays_near_one_gather's table, E = 200k
    # edges of in-degree 20 and F = 16: gathered 4096 rows at a time, the
    # backward peaks at 0.55 of one [E, F] gather; in one piece, at 1.11
    n, d, f = 10000, 20, 16
    rng = np.random.default_rng(0)
    table = rng.integers(0, n, size=(n, d))
    values = Tensor(rng.normal(size=(n, f)))
    tape = Tape()
    w = Tensor(rng.normal(size=(n, d)), tape)
    out = T.spmm(w, values, table)
    loss = T.mse_loss(T.reshape(out, (-1,)), np.zeros(n * f))
    gather = n * d * f * 8
    tracemalloc.start()
    try:
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.7 * gather, f"weight gradient peaked at {peak / gather:.2f} [E, F] gathers"
