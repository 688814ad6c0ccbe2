import tracemalloc
import weakref

import numpy as np
import pytest

from beamgat import tensor_ad as T
from beamgat.tensor_ad import NonFiniteError, Tape, Tensor

from conftest import finite_diff_grad, rel_err

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


@pytest.mark.filterwarnings("ignore:overflow encountered in reduce")  # the finiteness check's sum of ±1e308
@pytest.mark.parametrize("slope", [0.0, 0.01, 0.2, 0.5, 1.0])
def test_leaky_relu_forward_bit_identical_to_where_form(slope):
    tiny = np.finfo(np.float64).smallest_subnormal
    big = np.finfo(np.float64).max
    x = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, 1e-310, -1e-310,
                  1.0, -2.5, 1e308, -1e308, big, -big])
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
        T.edge_logits(Tensor(np.zeros((4, 1))), Tensor(np.zeros((4, 1))), LOGIT_IDS, LOGIT_OFFSETS, slope)


@pytest.mark.parametrize("seed", SEEDS)
def test_leaky_relu_grad(seed):
    rng = np.random.default_rng(seed)
    # keep entries away from the kink, where finite differences are invalid
    x0 = rng.normal(size=7)
    x0[np.abs(x0) < 1e-3] = 0.5
    check_grad(lambda x: T.mse_loss(T.leaky_relu(x, 0.2), np.zeros(7)), x0)


def test_segment_softmax_symmetry():
    out = T.segment_softmax(Tensor([0.0, 0.0]), np.array([0, 2]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_segment_softmax_singleton():
    out = T.segment_softmax(Tensor([3.7]), np.array([0, 1]))
    np.testing.assert_allclose(out.data, [1.0])


def test_segment_softmax_known_values():
    # scalar softmax oracle for [1, 2, 3]
    v = np.array([1.0, 2.0, 3.0])
    expected = np.exp(v) / np.exp(v).sum()
    out = T.segment_softmax(Tensor(v), np.array([0, 3]))
    np.testing.assert_allclose(out.data, expected, atol=5e-6)
    np.testing.assert_allclose(out.data, [0.09003, 0.24473, 0.66524], atol=5e-6)


def test_segment_softmax_shift_invariance_and_sum():
    rng = np.random.default_rng(0)
    offsets = np.array([0, 3, 7, 12])
    v = rng.normal(size=12)
    base = T.segment_softmax(Tensor(v), offsets).data
    shifted = v.copy()
    shifted[0:3] += 100.0
    shifted[3:7] -= 55.0
    out = T.segment_softmax(Tensor(shifted), offsets).data
    np.testing.assert_allclose(out, base, atol=1e-12)
    sums = np.add.reduceat(out, offsets[:-1])
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_segment_softmax_empty_segment_rejected():
    with pytest.raises(ValueError):
        T.segment_softmax(Tensor([1.0]), np.array([0, 1, 1]))


@pytest.mark.parametrize("seed", SEEDS)
def test_segment_softmax_grad(seed):
    rng = np.random.default_rng(seed)
    offsets = np.array([0, 2, 5, 9])
    target = rng.normal(size=9)
    check_grad(lambda x: T.mse_loss(T.segment_softmax(x, offsets), target),
               rng.normal(size=9))


def test_segment_weighted_sum_copies_single_values():
    values = Tensor([[2.0], [4.0]])
    out = T.segment_weighted_sum(values, Tensor([1.0, 1.0]), np.array([0, 1, 2]))
    np.testing.assert_allclose(out.data, [[2.0], [4.0]])


def test_segment_weighted_sum_mean():
    out = T.segment_weighted_sum(Tensor([[2.0], [4.0]]), Tensor([0.5, 0.5]), np.array([0, 2]))
    np.testing.assert_allclose(out.data, [[3.0]])


@pytest.mark.parametrize("seed", SEEDS)
def test_segment_weighted_sum_grad(seed):
    rng = np.random.default_rng(seed)
    offsets = np.array([0, 2, 6, 8])
    w0 = rng.normal(size=8)
    v0 = rng.normal(size=(8, 3))
    target = rng.normal(size=9)

    check_grad(lambda v: T.mse_loss(
        T.reshape(T.segment_weighted_sum(v, Tensor(w0), offsets), (-1,)), target), v0)
    check_grad(lambda w: T.mse_loss(
        T.reshape(T.segment_weighted_sum(Tensor(v0), w, offsets), (-1,)), target), w0)


# Irregular CSR over 4 source rows: an empty row, singleton rows, a source
# repeated within one row (3, 3) and rows of lengths 0, 1, 3, 1 and 4.
SPMM_OFFSETS = np.array([0, 0, 1, 4, 5, 9])
SPMM_IDS = np.array([2, 0, 0, 3, 1, 3, 3, 0, 2])
# Uniform CSR over the same 4 source rows: 4 rows of 3 edges, the shape of a
# kNN graph (k + 1 = 3 with the self loop), with a source repeated in row 1.
UNIFORM_OFFSETS = np.arange(0, 13, 3)
UNIFORM_IDS = np.array([0, 1, 2, 1, 3, 3, 2, 0, 3, 3, 1, 0])
SPMM_CSRS = ((SPMM_OFFSETS, SPMM_IDS), (UNIFORM_OFFSETS, UNIFORM_IDS))


def dense_adjacency(weights, ids, offsets, n_cols):
    dense = np.zeros((len(offsets) - 1, n_cols))
    for row in range(len(offsets) - 1):
        for e in range(offsets[row], offsets[row + 1]):
            dense[row, ids[e]] += weights[e]
    return dense


@pytest.mark.parametrize("seed", range(5))
def test_spmm_matches_dense_product(seed):
    rng = np.random.default_rng(seed)
    for offsets, ids in SPMM_CSRS:
        w = rng.normal(size=len(ids))
        v = rng.normal(size=(4, 3))
        out = T.spmm(Tensor(w), Tensor(v), ids, offsets).data
        np.testing.assert_allclose(out, dense_adjacency(w, ids, offsets, 4) @ v, atol=1e-14)


@pytest.mark.parametrize("seed", SEEDS)
def test_spmm_grad(seed):
    rng = np.random.default_rng(seed)
    for offsets, ids in SPMM_CSRS:
        w0 = rng.normal(size=len(ids))
        v0 = rng.normal(size=(4, 3))
        target = rng.normal(size=(len(offsets) - 1) * 3)

        check_grad(lambda v: T.mse_loss(
            T.reshape(T.spmm(Tensor(w0), v, ids, offsets), (-1,)), target), v0)
        check_grad(lambda w: T.mse_loss(
            T.reshape(T.spmm(w, Tensor(v0), ids, offsets), (-1,)), target), w0)


def test_spmm_weight_gradient_peak_stays_near_one_gather():
    # A kNN-shaped graph, E = 200k edges of in-degree 20 and F = 16. The
    # weight gradient needs the [E, F] gather of neighbour rows; a per-edge
    # copy of the output gradient, or a product temporary, is one more [E, F].
    n, d, f = 10000, 20, 16
    rng = np.random.default_rng(0)
    ids = rng.integers(0, n, size=n * d)
    offsets = np.arange(0, n * d + 1, d)
    values = Tensor(rng.normal(size=(n, f)))
    tape = Tape()
    w = Tensor(rng.normal(size=n * d), tape)
    out = T.spmm(w, values, ids, offsets)
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
    expected = (values.data[ids] * np.repeat(g, d, axis=0)).sum(axis=1)
    np.testing.assert_allclose(w.grad, expected, rtol=1e-12, atol=1e-18)


def test_spmm_constant_weights_get_no_gradient():
    rng = np.random.default_rng(0)
    tape = Tape()
    weights = rng.normal(size=len(SPMM_IDS))
    before = weights.copy()
    v = Tensor(rng.normal(size=(4, 2)), tape)
    out = T.spmm(weights, v, SPMM_IDS, SPMM_OFFSETS)
    tape.backward(T.mse_loss(T.reshape(out, (-1,)), np.zeros(10)))
    assert v.grad is not None
    np.testing.assert_array_equal(weights, before)
    dense = dense_adjacency(weights, SPMM_IDS, SPMM_OFFSETS, 4)
    np.testing.assert_allclose(v.grad, dense.T @ (2.0 * out.data / out.data.size), atol=1e-14)


def test_spmm_length_mismatch_rejected():
    with pytest.raises(ValueError):
        T.spmm(np.ones(3), Tensor(np.ones((4, 2))), SPMM_IDS, SPMM_OFFSETS)


# Square CSR over 4 nodes for the attention logits: row 0 holds only its
# self loop, row 1 repeats source 0, and the degrees are 1, 3, 2 and 3.
LOGIT_OFFSETS = np.array([0, 1, 4, 6, 9])
LOGIT_IDS = np.array([0, 1, 0, 0, 2, 3, 3, 1, 2])


def unfused_edge_logits(score_dst, score_src, src, offsets, slope):
    """The take_rows/add/leaky_relu/reshape chain that ``edge_logits`` fuses."""
    dst = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    raw = T.add(T.take_rows(score_dst, dst), T.take_rows(score_src, src))
    return T.reshape(T.leaky_relu(raw, slope), (-1,))


@pytest.mark.parametrize("shape", [(4,), (4, 1)])
@pytest.mark.parametrize("seed", range(5))
def test_edge_logits_bit_identical_to_unfused_chain(seed, shape):
    rng = np.random.default_rng(seed)
    d0, s0 = rng.normal(size=shape), rng.normal(size=shape)
    d0[0] = -s0[0]  # row 0's self loop sits exactly on the kink
    target = rng.normal(size=len(LOGIT_IDS))
    results = []
    for op in (T.edge_logits, unfused_edge_logits):
        tape = Tape()
        score_dst, score_src = Tensor(d0, tape), Tensor(s0, tape)
        logits = op(score_dst, score_src, LOGIT_IDS, LOGIT_OFFSETS, 0.2)
        tape.backward(T.mse_loss(logits, target))
        results.append((logits.data.tobytes(), score_dst.grad.tobytes(), score_src.grad.tobytes()))
    assert results[0] == results[1]


@pytest.mark.parametrize("seed", SEEDS)
def test_edge_logits_grad(seed):
    rng = np.random.default_rng(seed)
    d0, s0 = rng.normal(size=(4, 1)), rng.normal(size=(4, 1))
    target = rng.normal(size=len(LOGIT_IDS))
    check_grad(lambda x: T.mse_loss(
        T.edge_logits(x, Tensor(s0), LOGIT_IDS, LOGIT_OFFSETS, 0.2), target), d0)
    check_grad(lambda x: T.mse_loss(
        T.edge_logits(Tensor(d0), x, LOGIT_IDS, LOGIT_OFFSETS, 0.2), target), s0)


def test_edge_logits_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        T.edge_logits(Tensor(np.zeros((3, 1))), Tensor(np.zeros((4, 1))), LOGIT_IDS, LOGIT_OFFSETS, 0.2)
    with pytest.raises(ValueError):
        T.edge_logits(Tensor(np.zeros((4, 1))), Tensor(np.zeros((4, 2))), LOGIT_IDS, LOGIT_OFFSETS, 0.2)


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
    with pytest.raises(NonFiniteError):
        T.scale(Tensor([1e308]), 1e10)


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
    T._accum(x, built)
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
