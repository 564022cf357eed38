import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from oavl import nn
from oavl.nn import (
    MissingGradientError,
    Parameter,
    ShapeError,
    Tensor,
    adam_step,
)

from gradcheck import branch_trace, finite_difference_check

SEEDS = list(range(20))


def weighted_sum(out: Tensor, rng) -> Tensor:
    """Scalar loss with a dense gradient path into every output coordinate."""
    weights = rng.standard_normal(out.shape)
    return nn.tsum(nn.mul(out, Tensor(weights)))


def away_from_zero(x, margin=0.2):
    return x + margin * np.sign(x) + (x == 0) * margin


# --- forward contracts -------------------------------------------------------


class TestForward:
    def test_linear_identity(self):
        x = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4))
        y = nn.linear(x, np.eye(4), np.zeros(4))
        assert np.array_equal(y.data, x.data)

    def test_linear_zero_input_broadcasts_bias(self):
        b = np.array([1.0, -2.0])
        y = nn.linear(np.zeros((3, 4)), np.zeros((4, 2)), b)
        assert np.array_equal(y.data, np.tile(b, (3, 1)))

    def test_linear_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nn.linear(np.zeros((3, 4)), np.zeros((5, 2)), np.zeros(2))

    def test_conv_unit_1x1_kernel_sums_channels(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 5, 5, 3))
        kernel = np.ones((1, 3, 1, 1))
        y = nn.conv2d(Tensor(x), Tensor(kernel), Tensor(np.array([0.5])), stride=1)
        assert np.allclose(y.data[..., 0], np.maximum(x.sum(axis=-1) + 0.5, 0))

    def test_conv_zero_kernel(self):
        bias = np.array([1.0, -2.0, 0.25])
        y = nn.conv2d(np.ones((1, 4, 4, 2)), np.zeros((3, 2, 3, 3)), bias, stride=1)
        assert y.shape == (1, 4, 4, 3)
        assert np.array_equal(y.data, np.broadcast_to(np.maximum(bias, 0), y.shape))

    def test_conv_output_shape_formula(self):
        y = nn.conv2d(np.zeros((1, 11, 9, 1)), np.zeros((2, 1, 3, 3)), np.zeros(2), stride=2)
        assert y.shape == (1, 5 + 1, 4 + 1, 2)

    @pytest.mark.parametrize(
        "x_shape, k_shape, stride",
        [((2, 7, 6, 3), (4, 3, 3, 3), 2), ((2, 1, 9, 5), (4, 5, 1, 3), 1)],
        ids=["3x3-stride2", "1x3-stride1"],
    )
    def test_conv_matches_nested_loop_cross_correlation(self, x_shape, k_shape, stride):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(x_shape)
        k = rng.standard_normal(k_shape)
        bias = rng.standard_normal(k_shape[0])
        n, h, w, c = x_shape
        c_out, _, kh, kw = k_shape
        # one output per stride-th input position, the kernel centred on it
        rows, cols = range(0, h, stride), range(0, w, stride)
        expected = np.tile(bias, (n, len(rows), len(cols), 1))
        for b in range(n):
            for oy, y in enumerate(rows):
                for ox, xx in enumerate(cols):
                    for o in range(c_out):
                        for ci in range(c):
                            for i in range(kh):
                                for j in range(kw):
                                    yy, xj = y + i - kh // 2, xx + j - kw // 2
                                    if 0 <= yy < h and 0 <= xj < w:
                                        expected[b, oy, ox, o] += x[b, yy, xj, ci] * k[o, ci, i, j]
        y = nn.conv2d(x, k, bias, stride=stride)
        assert y.shape == expected.shape
        assert np.allclose(y.data, np.maximum(expected, 0), atol=1e-12)

    def test_conv_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channel"):
            nn.conv2d(np.zeros((1, 4, 4, 2)), np.zeros((1, 3, 3, 3)), np.zeros(1))

    @pytest.mark.parametrize("bias_shape", [(2,), (1, 3), ()], ids=["short", "2-D", "scalar"])
    def test_conv_bias_must_hold_one_value_per_output_channel(self, bias_shape):
        with pytest.raises(ShapeError, match="bias"):
            nn.conv2d(np.zeros((1, 4, 4, 2)), np.zeros((3, 2, 3, 3)), np.zeros(bias_shape))

    @pytest.mark.parametrize("stride", [0, -1, 1.5], ids=["zero", "negative", "fractional"])
    def test_conv_rejects_stride_that_is_not_a_positive_int(self, stride):
        with pytest.raises(ShapeError, match="stride"):
            nn.conv2d(np.zeros((1, 4, 4, 2)), np.zeros((3, 2, 3, 3)), np.zeros(3), stride=stride)

    def test_l2_normalize_three_four(self):
        y = nn.l2_normalize(Tensor(np.array([3.0, 4.0])))
        assert np.allclose(y.data, [0.6, 0.8], atol=1e-7)

    def test_l2_normalize_unit_vector(self):
        v = np.array([1.0, 0.0, 0.0])
        y = nn.l2_normalize(Tensor(v))
        assert np.allclose(y.data, v, atol=1e-7)

    def test_l2_normalize_zero_vector(self):
        y = nn.l2_normalize(Tensor(np.zeros(4)))
        assert np.array_equal(y.data, np.zeros(4))
        assert np.isfinite(y.data).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_l2_normalize_zero_row_gradient_is_the_limit(self, dtype):
        v = np.zeros((3, 4), dtype)
        v[1] = [0.3, -1.2, 2.0, 0.7]
        x = Tensor(v, requires_grad=True)
        weights = np.random.default_rng(3).standard_normal((3, 4)).astype(dtype)
        nn.tsum(nn.mul(nn.l2_normalize(x), Tensor(weights))).backward()
        norm = np.sqrt((v * v).sum(axis=-1, keepdims=True))
        denom = norm + 1e-8
        # zero rows: g / denom, the limit of the gradient as v -> 0
        assert np.array_equal(x.grad[[0, 2]], weights[[0, 2]] / denom[[0, 2]])
        # the non-zero row keeps the closed form's exact bits
        inner = (weights[1] * v[1]).sum()
        expected = weights[1] / denom[1] - v[1] * inner / (norm[1] * denom[1] * denom[1])
        assert x.grad[1].tobytes() == expected.tobytes()

    def test_relu_idempotent(self):
        # conv2d's relu: a 1x1 identity kernel with zero bias is relu alone
        x = np.random.default_rng(1).standard_normal((2, 4, 5, 3))
        identity, zero = np.eye(3)[:, :, None, None], np.zeros(3)
        once = nn.conv2d(x, identity, zero).data
        twice = nn.conv2d(once, identity, zero).data
        assert np.array_equal(once, np.maximum(x, 0))
        assert np.array_equal(once, twice)

    def test_mean_pool_of_constant(self):
        y = nn.mean_pool(np.full((2, 4, 5, 3), 7.0))
        assert np.allclose(y.data, 7.0)
        assert y.shape == (2, 3)

    def test_backward_requires_scalar(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeError):
            nn.mul(t, 2.0).backward()


class TestSoftmaxCrossEntropy:
    @pytest.mark.parametrize("k", [2, 8, 32])
    def test_uniform_logits_give_log_k(self, k):
        logits = Tensor(np.zeros((4, k)))
        loss = nn.softmax_cross_entropy(logits, np.zeros(4, dtype=int))
        assert abs(float(loss.data) - math.log(k)) <= 1e-6

    def test_saturated_two_class_case(self):
        logits = Tensor(np.array([[10.0, -10.0]]))
        loss = nn.softmax_cross_entropy(logits, np.array([0]))
        expected = math.log1p(math.exp(-20.0))
        assert abs(float(loss.data) - expected) / expected <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((5, 7))
        targets = rng.integers(0, 7, 5)
        a = nn.softmax_cross_entropy(Tensor(logits), targets)
        b = nn.softmax_cross_entropy(Tensor(logits + 123.0), targets)
        assert abs(float(a.data) - float(b.data)) <= 1e-6

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            nn.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


class TestAdam:
    def test_first_step_magnitude_near_lr(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        p.grad = np.array([0.25], dtype=np.float32)
        adam_step(p, lr=1e-2, weight_decay=0.0)
        assert p.t == 1
        assert np.isclose(p.data[0], 1.0 - 1e-2, atol=1e-6)

    def test_first_step_sign_follows_gradient(self):
        p = Parameter(np.zeros(2, dtype=np.float32))
        p.grad = np.array([3.0, -0.5], dtype=np.float32)
        adam_step(p, lr=1e-3, weight_decay=0.0)
        assert p.data[0] < 0 < p.data[1]

    def test_zero_grad_no_decay_is_identity(self):
        p = Parameter(np.array([2.0], dtype=np.float32))
        p.grad = np.zeros(1, dtype=np.float32)
        adam_step(p, lr=1e-2, weight_decay=0.0)
        assert p.data[0] == np.float32(2.0)

    def test_zero_grad_with_decay_scales(self):
        p = Parameter(np.array([2.0], dtype=np.float32))
        p.grad = np.zeros(1, dtype=np.float32)
        adam_step(p, lr=1e-2, weight_decay=1e-3)
        assert np.isclose(p.data[0], 2.0 * (1 - 1e-2 * 1e-3), rtol=1e-7)

    def test_lr_zero_is_identity(self):
        p = Parameter(np.array([1.5], dtype=np.float32))
        p.grad = np.array([4.0], dtype=np.float32)
        adam_step(p, lr=0.0, weight_decay=1e-3)
        assert p.data[0] == np.float32(1.5)

    def test_missing_gradient_raises(self):
        with pytest.raises(MissingGradientError):
            adam_step(Parameter(np.zeros(1)), lr=1e-3)

    def test_dtype_preserved(self):
        p = Parameter(np.ones(3, dtype=np.float32))
        p.grad = np.ones(3, dtype=np.float32)
        adam_step(p, lr=1e-3)
        assert p.data.dtype == np.float32
        assert p.m.dtype == np.float32 and p.v.dtype == np.float32

    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_update_matches_out_of_place_formula(self, shape, dtype):
        """200 steps against the formula written with fresh arrays, bit for bit;
        the moment buffers are the same objects throughout."""
        rng = np.random.default_rng(31)
        p = Parameter(rng.standard_normal(shape).astype(dtype))
        data, m, v = p.data.copy(), p.m.copy(), p.v.copy()
        m_buffer, v_buffer = p.m, p.v
        lr, beta1, beta2, eps, decay = 3e-3, 0.9, 0.999, 1e-8, 1e-3
        for t in range(1, 201):
            g = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 2)).astype(dtype)
            p.grad = g
            adam_step(p, lr=lr, weight_decay=decay)
            data = data - lr * decay * data
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * (g * g)
            m_hat = m / (1.0 - beta1**t)
            v_hat = v / (1.0 - beta2**t)
            data = data - lr * m_hat / (np.sqrt(v_hat) + eps)
            for got, want in ((p.data, data), (p.m, m), (p.v, v)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert p.t == 200
        assert p.m is m_buffer and p.v is v_buffer


# --- finite differences -------------------------------------------------------


def test_checker_on_square():
    theta = Tensor(np.array(3.0), requires_grad=True)

    def f():
        return nn.mul(theta, theta)

    err = finite_difference_check(f, [theta], h=1e-4)
    assert theta.grad is not None and abs(theta.grad - 6.0) <= 1e-10
    assert err <= 1e-10


def _case_add(rng):
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    return [a, b], lambda: weighted_sum(nn.add(a, b), np.random.default_rng(0))


def _case_mul(rng):
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 1)), requires_grad=True)
    return [a, b], lambda: weighted_sum(nn.mul(a, b), np.random.default_rng(0))


def _case_div(rng):
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(away_from_zero(rng.standard_normal((3, 1)), 0.5), requires_grad=True)
    return [a, b], lambda: weighted_sum(nn.div(a, b), np.random.default_rng(0))


def _case_matmul(rng):
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    return [a, b], lambda: weighted_sum(nn.matmul(a, b), np.random.default_rng(0))


def _case_linear(rng):
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal(2), requires_grad=True)
    return [x, w, b], lambda: weighted_sum(nn.linear(x, w, b), np.random.default_rng(0))


def _case_transpose(rng):
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    return [a], lambda: weighted_sum(nn.transpose(a), np.random.default_rng(0))


def _case_relu(rng):
    # conv2d's relu on pre-activations that straddle 0, each at least 0.2 from
    # the kink: a 1x1 identity kernel and zero bias pass the input through
    x = Tensor(away_from_zero(rng.standard_normal((2, 3, 4, 3))), requires_grad=True)
    k = Tensor(np.eye(3)[:, :, None, None], requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    return [x, k, b], lambda: weighted_sum(nn.conv2d(x, k, b), np.random.default_rng(0))


def _case_exp(rng):
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    return [a], lambda: weighted_sum(nn.exp(a), np.random.default_rng(0))


def _case_clamp(rng):
    a = Tensor(away_from_zero(rng.standard_normal((3, 4))), requires_grad=True)
    return [a], lambda: weighted_sum(nn.clamp(a, -1.5, 1.5), np.random.default_rng(0))


def _case_sum(rng):
    a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    return [a], lambda: weighted_sum(nn.tsum(a, axis=1), np.random.default_rng(0))


def _case_mean(rng):
    a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    return [a], lambda: weighted_sum(nn.tmean(a, axis=(0, 2)), np.random.default_rng(0))


def _case_mean_pool(rng):
    a = Tensor(rng.standard_normal((2, 4, 5, 3)), requires_grad=True)
    return [a], lambda: weighted_sum(nn.mean_pool(a), np.random.default_rng(0))


def _case_embedding(rng):
    w = Tensor(rng.standard_normal((7, 5)), requires_grad=True)
    idx = rng.integers(0, 7, (3, 4))
    return [w], lambda: weighted_sum(nn.embedding(w, idx), np.random.default_rng(0))


def _case_embedding_positions(rng):
    # token rows plus a position table, as encode_text embeds a caption; the
    # second row reads only row 0, the pad token
    w = Tensor(rng.standard_normal((7, 5)), requires_grad=True)
    pos = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    idx = rng.integers(0, 7, (3, 1, 4))
    idx[1] = 0
    return [w, pos], lambda: weighted_sum(nn.embedding(w, idx, pos), np.random.default_rng(0))


def _case_mean_pool_masked(rng):
    # a caption batch's pad mask: one row keeps nothing, one keeps everything
    a = Tensor(rng.standard_normal((3, 1, 6, 4)), requires_grad=True)
    mask = rng.random((3, 1, 6, 1)) < 0.5
    mask[0], mask[1] = False, True
    return [a], lambda: weighted_sum(nn.mean_pool(a, mask), np.random.default_rng(0))


def _conv2d_case(rng, x_shape, k_shape, stride):
    x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
    k = Tensor(rng.standard_normal(k_shape), requires_grad=True)
    b = Tensor(rng.standard_normal(k_shape[0]), requires_grad=True)

    def f():
        return weighted_sum(nn.conv2d(x, k, b, stride=stride), np.random.default_rng(0))

    return [x, k, b], f


def _case_conv2d(rng):
    return _conv2d_case(rng, (1, 5, 5, 2), (3, 2, 3, 3), stride=1)


def _case_embedding_shared(rng):
    # one table read twice and summed, as encode_text reads positives and
    # negatives; 12 draws from 5 rows per call repeat indices
    w = Tensor(rng.standard_normal((7, 5)), requires_grad=True)
    idx_a, idx_b = rng.integers(0, 5, (3, 4)), rng.integers(0, 5, (3, 4))

    def f():
        both = nn.add(nn.embedding(w, idx_a), nn.embedding(w, idx_b))
        return weighted_sum(both, np.random.default_rng(0))

    return [w], f


def _case_conv2d_image(rng):
    # the image encoder's strided 3x3 kernel, on one odd and one even side
    return _conv2d_case(rng, (2, 7, 6, 3), (4, 3, 3, 3), stride=2)


def _case_conv2d_strided(rng):
    # the text encoder's 1x3 kernel: padding along the width only
    return _conv2d_case(rng, (2, 6, 7, 3), (4, 3, 1, 3), stride=2)


def _case_l2_normalize(rng):
    a = Tensor(rng.standard_normal((3, 5)) + 0.5, requires_grad=True)
    return [a], lambda: weighted_sum(nn.l2_normalize(a), np.random.default_rng(0))


def _case_softmax_cross_entropy(rng):
    logits = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    targets = rng.integers(0, 4, 3)
    return [logits], lambda: nn.softmax_cross_entropy(logits, targets)


PRIMITIVE_CASES = {
    "add": _case_add,
    "mul": _case_mul,
    "div": _case_div,
    "matmul": _case_matmul,
    "linear": _case_linear,
    "transpose": _case_transpose,
    "relu": _case_relu,
    "exp": _case_exp,
    "clamp": _case_clamp,
    "sum": _case_sum,
    "mean": _case_mean,
    "mean_pool": _case_mean_pool,
    "mean_pool_masked": _case_mean_pool_masked,
    "embedding": _case_embedding,
    "embedding_positions": _case_embedding_positions,
    "embedding_shared": _case_embedding_shared,
    "conv2d": _case_conv2d,
    "conv2d_image": _case_conv2d_image,
    "conv2d_strided": _case_conv2d_strided,
    "l2_normalize": _case_l2_normalize,
    "softmax_cross_entropy": _case_softmax_cross_entropy,
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients_match_finite_differences(name):
    worst = 0.0
    for seed in SEEDS:
        params, f = PRIMITIVE_CASES[name](np.random.default_rng(seed))
        worst = max(worst, finite_difference_check(f, params, h=1e-4))
    assert worst <= 1e-4, f"{name}: max relative error {worst}"


def test_linear_gradient_error_below_1e6():
    worst = 0.0
    for seed in SEEDS:
        params, f = _case_linear(np.random.default_rng(seed))
        worst = max(worst, finite_difference_check(f, params, h=1e-4))
    assert worst <= 1e-6


def test_unbroadcast_shapes():
    a = Tensor(np.ones((2, 1, 3)), requires_grad=True)
    b = Tensor(np.ones((4, 3)), requires_grad=True)
    out = nn.tsum(nn.add(a, b))
    out.backward()
    assert a.grad.shape == (2, 1, 3)
    assert b.grad.shape == (4, 3)
    assert np.all(a.grad == 4 * 3 / 3)  # 4 broadcast copies along the middle axis
    assert np.all(b.grad == 2)


def test_op_sums_a_rule_gradient_to_its_parent_shape():
    # a rule states its gradient in the output's shape; the node sums it
    # down to the broadcast parent's
    row = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
    y = nn._op(np.broadcast_to(row.data, (4, 3)).copy(), (row,), (lambda g: g,))
    weights = np.arange(12.0).reshape(4, 3)
    nn.tsum(nn.mul(y, Tensor(weights))).backward()
    assert row.grad.shape == (1, 3)
    assert np.array_equal(row.grad, weights.sum(axis=0, keepdims=True))


def _tmean_by_counted_axes(a, axis):
    """The mean as a sum times 1 / count, the count multiplied out axis by axis."""
    if axis is None:
        count = a.data.size
    else:
        count = 1
        for ax in (axis,) if isinstance(axis, int) else axis:
            count *= a.shape[ax]
    return nn.mul(nn.tsum(a, axis=axis), 1.0 / count)


@pytest.mark.parametrize(
    "shape, axis",
    [((2, 3, 4), None), ((2, 3, 4), 1), ((2, 3, 4), -1), ((2, 3, 4), (0, 2)), ((0, 2, 3, 5), (1, 2))],
)
def test_tmean_matches_the_counted_mean_bit_for_bit(shape, axis):
    rng = np.random.default_rng(4)
    data = rng.standard_normal(shape).astype(np.float32)
    weights = rng.standard_normal(data.sum(axis=axis).shape).astype(np.float32)
    results = []
    for mean in (nn.tmean, _tmean_by_counted_axes):
        x = Tensor(data.copy(), requires_grad=True)
        y = mean(x, axis)
        nn.tsum(nn.mul(y, Tensor(weights))).backward()
        results.append((y.data, x.grad))
    for got, want in zip(*results):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    if shape[0] == 0:
        assert results[0][0].shape == (0, 5)


def _value_and_grads(build, arrays, weights):
    """build(*tensors)'s value, and each tensor's gradient of its weighted sum."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    y = build(*tensors)
    nn.tsum(nn.mul(y, Tensor(weights))).backward()
    return [y.data] + [t.grad for t in tensors]


def _pad_batch(rng, dtype):
    """Token ids [4, 1, 9] over 11 rows, pad (0) at each row's tail and
    everywhere in row 2, and their [4, 1, 9, 6] embedded activations."""
    idx = rng.integers(1, 11, (4, 1, 9))
    for row, length in enumerate((9, 5, 0, 1)):
        idx[row, :, length:] = 0
    return idx, rng.standard_normal((4, 1, 9, 6)).astype(dtype)


def _counted_masked_mean(x, mask):
    """The masked mean as encode_text built it from general ops."""
    counts = np.maximum(mask.sum(axis=(1, 2)), 1.0).astype(x.dtype)
    return nn.mul(nn.tsum(nn.mul(x, Tensor(mask)), axis=(1, 2)), Tensor(1.0 / counts))


# Each reshaped op, built with the data as the model passes it, against the
# composition of general ops it stands for: (fused, composed, input arrays)
def _fused_cases(rng, dtype):
    idx, x = _pad_batch(rng, dtype)
    w, pos = rng.standard_normal((11, 6)).astype(dtype), rng.standard_normal((9, 6)).astype(dtype)
    pad = idx[..., None] != 0
    image = rng.standard_normal((3, 4, 5, 6)).astype(dtype)
    return {
        "embedding+positions": (
            lambda w, p: nn.embedding(w, idx, p),
            lambda w, p: nn.add(nn.embedding(w, idx), p),
            (w, pos),
        ),
        "masked mean_pool": (
            lambda x: nn.mean_pool(x, pad),
            lambda x: _counted_masked_mean(x, pad.astype(dtype)),
            (x,),
        ),
        "mean_pool": (lambda a: nn.mean_pool(a), lambda a: nn.tmean(a, axis=(1, 2)), (image,)),
    }


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", ["embedding+positions", "masked mean_pool", "mean_pool"])
def test_fused_op_matches_its_composition_bit_for_bit(op, dtype):
    rng = np.random.default_rng(13)
    fused, composed, arrays = _fused_cases(rng, dtype)[op]
    weights = rng.standard_normal(fused(*[Tensor(a) for a in arrays]).shape).astype(dtype)
    got = _value_and_grads(fused, arrays, weights)
    want = _value_and_grads(composed, arrays, weights)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    if op == "masked mean_pool":
        # the all-pad row pools to zero and passes no gradient back
        assert not got[0][2].any() and not got[1][2].any()


def test_mean_pool_rejects_a_mask_of_another_shape():
    with pytest.raises(ShapeError, match="mask shape"):
        nn.mean_pool(np.zeros((2, 1, 5, 3)), np.ones((2, 5)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv2d_gradients_are_the_same_with_a_branch_trace_open(dtype):
    rng = np.random.default_rng(14)
    arrays = [rng.standard_normal(s).astype(dtype) for s in ((2, 7, 6, 3), (4, 3, 3, 3), (4,))]
    weights = rng.standard_normal((2, 4, 3, 4)).astype(dtype)
    conv = lambda x, k, b: nn.conv2d(x, k, b, stride=2)
    closed = _value_and_grads(conv, arrays, weights)
    with branch_trace() as trace:
        opened = _value_and_grads(conv, arrays, weights)
    assert trace == [np.packbits(opened[0].reshape(-1) > 0).tobytes()]
    for o, c in zip(opened, closed):
        assert o.tobytes() == c.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_clamp_gradients_are_the_same_with_a_branch_trace_open(dtype):
    rng = np.random.default_rng(15)
    arrays = [rng.standard_normal((3, 5)).astype(dtype)]
    weights = rng.standard_normal((3, 5)).astype(dtype)
    clamp = lambda a: nn.clamp(a, -0.5, 0.5)
    closed = _value_and_grads(clamp, arrays, weights)
    with branch_trace() as trace:
        opened = _value_and_grads(clamp, arrays, weights)
    in_range = (arrays[0] >= -0.5) & (arrays[0] <= 0.5)
    assert in_range.any() and not in_range.all()
    assert trace == [np.packbits(in_range.reshape(-1)).tobytes()]
    for o, c in zip(opened, closed):
        assert o.tobytes() == c.tobytes()


def test_branch_trace_restores_the_ops_it_wraps_also_when_the_block_raises():
    conv2d, clamp = nn.conv2d, nn.clamp
    with branch_trace():
        assert nn.conv2d is not conv2d and nn.clamp is not clamp
    assert nn.conv2d is conv2d and nn.clamp is clamp
    with pytest.raises(FloatingPointError), branch_trace():
        raise FloatingPointError("loss is not finite")
    assert nn.conv2d is conv2d and nn.clamp is clamp


OPERAND_SHAPES = {
    "add": ((3, 4), (4,)),
    "mul": ((3, 4), (3, 1)),
    "div": ((3, 4), (3, 4)),
    "matmul": ((3, 4), (4, 2)),
    "conv2d": ((2, 5, 5, 3), (4, 3, 3, 3), (4,)),
}


@pytest.mark.parametrize(
    "op, constant", [(op, i) for op, shapes in OPERAND_SHAPES.items() for i in range(len(shapes))]
)
def test_a_constant_operand_gets_no_gradient(op, constant):
    # the constant's gradient rule never runs, and the other operands get the
    # same bits as when every operand needs a gradient
    rng = np.random.default_rng(8)
    data = [away_from_zero(rng.standard_normal(shape)) for shape in OPERAND_SHAPES[op]]

    def gradients(skip):
        operands = [Tensor(d.copy(), requires_grad=i != skip) for i, d in enumerate(data)]
        weighted_sum(getattr(nn, op)(*operands), np.random.default_rng(0)).backward()
        return [t.grad for t in operands]

    every, partial = gradients(None), gradients(constant)
    assert partial[constant] is None
    for i, (a, b) in enumerate(zip(every, partial)):
        if i != constant:
            assert np.array_equal(a, b)


# --- gradient buffers ---------------------------------------------------------


def graph_tensors(root: Tensor):
    """Every tensor reachable from root, depth first along _parents."""
    seen, order, stack = set(), [], [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            order.append(t)
            stack.extend(reversed(t._parents))
    return order


def assert_no_shared_gradients(tensors):
    grads = [t.grad for t in tensors if t.grad is not None]
    for i, a in enumerate(grads):
        for b in grads[i + 1 :]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize(
    "build, scale",
    [
        (lambda x: nn.add(x, x), lambda x: 2.0),
        (lambda x: nn.mul(x, x), lambda x: 2.0 * x),
        (lambda x: nn.add(x, nn.transpose(nn.transpose(x))), lambda x: 2.0),
    ],
    ids=["add(x, x)", "mul(x, x)", "add(x, x.T.T)"],
)
def test_an_input_read_twice_gets_its_own_summed_gradient(build, scale):
    # backward hands fresh gradients on uncopied; a pass-through one must
    # still be copied, or the second arrival would add into the first's
    # buffer. x is a column, whose transpose is C-ordered as well, so only
    # that copy keeps a transposed gradient apart from its source.
    rng = np.random.default_rng(6)
    data = rng.standard_normal((4, 1)).astype(np.float32)
    weights = rng.standard_normal((4, 1)).astype(np.float32)
    x = Tensor(data.copy(), requires_grad=True)
    loss = nn.tsum(nn.mul(build(x), Tensor(weights)))
    loss.backward()
    assert_no_shared_gradients(graph_tensors(loss))
    # float32 products of float32 operands round the exact float64 ones
    expected = (weights.astype(np.float64) * scale(data.astype(np.float64))).astype(np.float32)
    assert x.grad.dtype == np.float32
    assert np.array_equal(x.grad, expected)


def test_a_pass_through_rule_gets_its_own_gradient_buffer():
    # an op does not say that its rule hands the output gradient on as it
    # is: backward copies a first arrival that shares memory with it
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    y = nn._op(x.data, (x,), (lambda g: g,))
    nn.tsum(nn.mul(y, Tensor(np.full((2, 3), 3.0)))).backward()
    assert not np.shares_memory(x.grad, y.grad)
    assert np.array_equal(x.grad, np.full((2, 3), 3.0))


def test_train_step_gradients_have_their_own_buffers(monkeypatch):
    from oavl.captions import build_vocabulary
    from oavl.model import DualEncoder, ModelConfig
    from oavl.training import TrainConfig, train_step

    roots = []
    sweep = Tensor.backward

    def recording_sweep(self):
        roots.append(self)
        sweep(self)

    monkeypatch.setattr(Tensor, "backward", recording_sweep)
    cfg = ModelConfig(vocab_size=len(build_vocabulary()))
    rng = np.random.default_rng(8)
    images = rng.random((32, cfg.height, cfg.width)).astype(np.float32)
    pos, neg = rng.integers(1, cfg.vocab_size, (2, 32, cfg.max_len))
    pos[:, 40:] = neg[:, 55:] = cfg.pad_index
    graphs = []
    for dtype in (np.float32, np.float64):
        train_step(DualEncoder(cfg, seed=8, dtype=dtype), images, pos, neg, TrainConfig())
        graphs.append(graph_tensors(roots[-1]))
    single, double = graphs
    assert_no_shared_gradients(single)
    assert len(single) == len(double)
    for t32, t64 in zip(single, double):
        assert (t32.grad is None) == (t64.grad is None)
        if t32.grad is not None:
            assert t32.grad.dtype == np.float32 and t32.grad.shape == t64.grad.shape
            error = np.linalg.norm(t32.grad - t64.grad)
            assert error <= 1e-3 * np.linalg.norm(t64.grad) + 1e-7


def small_network(seed=12):
    """(loss, leaves): conv with its relu, pooling, a linear head, l2_normalize and
    softmax cross-entropy, every op a parameter gradient passes through."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((2, 5, 5, 3)))
    kernel = Parameter(rng.standard_normal((4, 3, 3, 3)))
    bias = Parameter(rng.standard_normal(4))
    weight = Parameter(rng.standard_normal((4, 3)))
    hidden = nn.mean_pool(nn.conv2d(x, kernel, bias, stride=2))
    logits = nn.mul(nn.l2_normalize(nn.matmul(hidden, weight)), nn.exp(Tensor(1.5)))
    return nn.softmax_cross_entropy(logits, np.array([0, 2])), (kernel, bias, weight)


def test_a_sweep_frees_every_closure_and_keeps_every_gradient():
    loss, _ = small_network()
    ops = [t for t in graph_tensors(loss) if t._parents and t.requires_grad]
    closures = [weakref.ref(t._backward) for t in ops]
    # the gradient each node held when its closure ran, before anything freed
    seen = {}

    def recording(t, run):
        def backward(g):
            seen[id(t)] = g.copy()
            run(g)

        return backward

    for t in ops:
        t._backward = recording(t, t._backward)
    loss.backward()
    assert len(seen) == len(ops) > 5
    for t, closure in zip(ops, closures):
        assert t._backward is None
        assert closure() is None  # and with it the arrays it saved
        assert np.array_equal(t.grad, seen[id(t)])


def test_a_second_sweep_raises_and_leaves_every_gradient_as_it_was():
    loss, leaves = small_network()
    loss.backward()
    grads = [p.grad for p in leaves]
    copies = [g.copy() for g in grads]
    with pytest.raises(RuntimeError, match="earlier sweep"):
        loss.backward()
    # a new root over part of a swept graph cannot finish its sweep either
    hidden = loss._parents[0]
    with pytest.raises(RuntimeError, match="earlier sweep"):
        nn.tsum(nn.mul(hidden, 2.0)).backward()
    for p, g, copy in zip(leaves, grads, copies):
        assert p.grad is g and np.array_equal(g, copy)


# --- differential tests against the previous formulas ---------------------------


def _conv2d_oracle(x, k, b, stride, g):
    """Output, kernel, bias and input gradients of conv2d by im2col in the
    kernel's own (C, kh, kw) order, scattered back slice by slice: relu of
    the linear output, and the gradients of g masked where it is not > 0."""
    n, h, w, c = x.shape
    c_out, _, kh, kw = k.shape
    ph, pw = kh // 2, kw // 2
    h_out = (h + 2 * ph - kh) // stride + 1
    w_out = (w + 2 * pw - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    cols = np.ascontiguousarray(windows[:, :h_out, :w_out]).reshape(-1, c * kh * kw)
    k_flat = k.reshape(c_out, -1)
    y = (cols @ k_flat.T).reshape(n, h_out, w_out, c_out) + b
    g = g * (y > 0)
    g_flat = g.reshape(-1, c_out)
    d_kernel = (g_flat.T @ cols).reshape(k.shape)
    d_cols = (g_flat @ k_flat).reshape(n, h_out, w_out, c, kh, kw)
    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += d_cols[
                ..., i, j
            ]
    return np.maximum(y, 0), d_kernel, g.sum(axis=(0, 1, 2)), dxp[:, ph : ph + h, pw : pw + w]


# The default ModelConfig's four conv layers at batch 2: image.conv1-3 on a
# 64x64 image with channels (16, 32, 64), and the text conv over L=96, D=64.
MODEL_CONV_LAYERS = {
    "image.conv1": ((2, 64, 64, 1), (16, 1, 3, 3), 2),
    "image.conv2": ((2, 32, 32, 16), (32, 16, 3, 3), 2),
    "image.conv3": ((2, 16, 16, 32), (64, 32, 3, 3), 2),
    "text.conv": ((2, 1, 96, 64), (64, 64, 1, 3), 1),
}


@pytest.mark.parametrize("layer", sorted(MODEL_CONV_LAYERS))
def test_conv2d_matches_channel_major_im2col_oracle(layer):
    x_shape, k_shape, stride = MODEL_CONV_LAYERS[layer]
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
    k = Tensor(rng.standard_normal(k_shape), requires_grad=True)
    b = Tensor(rng.standard_normal(k_shape[0]), requires_grad=True)
    y = nn.conv2d(x, k, b, stride=stride)
    g = rng.standard_normal(y.shape)
    nn.tsum(nn.mul(y, Tensor(g))).backward()
    y_ref, d_kernel, d_bias, d_input = _conv2d_oracle(x.data, k.data, b.data, stride, g)
    assert y.shape == y_ref.shape
    assert np.allclose(y.data, y_ref, rtol=0, atol=1e-12)
    assert np.allclose(k.grad, d_kernel, rtol=0, atol=1e-12)
    assert k.grad.flags["C_CONTIGUOUS"]  # as Adam's moments are
    assert np.allclose(b.grad, d_bias, rtol=0, atol=1e-12)
    assert np.allclose(x.grad, d_input, rtol=0, atol=1e-12)


@pytest.mark.parametrize("held", [False, True], ids=["fresh", "accumulating"])
def test_embedding_gradient_matches_add_at(held):
    rng = np.random.default_rng(5)
    w = Tensor(rng.standard_normal((11, 6)), requires_grad=True)
    # rows 0-7 only, each many times; rows 8-10 are never read
    idx = rng.integers(0, 8, (4, 1, 9))
    prior = rng.standard_normal(w.shape) if held else np.zeros(w.shape)
    if held:
        w.grad = prior.copy()
    g = rng.standard_normal((4, 1, 9, 6))
    nn.tsum(nn.mul(nn.embedding(w, idx), Tensor(g))).backward()
    expected = prior.copy()
    np.add.at(expected, idx.reshape(-1), g.reshape(-1, 6))
    assert np.allclose(w.grad, expected, rtol=0, atol=1e-12)
    assert np.array_equal(w.grad[8:], prior[8:])


def _conv2d_window_reference(x, k, b, stride, g):
    """conv2d's output and kernel, bias and input gradients from np.pad and
    sliding_window_view, with the same (kh, kw, C) columns and GEMMs: the
    bias added as a separate node added it, relu applied as a separate node
    applied it, the gradients taken from g masked as that node masked it, the
    bias gradient reduced as _unbroadcast reduced it, and each tap added into
    a zeroed padded input gradient that is cropped at the end."""
    n, h, w, c = x.shape
    c_out, _, kh, kw = k.shape
    ph, pw = kh // 2, kw // 2
    h_out = (h + 2 * ph - kh) // stride + 1
    w_out = (w + 2 * pw - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    cols = np.ascontiguousarray(
        windows[:, :h_out, :w_out].transpose(0, 1, 2, 4, 5, 3)
    ).reshape(-1, kh * kw * c)
    k_flat = k.transpose(0, 2, 3, 1).reshape(c_out, -1)
    y = (cols @ k_flat.T).reshape(n, h_out, w_out, c_out) + b
    g = g * (y > 0)
    g_flat = g.reshape(-1, c_out)
    d_kernel = (g_flat.T @ cols).reshape(c_out, kh, kw, c).transpose(0, 3, 1, 2)
    d_bias = g.sum(axis=0).sum(axis=0).sum(axis=0)
    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += (
                g_flat @ k[:, :, i, j]
            ).reshape(n, h_out, w_out, c)
    return np.maximum(y, 0), d_kernel, d_bias, dxp[:, ph : ph + h, pw : pw + w]


def _assert_conv2d_equals_window_reference(x_shape, k_shape, stride, dtype, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(x_shape).astype(dtype), requires_grad=True)
    k = Tensor(rng.standard_normal(k_shape).astype(dtype), requires_grad=True)
    b = Tensor(rng.standard_normal(k_shape[0]).astype(dtype), requires_grad=True)
    y = nn.conv2d(x, k, b, stride=stride)
    g = rng.standard_normal(y.shape).astype(dtype)
    nn.tsum(nn.mul(y, Tensor(g))).backward()
    reference = _conv2d_window_reference(x.data, k.data, b.data, stride, g)
    for got, want in zip((y.data, k.grad, b.grad, x.grad), reference):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 3),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    c=st.integers(1, 4),
    c_out=st.integers(1, 4),
    kh=st.integers(1, 4),
    kw=st.integers(1, 4),
    stride=st.integers(1, 3),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv2d_equals_window_view_reference_bit_for_bit(
    n, h, w, c, c_out, kh, kw, stride, dtype, seed
):
    # conv2d reads its input through a window view over a padded buffer, and
    # adds its input gradient into stride-phase planes of that buffer; the
    # reference adds into the padded buffer itself, and this pins every value
    _assert_conv2d_equals_window_reference((n, h, w, c), (c_out, c, kh, kw), stride, dtype, seed)


# Two shapes whose edge taps read padding: a 5x3 kernel at stride 3 on 7x8,
# where the first and last output rows' outer taps fall off the input, and
# the same kernel on a 2-row input, where three of its five tap rows read
# nothing but padding at every output.
PADDING_TAP_LAYERS = {
    "5x3-stride3": ((2, 7, 8, 3), (4, 3, 5, 3), 3),
    "5x3-two-rows": ((2, 2, 5, 3), (4, 3, 5, 3), 3),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layer", sorted(MODEL_CONV_LAYERS) + sorted(PADDING_TAP_LAYERS))
def test_conv2d_unpadded_input_gradient_equals_padded_buffer_bit_for_bit(layer, dtype):
    x_shape, k_shape, stride = {**MODEL_CONV_LAYERS, **PADDING_TAP_LAYERS}[layer]
    _assert_conv2d_equals_window_reference(x_shape, k_shape, stride, dtype, seed=12)
