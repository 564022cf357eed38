import math

import numpy as np
import pytest

from oavl import nn
from oavl.nn import (
    MissingGradientError,
    Parameter,
    ShapeError,
    Tensor,
    adam_step,
    finite_difference_check,
)

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
        y = nn.conv2d(Tensor(x), Tensor(kernel), stride=1)
        assert np.allclose(y.data[..., 0], x.sum(axis=-1))

    def test_conv_zero_kernel(self):
        y = nn.conv2d(np.ones((1, 4, 4, 2)), np.zeros((3, 2, 3, 3)), stride=1)
        assert not y.data.any()
        assert y.shape == (1, 4, 4, 3)

    def test_conv_output_shape_formula(self):
        y = nn.conv2d(np.zeros((1, 11, 9, 1)), np.zeros((2, 1, 3, 3)), stride=2)
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
        n, h, w, c = x_shape
        c_out, _, kh, kw = k_shape
        # one output per stride-th input position, the kernel centred on it
        rows, cols = range(0, h, stride), range(0, w, stride)
        expected = np.zeros((n, len(rows), len(cols), c_out))
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
        y = nn.conv2d(x, k, stride=stride)
        assert y.shape == expected.shape
        assert np.allclose(y.data, expected, atol=1e-12)

    def test_conv_channel_mismatch(self):
        with pytest.raises(ShapeError):
            nn.conv2d(np.zeros((1, 4, 4, 2)), np.zeros((1, 3, 3, 3)))

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
        x = np.random.default_rng(1).standard_normal((4, 5))
        once = nn.relu(Tensor(x)).data
        twice = nn.relu(nn.relu(Tensor(x))).data
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
    a = Tensor(away_from_zero(rng.standard_normal((3, 4))), requires_grad=True)
    return [a], lambda: weighted_sum(nn.relu(a), np.random.default_rng(0))


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


def _case_conv2d(rng):
    x = Tensor(rng.standard_normal((1, 5, 5, 2)), requires_grad=True)
    k = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
    return [x, k], lambda: weighted_sum(nn.conv2d(x, k, stride=1), np.random.default_rng(0))


def _case_conv2d_strided(rng):
    # the text encoder's 1x3 kernel: padding along the width only
    x = Tensor(rng.standard_normal((2, 6, 7, 3)), requires_grad=True)
    k = Tensor(rng.standard_normal((4, 3, 1, 3)), requires_grad=True)
    return [x, k], lambda: weighted_sum(nn.conv2d(x, k, stride=2), np.random.default_rng(0))


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
    "embedding": _case_embedding,
    "conv2d": _case_conv2d,
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
