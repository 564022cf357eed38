"""Dense-tensor reverse-mode autodiff with exactly the primitives the model needs.

Tensors wrap numpy arrays (float32 for training, float64 for gradient
checking); each op builds the graph with a closure that routes the output
gradient back to its parents. A Parameter is a leaf Tensor that also holds
its Adam state, so ops take it directly. Spatial data is channels-last
[N, H, W, C]: images as they are, captions as one-row images [N, 1, L, D],
so one conv2d serves both encoders. A finite-difference checker validates
every backward rule.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    pass


# Optional trace of data-dependent branches (relu/clamp masks), used by the
# gradient checker to detect kink crossings between probe evaluations.
_branch_trace: Optional[List[bytes]] = None


class branch_trace:
    def __enter__(self) -> List[bytes]:
        global _branch_trace
        self._prev = _branch_trace
        _branch_trace = []
        return _branch_trace

    def __exit__(self, *exc) -> None:
        global _branch_trace
        _branch_trace = self._prev


def _record_branch(mask: np.ndarray) -> None:
    if _branch_trace is not None:
        _branch_trace.append(np.packbits(mask.reshape(-1)).tobytes())


class Tensor:
    """One node of the computation graph.

    Leaves default to requires_grad=False (constants, inputs); Parameters
    flip it on, and op outputs inherit it from their parents, so the
    backward sweep never touches branches no parameter feeds.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        parents: Tuple["Tensor", ...] = (),
        backward=None,
        requires_grad: Optional[bool] = None,
    ):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad: Optional[np.ndarray] = None
        if requires_grad is None:
            requires_grad = any(p.requires_grad for p in parents)
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output."""
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar output")
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited or not node.requires_grad:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


TensorLike = Union[Tensor, np.ndarray, float, int]


def as_tensor(value: TensorLike, dtype=None) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _pair_tensors(a: TensorLike, b: TensorLike) -> Tuple[Tensor, Tensor]:
    """Wrap operands; bare scalars adopt the tensor operand's dtype."""
    if isinstance(a, Tensor):
        return a, (b if isinstance(b, Tensor) else as_tensor(b, dtype=a.data.dtype))
    if isinstance(b, Tensor):
        return as_tensor(a, dtype=b.data.dtype), b
    return as_tensor(a), as_tensor(b)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # own a copy: g may alias an array another parent also receives
        t.grad = np.array(g, dtype=t.data.dtype, copy=True)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the parent's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a: TensorLike, b: TensorLike) -> Tensor:
    at, bt = _pair_tensors(a, b)
    out = Tensor(at.data + bt.data, parents=(at, bt))

    def backward(g):
        _accumulate(at, _unbroadcast(g, at.shape))
        _accumulate(bt, _unbroadcast(g, bt.shape))

    out._backward = backward
    return out


def mul(a: TensorLike, b: TensorLike) -> Tensor:
    at, bt = _pair_tensors(a, b)
    out = Tensor(at.data * bt.data, parents=(at, bt))

    def backward(g):
        _accumulate(at, _unbroadcast(g * bt.data, at.shape))
        _accumulate(bt, _unbroadcast(g * at.data, bt.shape))

    out._backward = backward
    return out


def div(a: TensorLike, b: TensorLike) -> Tensor:
    at, bt = _pair_tensors(a, b)
    out = Tensor(at.data / bt.data, parents=(at, bt))

    def backward(g):
        _accumulate(at, _unbroadcast(g / bt.data, at.shape))
        _accumulate(bt, _unbroadcast(-g * at.data / (bt.data * bt.data), bt.shape))

    out._backward = backward
    return out


def matmul(a: TensorLike, b: TensorLike) -> Tensor:
    at, bt = as_tensor(a), as_tensor(b)
    if at.ndim != 2 or bt.ndim != 2:
        raise ShapeError("matmul expects 2-D operands")
    if at.shape[1] != bt.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {at.shape} @ {bt.shape}")
    out = Tensor(at.data @ bt.data, parents=(at, bt))

    def backward(g):
        _accumulate(at, g @ bt.data.T)
        _accumulate(bt, at.data.T @ g)

    out._backward = backward
    return out


def transpose(a: TensorLike) -> Tensor:
    """Reverse the axes: the matrix transpose of a 2-D tensor."""
    at = as_tensor(a)
    out = Tensor(at.data.T, parents=(at,))

    def backward(g):
        _accumulate(at, g.T)

    out._backward = backward
    return out


def relu(a: TensorLike) -> Tensor:
    at = as_tensor(a)
    mask = at.data > 0
    _record_branch(mask)
    out = Tensor(np.maximum(at.data, 0), parents=(at,))

    def backward(g):
        _accumulate(at, g * mask)

    out._backward = backward
    return out


def exp(a: TensorLike) -> Tensor:
    at = as_tensor(a)
    value = np.exp(at.data)
    out = Tensor(value, parents=(at,))

    def backward(g):
        _accumulate(at, g * value)

    out._backward = backward
    return out


def clamp(a: TensorLike, lo: float, hi: float) -> Tensor:
    at = as_tensor(a)
    mask = (at.data >= lo) & (at.data <= hi)
    _record_branch(mask)
    out = Tensor(np.clip(at.data, lo, hi), parents=(at,))

    def backward(g):
        _accumulate(at, np.where(mask, g, 0.0).astype(at.dtype, copy=False))

    out._backward = backward
    return out


def tsum(a: TensorLike, axis=None, keepdims: bool = False) -> Tensor:
    at = as_tensor(a)
    out = Tensor(at.data.sum(axis=axis, keepdims=keepdims), parents=(at,))

    def backward(g):
        if axis is None:
            _accumulate(at, np.broadcast_to(g, at.shape).astype(at.dtype, copy=False))
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(at, np.broadcast_to(g, at.shape).astype(at.dtype, copy=False))

    out._backward = backward
    return out


def tmean(a: TensorLike, axis=None, keepdims: bool = False) -> Tensor:
    at = as_tensor(a)
    if axis is None:
        count = at.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for ax in axes:
            count *= at.shape[ax]
    out = tsum(at, axis=axis, keepdims=keepdims)
    return mul(out, 1.0 / count)


def mean_pool(a: TensorLike) -> Tensor:
    """Global spatial mean of channels-last [N, H, W, C] to [N, C]."""
    at = as_tensor(a)
    if at.ndim != 4:
        raise ShapeError("mean_pool expects [N, H, W, C]")
    return tmean(at, axis=(1, 2))


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= weight.shape[0]):
        raise IndexError("embedding index out of range")
    out = Tensor(weight.data[idx], parents=(weight,))

    def backward(g):
        if weight.grad is None:
            weight.grad = np.zeros_like(weight.data)
        np.add.at(weight.grad, idx.reshape(-1), g.reshape(-1, weight.shape[1]))

    out._backward = backward
    return out


def conv2d(x: TensorLike, kernel: TensorLike, stride: int = 1) -> Tensor:
    """Cross-correlation of channels-last [N, H, W, C] with [C_out, C_in, kh, kw].

    Zero padding of (kh // 2, kw // 2) on each side centres odd kernels, so a
    stride-1 layer keeps H and W. The output is channels-last too.
    """
    xt, kt = as_tensor(x), as_tensor(kernel)
    if xt.ndim != 4 or kt.ndim != 4:
        raise ShapeError("conv2d expects 4-D input and kernel")
    n, h, w, c = xt.shape
    c_out, c_in, kh, kw = kt.shape
    if c != c_in:
        raise ShapeError(f"conv2d channel mismatch: input {c}, kernel {c_in}")
    ph, pw = kh // 2, kw // 2
    h_out = (h + 2 * ph - kh) // stride + 1
    w_out = (w + 2 * pw - kw) // stride + 1

    xp = np.pad(xt.data, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    # windows are [N, h_out, w_out, C, kh, kw]: im2col rows come out in the
    # kernel's (C, kh, kw) order, so neither GEMM needs a transpose
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    cols = np.ascontiguousarray(windows[:, :h_out, :w_out]).reshape(
        n * h_out * w_out, c * kh * kw
    )
    k_flat = kt.data.reshape(c_out, c * kh * kw)
    out = Tensor((cols @ k_flat.T).reshape(n, h_out, w_out, c_out), parents=(xt, kt))

    def backward(g):
        g_flat = g.reshape(n * h_out * w_out, c_out)
        if kt.requires_grad:
            _accumulate(kt, (g_flat.T @ cols).reshape(kt.shape))
        if xt.requires_grad:
            d_cols = (g_flat @ k_flat).reshape(n, h_out, w_out, c, kh, kw)
            dxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    dxp[
                        :, i : i + stride * h_out : stride, j : j + stride * w_out : stride
                    ] += d_cols[..., i, j]
            _accumulate(xt, dxp[:, ph : ph + h, pw : pw + w])

    out._backward = backward
    return out


def linear(x: TensorLike, weight: TensorLike, bias: TensorLike) -> Tensor:
    """y = x @ W + b for x [N, d_in], W [d_in, d_out], b [d_out]."""
    xt, wt, bt = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if bt.ndim != 1 or bt.shape[0] != wt.shape[1]:
        raise ShapeError(f"bias shape {bt.shape} does not match W {wt.shape}")
    return add(matmul(xt, wt), bt)


def l2_normalize(v: TensorLike, eps: float = 1e-8) -> Tensor:
    """v / (||v||_2 + eps) along the last axis; zero rows stay zero."""
    vt = as_tensor(v)
    norm = np.sqrt((vt.data * vt.data).sum(axis=-1, keepdims=True))
    denom = norm + eps
    value = vt.data / denom
    out = Tensor(value.astype(vt.dtype, copy=False), parents=(vt,))

    def backward(g):
        scale = np.maximum(norm, np.finfo(vt.data.dtype).tiny) * denom * denom
        inner = (g * vt.data).sum(axis=-1, keepdims=True)
        # an all-zero row takes the limit g / denom; its scale underflows to 0
        _accumulate(vt, g / denom - vt.data * inner / np.where(norm > 0, scale, 1.0))

    out._backward = backward
    return out


def softmax_cross_entropy(logits: TensorLike, targets: np.ndarray) -> Tensor:
    """Mean over rows of -log softmax(logits)[target].

    The log-sum-exp path isolates the row maximum and runs through log1p so
    saturated rows keep full relative precision.
    """
    lt = as_tensor(logits)
    if lt.ndim != 2:
        raise ShapeError("softmax_cross_entropy expects [N, K] logits")
    n, k = lt.shape
    tg = np.asarray(targets)
    if tg.shape != (n,):
        raise ShapeError(f"targets must have shape ({n},)")
    if tg.size and (tg.min() < 0 or tg.max() >= k):
        raise IndexError("target index out of range")

    rows = np.arange(n)
    max_idx = np.argmax(lt.data, axis=1)
    shifted = lt.data - lt.data[rows, max_idx][:, None]
    exp_shifted = np.exp(shifted)
    rest = exp_shifted.copy()
    rest[rows, max_idx] = 0.0
    log_z = np.log1p(rest.sum(axis=1))  # log of sum(exp(shifted)), max term split off
    losses = log_z - shifted[rows, tg]
    out = Tensor(np.asarray(losses.mean(), dtype=lt.dtype), parents=(lt,))

    softmax = exp_shifted / exp_shifted.sum(axis=1, keepdims=True)

    def backward(g):
        grad = softmax.copy()
        grad[rows, tg] -= 1.0
        _accumulate(lt, (grad * (g / n)).astype(lt.dtype, copy=False))

    out._backward = backward
    return out


# --- parameters and the optimizer -------------------------------------------


class Parameter(Tensor):
    """A trainable leaf tensor with its Adam state (m, v, step count t)."""

    __slots__ = ("m", "v", "t")

    def __init__(self, data: np.ndarray):
        super().__init__(data, requires_grad=True)
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self.t = 0


class MissingGradientError(RuntimeError):
    pass


def adam_step(
    p: Parameter,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 1e-3,
) -> None:
    """Decoupled weight decay (p -= lr*wd*p), then bias-corrected Adam."""
    g = p.grad
    if g is None:
        raise MissingGradientError("adam_step called before backward populated the gradient")
    if weight_decay:
        p.data -= lr * weight_decay * p.data
    p.t += 1
    p.m = beta1 * p.m + (1.0 - beta1) * g
    p.v = beta2 * p.v + (1.0 - beta2) * (g * g)
    m_hat = p.m / (1.0 - beta1**p.t)
    v_hat = p.v / (1.0 - beta2**p.t)
    p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


# --- gradient checking -------------------------------------------------------


def finite_difference_check(
    f: Callable[[], Tensor],
    params: Iterable[Tensor],
    h: float = 1e-4,
    max_coords: Optional[int] = None,
) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    ``f`` rebuilds the scalar loss from the current parameter payloads. The
    relative error denominator is max(|analytic|, |numeric|, 1e-8). Probes
    whose +-h interval crosses a relu/clamp branch flip retry with a smaller
    step and are skipped if the interval cannot be made smooth (the central
    difference does not estimate the derivative across a kink). When
    ``max_coords`` is set, the coordinates with the largest gradient
    magnitude are checked for each parameter.
    """
    params = list(params)
    for p in params:
        p.requires_grad = True
        p.grad = None
    with branch_trace() as base_trace:
        loss = f()
    loss.backward()
    if not np.isfinite(loss.data):
        raise FloatingPointError("loss is not finite")
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    def eval_at(p: Tensor, flat_index: int, delta: float) -> Tuple[float, List[bytes]]:
        original = p.data.reshape(-1)[flat_index]
        p.data.reshape(-1)[flat_index] = original + delta
        try:
            with branch_trace() as trace:
                value = float(f().data)
        finally:
            p.data.reshape(-1)[flat_index] = original
        return value, trace

    max_rel = 0.0
    for p, grad in zip(params, analytic):
        flat_grad = grad.reshape(-1)
        if max_coords is None or flat_grad.size <= max_coords:
            coords = range(flat_grad.size)
        else:
            coords = np.argsort(-np.abs(flat_grad), kind="stable")[:max_coords]
        for idx in coords:
            step = h
            for _attempt in range(4):
                plus, trace_plus = eval_at(p, idx, step)
                minus, trace_minus = eval_at(p, idx, -step)
                if trace_plus == base_trace and trace_minus == base_trace:
                    break
                step /= 8.0
            else:
                continue  # kink could not be avoided; probe is meaningless there
            numeric = (plus - minus) / (2.0 * step)
            a = float(flat_grad[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            max_rel = max(max_rel, rel)
    return max_rel
