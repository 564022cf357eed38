"""Dense-tensor reverse-mode autodiff with exactly the primitives the model needs.

Tensors wrap numpy arrays (float32 for training, float64 for gradient
checking). Each op computes its value and states one gradient rule per
parent, leaving any broadcast of that parent in place; ``_op`` builds
every graph node from them and sums each gradient to its parent's shape.
``_accumulate`` sets its dtype, and copies a parent's first gradient only
when it may share memory with the output gradient it came from, so no two
tensors share a buffer. A Parameter is a leaf Tensor that also holds
its Adam state, given or zero, so ops take it directly. Spatial data is
channels-last [N, H, W, C]: images as they are,
captions as one-row images [N, 1, L, D], so one conv2d, relu included,
serves both encoders; it reads its padded input through a window view and
adds its input gradient into stride-phase planes. A node keeps only arrays
its gradient rules read: conv2d reads relu's mask back from its output,
embedding adds a positions tensor into its gathered rows, and mean_pool
applies a pad mask and the count in one node. Adam and l2_normalize use
fixed constants, the Kingma-Ba defaults: beta1 = 0.9, beta2 = 0.999 and
eps = 1e-8.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, Union

import numpy as np


class ShapeError(ValueError):
    pass


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
        requires_grad: bool = False,
    ):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
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
        """Reverse-mode sweep from a scalar output.

        A graph is swept once. Each node drops its closure, and with it the
        arrays the closure saved, as soon as it has run; its .grad stays.
        A sweep that would pass a node an earlier sweep has run raises
        RuntimeError before any gradient is touched.
        """
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
        # every node with parents gets its closure from _op, until a sweep runs it
        if any(node._parents and node._backward is None for node in topo):
            raise RuntimeError("backward() through a graph an earlier sweep has run")
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node._backward = None


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


def _accumulate(t: Tensor, grad: np.ndarray, g: np.ndarray) -> None:
    """Add grad, computed from the output gradient g, into t.grad.

    The first arrival becomes t.grad in t's dtype and C order. It is copied
    when it may share memory with g (g itself, or a view of it that another
    parent may also receive), so no two tensors share a gradient buffer; a
    grad the rule has just computed is kept as it is when already C-ordered
    in t's dtype. C order keeps Adam's elementwise updates fast.
    """
    if t.grad is None:
        copy = True if np.may_share_memory(grad, g) else None
        t.grad = np.array(grad, dtype=t.data.dtype, copy=copy, order="C")
    else:
        t.grad += grad


def _op(
    value: np.ndarray,
    parents: Tuple[Tensor, ...],
    grads: Tuple[Callable[[np.ndarray], np.ndarray], ...],
) -> Tensor:
    """The one builder of graph nodes: ``value`` computed from ``parents``.

    ``grads[i]`` maps the output gradient to parent i's, with any broadcast
    of parent i left in place. Backward calls it only for parents that need
    a gradient, in parent order, and hands each result, summed to its
    parent's shape, to ``_accumulate``.
    """

    def backward(g):
        for parent, grad in zip(parents, grads):
            if parent.requires_grad:
                _accumulate(parent, _unbroadcast(grad(g), parent.shape), g)

    return Tensor(value, parents, backward)


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
    return _op(at.data + bt.data, (at, bt), (lambda g: g, lambda g: g))


def mul(a: TensorLike, b: TensorLike) -> Tensor:
    at, bt = _pair_tensors(a, b)
    return _op(at.data * bt.data, (at, bt), (lambda g: g * bt.data, lambda g: g * at.data))


def div(a: TensorLike, b: TensorLike) -> Tensor:
    at, bt = _pair_tensors(a, b)
    return _op(at.data / bt.data, (at, bt), (
        lambda g: g / bt.data,
        lambda g: -g * at.data / (bt.data * bt.data),
    ))


def matmul(a: TensorLike, b: TensorLike) -> Tensor:
    at, bt = as_tensor(a), as_tensor(b)
    if at.ndim != 2 or bt.ndim != 2:
        raise ShapeError("matmul expects 2-D operands")
    if at.shape[1] != bt.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {at.shape} @ {bt.shape}")
    return _op(at.data @ bt.data, (at, bt), (lambda g: g @ bt.data.T, lambda g: at.data.T @ g))


def transpose(a: TensorLike) -> Tensor:
    """Reverse the axes: the matrix transpose of a 2-D tensor."""
    at = as_tensor(a)
    return _op(at.data.T, (at,), (lambda g: g.T,))


def exp(a: TensorLike) -> Tensor:
    at = as_tensor(a)
    value = np.exp(at.data)
    return _op(value, (at,), (lambda g: g * value,))


def clamp(a: TensorLike, lo: float, hi: float) -> Tensor:
    at = as_tensor(a)
    mask = (at.data >= lo) & (at.data <= hi)
    value = np.clip(at.data, lo, hi)
    return _op(value, (at,), (lambda g: np.where(mask, g, 0.0),))


def tsum(a: TensorLike, axis=None) -> Tensor:
    at = as_tensor(a)

    def d_a(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, at.shape)

    return _op(at.data.sum(axis=axis), (at,), (d_a,))


def tmean(a: TensorLike, axis=None) -> Tensor:
    at = as_tensor(a)
    count = at.data.size if axis is None else np.prod(np.take(at.shape, axis))
    return mul(tsum(at, axis=axis), 1.0 / count)


def mean_pool(a: TensorLike, mask: Optional[np.ndarray] = None) -> Tensor:
    """Spatial mean of channels-last [N, H, W, C] to [N, C], in one node.

    With a 0/1 ``mask`` [N, H, W, 1], each row averages only the positions
    its mask keeps: the sum of a * mask times 1 / max(count, 1), so a row
    the mask drops entirely pools to zero. Without one it is
    ``tmean(a, axis=(1, 2))``, bit for bit. Neither form keeps a product.
    """
    at = as_tensor(a)
    if at.ndim != 4:
        raise ShapeError("mean_pool expects [N, H, W, C]")
    if mask is None:
        scale = np.asarray(1.0 / (at.shape[1] * at.shape[2]), dtype=at.dtype)
        total = at.data.sum(axis=(1, 2))
    else:
        mask = np.asarray(mask, dtype=at.dtype)
        if mask.shape != at.shape[:3] + (1,):
            raise ShapeError(f"mean_pool mask shape {mask.shape} does not match {at.shape}")
        scale = 1.0 / np.maximum(mask.sum(axis=(1, 2)), 1.0)
        total = (at.data * mask).sum(axis=(1, 2))

    def d_a(g):
        g = np.expand_dims(g * scale, (1, 2))
        return np.broadcast_to(g, at.shape) if mask is None else g * mask

    return _op(total * scale, (at,), (d_a,))


def embedding(weight: Tensor, indices: np.ndarray, positions: Optional[Tensor] = None) -> Tensor:
    """Rows of ``weight`` gathered at ``indices``, plus ``positions`` if given.

    ``positions`` must broadcast to the gathered shape. It is added in place
    into the gathered rows, so the one node stands for
    ``add(embedding(weight, indices), positions)`` and keeps one array.
    """
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= weight.shape[0]):
        raise IndexError("embedding index out of range")

    def d_weight(g):
        # sorted by index, each row's gradients form one contiguous run that
        # reduceat sums, where np.add.at would scatter them one at a time
        flat = idx.reshape(-1)
        order = np.argsort(flat, kind="stable")
        sorted_idx = flat[order]
        first = np.ones(sorted_idx.size, dtype=bool)
        first[1:] = sorted_idx[1:] != sorted_idx[:-1]
        starts = np.flatnonzero(first)
        grad = np.zeros_like(weight.data)
        rows = g.reshape(-1, weight.shape[1])[order]
        grad[sorted_idx[starts]] = np.add.reduceat(rows, starts, axis=0)
        return grad

    value = weight.data[idx]
    if positions is None:
        return _op(value, (weight,), (d_weight,))
    value += positions.data
    return _op(value, (weight, positions), (d_weight, lambda g: g))


def _windows(padded: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """The [n, h_out, w_out, kh, kw, C] view of a padded [n, H, W, C] buffer:
    window (oh, ow) starts at row oh * stride, column ow * stride, and the
    last one ends inside the buffer, as np.ndarray checks."""
    n, rows, cols, c = padded.shape
    sn, sh, sw, sc = padded.strides
    shape = (n, (rows - kh) // stride + 1, (cols - kw) // stride + 1, kh, kw, c)
    strides = (sn, sh * stride, sw * stride, sh, sw, sc)
    return np.ndarray(shape, padded.dtype, buffer=padded, strides=strides)


def conv2d(x: TensorLike, kernel: TensorLike, bias: TensorLike, stride: int = 1) -> Tensor:
    """relu of the cross-correlation of channels-last [N, H, W, C] with
    [C_out, C_in, kh, kw], plus a bias [C_out].

    Zero padding of (kh // 2, kw // 2) on each side centres odd kernels, so a
    stride-1 layer keeps H and W. The output is channels-last too.
    """
    xt, kt, bt = as_tensor(x), as_tensor(kernel), as_tensor(bias)
    if xt.ndim != 4 or kt.ndim != 4:
        raise ShapeError("conv2d expects 4-D input and kernel")
    if not isinstance(stride, (int, np.integer)) or isinstance(stride, bool) or stride < 1:
        raise ShapeError(f"conv2d stride must be an int >= 1, got {stride!r}")
    n, h, w, c = xt.shape
    c_out, c_in, kh, kw = kt.shape
    if c != c_in:
        raise ShapeError(f"conv2d channel mismatch: input {c}, kernel {c_in}")
    if bt.shape != (c_out,):
        raise ShapeError(f"conv2d bias shape {bt.shape} does not match {c_out} output channels")
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=xt.dtype)
    xp[:, ph : ph + h, pw : pw + w] = xt.data
    windows = _windows(xp, kh, kw, stride)
    _, h_out, w_out = windows.shape[:3]
    # im2col rows in (kh, kw, C) order, so the copy moves contiguous runs of
    # C channels
    cols = np.ascontiguousarray(windows).reshape(n * h_out * w_out, kh * kw * c)
    k_flat = kt.data.transpose(0, 2, 3, 1).reshape(c_out, kh * kw * c)
    y = (cols @ k_flat.T).reshape(n, h_out, w_out, c_out)
    y += bt.data
    np.maximum(y, 0, out=y)
    # relu's output is positive exactly where its input was, so the rule
    # reads its mask from y, which the node holds anyway
    g_relu = None

    def through_relu(g):
        # relu's rule, computed once for the three parents' rules
        nonlocal g_relu
        if g_relu is None:
            g_relu = g * (y > 0)
        return g_relu

    # the padded input gradient as s x s stride-phase planes (Shi et al.
    # 2016): padded row r is row r // s of phase r % s, and so for columns
    s = stride
    planes_shape = (s, s, n, -(-xp.shape[1] // s), -(-xp.shape[2] // s), c)

    def d_x(g):
        # one GEMM per kernel tap, added in (i, j) order into the zeroed
        # planes; a tap lands in one phase, as one contiguous block
        g_flat = through_relu(g).reshape(n * h_out * w_out, c_out)
        planes = np.zeros(planes_shape, xt.dtype)
        for i in range(kh):
            for j in range(kw):
                tap = (g_flat @ kt.data[:, :, i, j]).reshape(n, h_out, w_out, c)
                planes[i % s, j % s, :, i // s : i // s + h_out, j // s : j // s + w_out] += tap
        # input row y is padded row y + ph: rows a, a + s, ... share a phase
        dx = np.empty((n, h, w, c), xt.dtype)
        for a in range(s):
            for b in range(s):
                part = dx[:, a::s, b::s]
                (r, pa), (q, pb) = divmod(a + ph, s), divmod(b + pw, s)
                part[...] = planes[pa, pb, :, r : r + part.shape[1], q : q + part.shape[2]]
        return dx

    def d_kernel(g):
        g_flat = through_relu(g).reshape(n * h_out * w_out, c_out)
        return (g_flat.T @ cols).reshape(c_out, kh, kw, c).transpose(0, 3, 1, 2)

    return _op(y, (xt, kt, bt), (d_x, d_kernel, through_relu))


def linear(x: TensorLike, weight: TensorLike, bias: TensorLike) -> Tensor:
    """y = x @ W + b for x [N, d_in], W [d_in, d_out], b [d_out]."""
    xt, wt, bt = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if bt.ndim != 1 or bt.shape[0] != wt.shape[1]:
        raise ShapeError(f"bias shape {bt.shape} does not match W {wt.shape}")
    return add(matmul(xt, wt), bt)


L2_EPS = 1e-8


def _l2_norms(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(||v||_2, ||v||_2 + L2_EPS) along the last axis, kept as a length-1 axis."""
    norm = np.sqrt((v * v).sum(axis=-1, keepdims=True))
    return norm, norm + L2_EPS


def l2_normalize_grad(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient on v of l2_normalize(v), given its output gradient g."""
    norm, denom = _l2_norms(v)
    scale = np.maximum(norm, np.finfo(v.dtype).tiny) * denom * denom
    inner = (g * v).sum(axis=-1, keepdims=True)
    # an all-zero row takes the limit g / denom; its scale underflows to 0
    return g / denom - v * inner / np.where(norm > 0, scale, 1.0)


def l2_normalize(v: TensorLike) -> Tensor:
    """v / (||v||_2 + L2_EPS) along the last axis; zero rows stay zero."""
    vt = as_tensor(v)
    value = (vt.data / _l2_norms(vt.data)[1]).astype(vt.dtype, copy=False)
    return _op(value, (vt,), (lambda g: l2_normalize_grad(vt.data, g),))


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
    softmax = exp_shifted / exp_shifted.sum(axis=1, keepdims=True)

    def d_logits(g):
        grad = softmax.copy()
        grad[rows, tg] -= 1.0
        return grad * (g / n)

    return _op(np.asarray(losses.mean(), dtype=lt.dtype), (lt,), (d_logits,))


# --- parameters and the optimizer -------------------------------------------


class Parameter(Tensor):
    """A trainable leaf tensor with its Adam state (m, v, step count t), zero unless given."""

    __slots__ = ("m", "v", "t")

    def __init__(self, data: np.ndarray, m=None, v=None, t: int = 0):
        super().__init__(data, requires_grad=True)
        self.m = np.zeros_like(self.data) if m is None else m
        self.v = np.zeros_like(self.data) if v is None else v
        self.t = t


class MissingGradientError(RuntimeError):
    pass


# Adam's published defaults (Kingma & Ba 2015), which every caller uses
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(p: Parameter, lr: float, weight_decay: float = 1e-3) -> None:
    """Decoupled weight decay (p -= lr*wd*p), then bias-corrected Adam.

    m and v are updated in place, through two scratch arrays; each element
    gets the products and sums of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g
    and p -= lr * m_hat / (sqrt(v_hat) + eps) in the same order, so the
    bits equal the out-of-place formula's.
    """
    g = p.grad
    if g is None:
        raise MissingGradientError("adam_step called before backward populated the gradient")
    if weight_decay:
        p.data -= lr * weight_decay * p.data
    p.t += 1
    step = np.multiply(g, 1.0 - BETA1, out=np.empty_like(p.m))
    p.m *= BETA1
    p.m += step
    np.multiply(g, g, out=step)
    step *= 1.0 - BETA2
    p.v *= BETA2
    p.v += step
    denom = np.divide(p.v, 1.0 - BETA2**p.t, out=np.empty_like(p.v))  # v_hat
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(p.m, 1.0 - BETA1**p.t, out=step)  # m_hat
    step *= lr
    step /= denom
    p.data -= step
