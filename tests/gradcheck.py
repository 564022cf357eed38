"""Test oracle: check reverse-mode gradients against central differences.

Tests and acceptance criterion 1 run every backward rule of ``oavl.nn``,
and the model's losses, through it; the pipeline never calls it. A probe
that crosses a relu or clamp kink estimates no derivative, so the checker
traces the two ops' branch masks itself: ``branch_trace`` swaps
``nn.conv2d`` and ``nn.clamp`` for wrappers that record them, which sees
every call because the model and the tests reach both through ``nn``.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from oavl import nn
from oavl.nn import Tensor


def _packed(mask: np.ndarray) -> bytes:
    return np.packbits(mask.reshape(-1)).tobytes()


@contextlib.contextmanager
def branch_trace():
    """Record the packed relu mask of each conv2d and the in-range mask of
    each clamp, in call order, while the block runs.

    conv2d's relu output is positive exactly where its input was, so the
    wrapper reads the relu mask from the output.
    """
    trace: List[bytes] = []
    conv2d, clamp = nn.conv2d, nn.clamp

    def traced_conv2d(*args, **kwargs):
        out = conv2d(*args, **kwargs)
        trace.append(_packed(out.data > 0))
        return out

    def traced_clamp(a, lo, hi):
        x = nn.as_tensor(a).data
        trace.append(_packed((x >= lo) & (x <= hi)))
        return clamp(a, lo, hi)

    nn.conv2d, nn.clamp = traced_conv2d, traced_clamp
    try:
        yield trace
    finally:
        nn.conv2d, nn.clamp = conv2d, clamp


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
