"""Span tracer that wraps the oavl package's public functions from outside.

Installing a ``Tracer`` replaces each traced function under every name a
caller looks it up by: module globals such as ``oavl.training.tokenize``
(imported by name), module attributes such as ``oavl.nn.conv2d`` (called as
``nn.conv2d``), and methods of ``DualEncoder`` and ``Tensor``. Uninstalling
puts the originals back. Nothing under ``src/`` changes.

Spans (name, start, end, parent span, pass) are kept in memory and turned
into per-layer metrics when the run ends. Counters that repeat exactly at a
fixed seed (conv FLOPs and bytes, graph nodes, truncated captions) are
recorded at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from oavl import captions, evaluation, model, nn, scores, synth, training

LAYERS = ("nn", "model", "captions", "scores", "training", "evaluation", "synth")
CONV_TAGS = ("image-conv1", "image-conv2", "image-conv3", "text-conv")
_MODULES = (nn, model, captions, scores, training, evaluation, synth)

# (module, function, span name): each is wrapped wherever a module binds it.
_FUNCTIONS = (
    (nn, "conv2d", None),  # named per kernel shape, see _conv_tag
    (nn, "embedding", "nn.embedding"),
    (nn, "softmax_cross_entropy", "nn.softmax_cross_entropy"),
    (nn, "l2_normalize", "nn.l2_normalize"),
    (nn, "adam_step", "nn.adam_step"),
    (model, "total_loss", "model.total_loss"),
    (captions, "render_caption", "captions.render_caption"),
    (captions, "shuffle_sentences", "captions.shuffle_sentences"),
    (captions, "tokenize", "captions.tokenize"),
    (scores, "perturb_negative", "scores.perturb_negative"),
    (training, "fit", "training.fit"),
    (training, "train_step", "training.train_step"),
    (training, "_batch_tokens", "training.caption_prep"),
    (training, "matched_negative_cosine", "training.probe"),
    (training, "save_checkpoint", "training.save_checkpoint"),
    (training, "load_checkpoint", "training.load_checkpoint"),
    (evaluation, "zero_shot_eval", "evaluation.zero_shot_eval"),
    (evaluation, "class_prompt_vectors", "evaluation.class_prompt_vectors"),
    (evaluation, "retrieval_eval", "evaluation.retrieval_eval"),
    (evaluation, "bleu4", "evaluation.bleu4"),
    (evaluation, "retrieve_topk", "evaluation.retrieve_topk"),
    (evaluation, "grad_cam", "evaluation.grad_cam"),
    (synth, "generate_dataset", "synth.generate_dataset"),
    (synth, "render_image", "synth.render_image"),
    (synth, "write_pgm", "synth.write_pgm"),
    (synth, "write_manifest", "synth.write_manifest"),
    (synth, "read_pgm", "synth.read_pgm"),
    (synth, "read_manifest", "synth.read_manifest"),
)

_METHODS = (
    (model.DualEncoder, "encode_image", "model.encode_image"),
    (model.DualEncoder, "encode_text", "model.encode_text"),
    (model.DualEncoder, "project", "model.project"),
    (nn.Tensor, "backward", "nn.backward_sweep"),
)


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _array(value) -> np.ndarray:
    return value.data if isinstance(value, nn.Tensor) else np.asarray(value)


def _kernel_tags() -> Dict[Tuple[int, ...], str]:
    cfg = model.ModelConfig()
    c1, c2, c3 = cfg.channels
    d = cfg.embed_dim
    return {
        (c1, 1, 3, 3): "image-conv1",
        (c2, c1, 3, 3): "image-conv2",
        (c3, c2, 3, 3): "image-conv3",
        (d, d, 1, 3): "text-conv",
    }


_KERNEL_TAGS = _kernel_tags()


def _conv_tag(kernel_shape: Tuple[int, ...]) -> str:
    """Which of the model's four conv layers a kernel of this shape belongs to."""
    return _KERNEL_TAGS.get(tuple(kernel_shape), "other")


def _graph_nodes(root: nn.Tensor) -> int:
    """Nodes a backward sweep from ``root`` visits (those that need a gradient)."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


class Tracer:
    """In-memory spans and counters for one run; ``install`` patches oavl."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index, pass id]
        self.counts: Dict[str, float] = defaultdict(float)
        self.pass_id = -1
        self._paused = False
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def wrap(self, name, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``name`` may be a function of the args.

        ``after(args, kwargs, result)`` runs once the span is closed, so the
        bookkeeping it does is not charged to the traced function.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.pass_id])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][1] = start
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own output checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _backward_traced(self, out: nn.Tensor, name: str, after=None) -> None:
        if out.requires_grad and out._backward is not None:
            out._backward = self.wrap(name, out._backward, after)

    # -- hooks that record counters or split forward from backward ----------------

    def _after_conv(self, args, kwargs, out) -> None:
        x, kernel = _array(args[0]), _array(args[1])
        tag = _conv_tag(kernel.shape)
        prefix = f"nn.conv2d.{tag}"
        n, c_out, h_out, w_out = out.shape
        c_in, kh, kw = kernel.shape[1:]
        flop = 2.0 * n * h_out * w_out * c_out * c_in * kh * kw
        self.counts[prefix + ".flop"] += flop
        self.counts[prefix + ".bytes"] += x.nbytes + kernel.nbytes + out.data.nbytes
        x_grad = isinstance(args[0], nn.Tensor) and args[0].requires_grad
        k_grad = isinstance(args[1], nn.Tensor) and args[1].requires_grad

        def after_bwd(bargs, bkwargs, _result) -> None:
            # one GEMM per gradient the sweep needs, each the size of the forward
            self.counts[prefix + ".flop"] += flop * (int(x_grad) + int(k_grad))
            self.counts[prefix + ".bytes"] += bargs[0].nbytes + (
                x.nbytes if x_grad else 0
            ) + (kernel.nbytes if k_grad else 0)

        self._backward_traced(out, prefix + ".bwd", after_bwd)

    def _after_op(self, name: str) -> Callable:
        def after(args, kwargs, out) -> None:
            self._backward_traced(out, name + ".bwd")

        return after

    def _after_tokenize(self, args, kwargs, result) -> None:
        text = _arg(args, kwargs, 0, "text")
        max_len = _arg(args, kwargs, 2, "max_len", captions.DEFAULT_MAX_LEN)
        if len(captions.split_text(text)) > max_len:
            self.counts["captions.truncated"] += 1

    def _after_backward(self, args, kwargs, result) -> None:
        self.counts["nn.graph_nodes"] += _graph_nodes(args[0])

    def _after_save(self, args, kwargs, result) -> None:
        path = _arg(args, kwargs, 0, "path")
        self.counts["training.save_checkpoint.bytes"] += os.path.getsize(path)

    def _after_read_pgm(self, args, kwargs, image) -> None:
        self.counts["synth.read_pgm.bytes"] += image.size * 2

    def _after_write_pgm(self, args, kwargs, result) -> None:
        self.counts["synth.write_pgm.bytes"] += np.asarray(_arg(args, kwargs, 1, "image")).size * 2

    # -- patching ------------------------------------------------------------------

    def _hooks(self) -> Dict[str, Callable]:
        return {
            "nn.embedding": self._after_op("nn.embedding"),
            "nn.softmax_cross_entropy": self._after_op("nn.softmax_cross_entropy"),
            "nn.l2_normalize": self._after_op("nn.l2_normalize"),
            "captions.tokenize": self._after_tokenize,
            "nn.backward_sweep": self._after_backward,
            "training.save_checkpoint": self._after_save,
            "synth.read_pgm": self._after_read_pgm,
            "synth.write_pgm": self._after_write_pgm,
        }

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        hooks = self._hooks()
        wrapped = {}
        for module, attr, name in _FUNCTIONS:
            original = getattr(module, attr)
            if name is None:
                conv_name = lambda args: f"nn.conv2d.{_conv_tag(_array(args[1]).shape)}.fwd"
                wrapped[id(original)] = self.wrap(conv_name, original, self._after_conv)
            else:
                wrapped[id(original)] = self.wrap(name, original, hooks.get(name))
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrapped:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)])
        for cls, attr, name in _METHODS:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, hooks.get(name)))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reporting -------------------------------------------------------------------

    def write(self, path: str) -> None:
        """All spans as JSON lines: name, start, end, parent index, pass id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pass_id in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "pass": pass_id}
                    )
                    + "\n"
                )

    def per_layer(self, n_passes: int) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics as (value per traced pass, unit)."""
        spans = self.spans
        dur = [end - start for _name, start, end, _parent, _pass in spans]
        child = [0.0] * len(spans)
        for i, span in enumerate(spans):
            if span[3] >= 0:
                child[span[3]] += dur[i]
        total: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        for i, span in enumerate(spans):
            total[span[0]] += dur[i]
            calls[span[0]] += 1
            self_s[span[0]] += dur[i] - child[i]

        def has_ancestor(i: int, name: str) -> bool:
            parent = spans[i][3]
            while parent >= 0:
                if spans[parent][0] == name:
                    return True
                parent = spans[parent][3]
            return False

        step_backward = step_optimizer = 0.0
        val_s = 0.0
        for i, (name, _start, _end, parent, _pass) in enumerate(spans):
            if parent >= 0 and spans[parent][0] == "training.train_step":
                if name == "nn.backward_sweep":
                    step_backward += dur[i]
                elif name == "nn.adam_step":
                    step_optimizer += dur[i]
            if name == "evaluation.zero_shot_eval" and has_ancestor(i, "training.fit"):
                val_s += dur[i]

        p = float(max(n_passes, 1))
        out: Dict[str, Tuple[float, str]] = {}

        def put(metric: str, value: float, unit: str) -> None:
            out[metric] = (value / p, unit)

        for tag in CONV_TAGS:
            prefix = f"nn.conv2d.{tag}"
            put(prefix + ".calls", calls[prefix + ".fwd"], "count")
            put(prefix + ".fwd_s", total[prefix + ".fwd"], "s")
            put(prefix + ".bwd_s", total[prefix + ".bwd"], "s")
            put(prefix + ".gflop", self.counts[prefix + ".flop"] / 1e9, "GFLOP")
            put(prefix + ".mbytes", self.counts[prefix + ".bytes"] / 1e6, "MB")
        put("nn.embedding.calls", calls["nn.embedding"], "count")
        put("nn.embedding.fwd_s", total["nn.embedding"], "s")
        put("nn.embedding.bwd_s", total["nn.embedding.bwd"], "s")
        for op in ("nn.softmax_cross_entropy", "nn.l2_normalize"):
            put(op + ".s", total[op] + total[op + ".bwd"], "s")
        put("nn.adam_step.calls", calls["nn.adam_step"], "count")
        put("nn.adam_step.s", total["nn.adam_step"], "s")
        put("nn.backward_sweep.s", total["nn.backward_sweep"], "s")
        sweeps = calls["nn.backward_sweep"]
        out["nn.graph_nodes_per_step"] = (
            self.counts["nn.graph_nodes"] / sweeps if sweeps else 0.0,
            "count",
        )
        for name in ("model.encode_image", "model.encode_text", "model.project", "model.total_loss"):
            put(name + ".s", total[name], "s")
        for name in ("captions.render_caption", "captions.tokenize", "scores.perturb_negative"):
            put(name + ".calls", calls[name], "count")
            put(name + ".s", total[name], "s")
        put("captions.shuffle_sentences.s", total["captions.shuffle_sentences"], "s")
        put("captions.truncated", self.counts["captions.truncated"], "count")
        tokenized = calls["captions.tokenize"]
        out["captions.truncated_frac"] = (
            self.counts["captions.truncated"] / tokenized if tokenized else 0.0,
            "ratio",
        )
        put("training.train_step.calls", calls["training.train_step"], "count")
        put("training.train_step.s", total["training.train_step"], "s")
        put("training.step.forward_s", total["training.train_step"] - step_backward - step_optimizer, "s")
        put("training.step.backward_s", step_backward, "s")
        put("training.step.optimizer_s", step_optimizer, "s")
        put("training.caption_prep.calls", calls["training.caption_prep"], "count")
        put("training.caption_prep.s", total["training.caption_prep"], "s")
        put("training.val.s", val_s, "s")
        put("training.probe.s", total["training.probe"], "s")
        put("training.fit.self_s", self_s["training.fit"], "s")
        put("training.save_checkpoint.s", total["training.save_checkpoint"], "s")
        put("training.save_checkpoint.bytes", self.counts["training.save_checkpoint.bytes"], "bytes")
        put("training.load_checkpoint.s", total["training.load_checkpoint"], "s")
        for name in (
            "evaluation.zero_shot_eval",
            "evaluation.class_prompt_vectors",
            "evaluation.retrieval_eval",
            "evaluation.bleu4",
            "evaluation.grad_cam",
            "synth.render_image",
            "synth.read_pgm",
        ):
            put(name + ".calls", calls[name], "count")
            put(name + ".s", total[name], "s")
        put("evaluation.retrieve_topk.s", total["evaluation.retrieve_topk"], "s")
        put("synth.write_pgm.s", total["synth.write_pgm"], "s")
        put("synth.write_pgm.bytes", self.counts["synth.write_pgm.bytes"], "bytes")
        put("synth.read_pgm.bytes", self.counts["synth.read_pgm.bytes"], "bytes")
        put("synth.write_manifest.s", total["synth.write_manifest"], "s")
        put("synth.read_manifest.s", total["synth.read_manifest"], "s")
        layer_self: Dict[str, float] = defaultdict(float)
        for name, value in self_s.items():
            layer_self[name.split(".", 1)[0]] += value
        for layer in LAYERS:
            put(layer + ".self_s", layer_self[layer], "s")
        put("trace.spans", len(spans), "count")
        return out
