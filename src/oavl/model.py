"""Dual encoder and losses.

A small image CNN and a token-convolution text encoder produce unprojected
embeddings; both run the same channels-last conv2d, the text encoder on each
caption as a one-row image of token embeddings. Per-modality linear heads
plus l2 normalization produce the projected embeddings whose cosine
similarity matrix feeds a symmetric InfoNCE loss. A second loss pushes the
cosine between each caption's unprojected embedding and its contrasting
negative's embedding down.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Tuple

import numpy as np

from . import nn
from .captions import DEFAULT_MAX_LEN, VOCAB_SIZE
from .configs import check_field_types, check_json_keys, is_json_type
from .nn import Parameter, Tensor
from .seeding import make_rng

TAU_MIN = 1e-3
TAU_MAX = 10.0


@dataclass(frozen=True)
class ModelConfig:
    """Frozen; each field's type and range are checked when built (vocab_size: the grammar's)."""
    height: int = 64
    width: int = 64
    channels: Tuple[int, int, int] = (16, 32, 64)
    embed_dim: int = 64
    proj_dim: int = 32
    vocab_size: int = VOCAB_SIZE
    max_len: int = DEFAULT_MAX_LEN
    pad_index: int = 0
    # similarity divisor: logits = S / tau; 0.07 starts training sharp and
    # inside the clamp range so the gradient can move it
    temperature_init: float = 0.07

    def __post_init__(self) -> None:
        check_field_types(self, ValueError)
        if len(self.channels) != 3:
            raise ValueError("the image encoder has exactly 3 conv stages")
        names = ("height", "width", "embed_dim", "proj_dim", "max_len")
        sizes = {name: getattr(self, name) for name in names}
        sizes.update({f"channels[{i}]": c for i, c in enumerate(self.channels)})
        for name, value in sizes.items():
            if not is_json_type(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.vocab_size <= 2:
            raise ValueError("vocab_size must cover the caption grammar")
        if not 0 <= self.pad_index < self.vocab_size:
            raise ValueError(f"pad_index must index the vocabulary, got {self.pad_index!r}")
        tau = self.temperature_init
        if not TAU_MIN <= tau <= TAU_MAX:
            raise ValueError(f"temperature_init must be in [{TAU_MIN}, {TAU_MAX}], got {tau!r}")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ModelConfig":
        check_json_keys(cls, obj)
        return cls(**{**obj, "channels": tuple(obj["channels"])})


def parameter_shapes(cfg: ModelConfig) -> "OrderedDict[str, Tuple[int, ...]]":
    """Every parameter's name and shape, in the fixed order; allocates nothing.

    Conv kernels are [C_out, C_in, kh, kw] and linear weights [d_in, d_out].
    """
    c1, c2, c3 = cfg.channels
    d = cfg.embed_dim
    shapes: "OrderedDict[str, Tuple[int, ...]]" = OrderedDict()
    convs = (("image.conv1", c1, 1), ("image.conv2", c2, c1), ("image.conv3", c3, c2))
    for name, c_out, c_in in convs:
        shapes[name + ".weight"] = (c_out, c_in, 3, 3)
        shapes[name + ".bias"] = (c_out,)
    shapes["text.token_embedding"] = (cfg.vocab_size, d)
    shapes["text.pos_embedding"] = (cfg.max_len, d)
    for name in ("text.conv1", "text.conv2"):
        shapes[name + ".weight"] = (d, d, 1, 3)
        shapes[name + ".bias"] = (d,)
    for name, d_in in (("proj.image", c3), ("proj.text", d)):
        shapes[name + ".weight"] = (d_in, cfg.proj_dim)
        shapes[name + ".bias"] = (cfg.proj_dim,)
    shapes["log_temperature"] = ()
    return shapes


def _initial_value(name: str, shape: Tuple[int, ...], cfg: ModelConfig, seed: int) -> np.ndarray:
    if name == "log_temperature":
        return np.asarray(math.log(cfg.temperature_init))
    if name.endswith(".bias"):
        return np.zeros(shape)  # zero bias: a projection is scale-free at init
    if name.endswith("_embedding"):
        return 0.02 * make_rng(seed, "init", name).standard_normal(shape)
    # He init for a conv kernel, 1 / d_in variance for a linear weight
    fan_in, gain = (math.prod(shape[1:]), 2.0) if len(shape) == 4 else (shape[0], 1.0)
    rng = make_rng(seed, "init", name[: -len(".weight")])
    return math.sqrt(gain / fan_in) * rng.standard_normal(shape)


class DualEncoder:
    """Image CNN + text token-conv encoder + projection heads + temperature.

    Parameters are enumerable by name in a fixed order (the checkpoint
    contract). Activations are channels-last [N, H, W, C]. Image encoder:
    [N, H, W] images read as one channel, three stride-2 3x3 conv+relu
    stages and a global mean pool. Text encoder: token + position
    embeddings as a one-row image [N, 1, L, D], two 1x3 convolutions over
    the token axis, mean pool over non-pad positions. Each encoder is one
    graph node per stage: the position add rides in the embedding node and
    the pad mask in the pool node, so a caption batch takes 4.

    The model holds ``params``, a Parameter per ``parameter_shapes`` name, when
    given them (as load does), else it draws each one's seeded initial value.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0, dtype=np.float32, params=None):
        self.cfg = cfg
        self.dtype = dtype
        if params is None:
            params = {
                name: Parameter(np.asarray(_initial_value(name, shape, cfg, seed), dtype=dtype))
                for name, shape in parameter_shapes(cfg).items()
            }
        self._params = OrderedDict((name, params[name]) for name in parameter_shapes(cfg))

    # -- parameter bookkeeping ------------------------------------------------

    def parameters(self) -> "OrderedDict[str, Parameter]":
        return self._params

    def param(self, name: str) -> Parameter:
        return self._params[name]

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None

    # -- forward ---------------------------------------------------------------

    def _conv_block(self, x: Tensor, name: str, stride: int) -> Tensor:
        weight, bias = self._params[name + ".weight"], self._params[name + ".bias"]
        return nn.conv2d(x, weight, bias, stride=stride)

    def image_features(self, images: np.ndarray) -> Tensor:
        """Final conv-stage activations [N, h, w, C3] of [N, H, W] images."""
        arr = np.asarray(images, dtype=self.dtype)
        if arr.ndim != 3:
            raise nn.ShapeError("expected images of shape [N, H, W]")
        if arr.shape[1:] != (self.cfg.height, self.cfg.width):
            raise nn.ShapeError(
                f"image size {arr.shape[1]}x{arr.shape[2]} does not match "
                f"configured {self.cfg.height}x{self.cfg.width}"
            )
        x = Tensor(arr[..., None])  # one channel, channels-last
        x = self._conv_block(x, "image.conv1", stride=2)
        x = self._conv_block(x, "image.conv2", stride=2)
        return self._conv_block(x, "image.conv3", stride=2)

    def encode_image(self, images: np.ndarray) -> Tensor:
        """Unprojected image embeddings [N, C3] of [N, H, W] images."""
        return nn.mean_pool(self.image_features(images))

    def encode_text(self, tokens: np.ndarray) -> Tensor:
        """Unprojected text embeddings [N, D]; mean pool skips <pad> positions."""
        idx = np.asarray(tokens)
        if idx.ndim != 2 or idx.shape[1] != self.cfg.max_len:
            raise nn.ShapeError(f"expected tokens of shape [N, {self.cfg.max_len}]")
        # a caption is a one-row channels-last image [N, 1, L, D]
        x = nn.embedding(
            self._params["text.token_embedding"], idx[:, None], self._params["text.pos_embedding"]
        )
        x = self._conv_block(x, "text.conv1", stride=1)
        x = self._conv_block(x, "text.conv2", stride=1)
        return nn.mean_pool(x, (idx != self.cfg.pad_index)[:, None, :, None])

    def project(self, embeddings: Tensor, modality: str) -> Tensor:
        """Linear head + l2 normalization; rows come out unit-norm."""
        if modality not in ("image", "text"):
            raise ValueError("modality must be 'image' or 'text'")
        w = self._params[f"proj.{modality}.weight"]
        b = self._params[f"proj.{modality}.bias"]
        return nn.l2_normalize(nn.linear(embeddings, w, b))

    def temperature(self) -> Tensor:
        """tau = clamp(exp(log_temperature), TAU_MIN, TAU_MAX)."""
        return nn.clamp(nn.exp(self._params["log_temperature"]), TAU_MIN, TAU_MAX)


def similarity_matrix(image_proj: Tensor, text_proj: Tensor) -> Tensor:
    """S[i, j] = image_proj[i] . text_proj[j] for unit-norm rows."""
    return nn.matmul(image_proj, nn.transpose(text_proj))


def info_nce_loss(similarity: Tensor, tau) -> Tensor:
    """Symmetric cross entropy over S/tau with diagonal targets."""
    n = similarity.shape[0]
    if similarity.ndim != 2 or similarity.shape[1] != n:
        raise nn.ShapeError("similarity matrix must be square")
    if n < 2:
        raise ValueError("InfoNCE needs at least 2 pairs for in-batch negatives")
    targets = np.arange(n)
    logits = nn.div(similarity, tau)
    image_to_text = nn.softmax_cross_entropy(logits, targets)
    text_to_image = nn.softmax_cross_entropy(nn.transpose(logits), targets)
    return nn.mul(nn.add(image_to_text, text_to_image), 0.5)


def negative_caption_loss(text_pos: Tensor, text_neg: Tensor) -> Tensor:
    """Mean cosine between matched rows of unprojected pos/neg text embeddings."""
    if text_pos.shape != text_neg.shape:
        raise nn.ShapeError("positive and negative embeddings must align row-wise")
    a = nn.l2_normalize(text_pos)
    b = nn.l2_normalize(text_neg)
    return nn.tmean(nn.tsum(nn.mul(a, b), axis=1))


def total_loss(
    similarity: Tensor,
    tau,
    text_pos: Tensor,
    text_neg: Tensor,
    neg_weight: float = 0.5,
) -> Tuple[Tensor, Tensor, Tensor]:
    """InfoNCE plus neg_weight times the negative-caption cosine.

    Returns (total, infonce, negative) graph nodes.
    """
    if neg_weight < 0:
        raise ValueError("neg_weight must be non-negative")
    nce = info_nce_loss(similarity, tau)
    neg = negative_caption_loss(text_pos, text_neg)
    return nn.add(nce, nn.mul(neg, neg_weight)), nce, neg
