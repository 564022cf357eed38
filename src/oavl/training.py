"""Deterministic training loop and checkpointing.

Each epoch keeps one representative per severity signature (so a batch
never contrasts two items with identical scores), samples one template
style per item, optionally shuffles its sentences, pairs it with a freshly
perturbed negative caption, and applies per-group Adam learning rates.

A checkpoint (format version 2) is the magic ``OAVL0002``, a u32 header
length, a sorted-key JSON header (``epoch``, the ``model`` and ``train``
configs, and ``steps``: each parameter's integer Adam step count), the
float32 values of every slot in ``_checkpoint_slots`` order, back to back,
and one CRC32 of all bytes between the magic and itself. Integers are
little-endian. The config fixes every slot's name and shape, so the
payload stores values only.
"""

from __future__ import annotations

import ctypes
import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import evaluation, nn
from .captions import (
    TEMPLATE_ORDER,
    VOCAB_SIZE,
    TemplateKind,
    Vocabulary,
    build_vocabulary,
    render_caption,
    shuffle_sentences,
    tokenize,
)
from .configs import check_field_types, check_json_keys, is_json_type
from .model import DualEncoder, ModelConfig, parameter_shapes, similarity_matrix, total_loss
from .scores import OaScoreRecord, perturb_negative, severity_signature
from .seeding import make_rng
from .synth import DatasetManifest, ManifestEntry, pgm_to_float, read_pgm_samples, write_atomic

CHECKPOINT_MAGIC = b"OAVL0002"


class TrainingError(RuntimeError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """Frozen; each field's type and range are checked when built."""
    epochs: int = 20
    batch_size: int = 32
    lr_image: float = 1e-4
    lr_text: float = 1e-3
    lr_projection: float = 1e-3
    weight_decay: float = 1e-3
    neg_weight: float = 0.5
    shuffle_prob: float = 0.5
    include_zero_grades: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self, ValueError)
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2 (in-batch negatives)")
        for name in ("lr_image", "lr_text", "lr_projection"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be non-negative and finite")
        if not 0 <= self.neg_weight < math.inf:
            raise ValueError("neg_weight must be non-negative and finite")
        if not 0.0 <= self.shuffle_prob <= 1.0:
            raise ValueError("shuffle_prob must be in [0, 1]")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TrainConfig":
        check_json_keys(cls, obj)
        return cls(**obj)


@dataclass
class PlanItem:
    record: OaScoreRecord
    kind: TemplateKind
    shuffle: bool


EpochPlan = List[List[PlanItem]]


def signature_groups(records: Sequence[OaScoreRecord]) -> List[List[OaScoreRecord]]:
    """Records grouped by severity signature, groups in order of first appearance."""
    groups: Dict[tuple, List[OaScoreRecord]] = {}
    for record in records:
        groups.setdefault(severity_signature(record), []).append(record)
    return list(groups.values())


def epoch_plan(
    groups: Sequence[Sequence[OaScoreRecord]],
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> EpochPlan:
    """One epoch's batches: deduplicated by signature, shuffled, tail dropped.

    Keeps one uniformly chosen representative per signature group (see
    :func:`signature_groups`); each surviving item gets a uniform template
    kind and a sentence-shuffle flag with probability shuffle_prob.
    """
    if not groups:
        raise ValueError("empty train split")
    survivors = [members[int(rng.integers(0, len(members)))] for members in groups]
    order = rng.permutation(len(survivors))
    shuffled = [survivors[i] for i in order]

    plan: EpochPlan = []
    n_batches = len(shuffled) // cfg.batch_size
    for b in range(n_batches):
        batch = []
        for record in shuffled[b * cfg.batch_size : (b + 1) * cfg.batch_size]:
            kind = TEMPLATE_ORDER[int(rng.integers(0, len(TEMPLATE_ORDER)))]
            shuffle = bool(rng.random() < cfg.shuffle_prob)
            batch.append(PlanItem(record=record, kind=kind, shuffle=shuffle))
        plan.append(batch)
    return plan


def _batch_tokens(
    items: Sequence[PlanItem],
    cfg: TrainConfig,
    vocab: Vocabulary,
    max_len: int,
    epoch: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Tokenized positive captions (optionally shuffled) and fresh negatives."""
    pos = np.empty((len(items), max_len), dtype=np.int64)
    neg = np.empty((len(items), max_len), dtype=np.int64)
    for i, item in enumerate(items):
        record = item.record
        text = render_caption(record, item.kind, cfg.include_zero_grades)
        if item.shuffle:
            text = shuffle_sentences(text, make_rng(cfg.seed, "shuffle", epoch, record.id))
        pos[i] = tokenize(text, vocab, max_len)
        neg_record = perturb_negative(record, make_rng(cfg.seed, "neg", epoch, record.id))
        neg_text = render_caption(neg_record, item.kind, cfg.include_zero_grades)
        neg[i] = tokenize(neg_text, vocab, max_len)
    return pos, neg


def train_step(
    model: DualEncoder,
    images: np.ndarray,
    pos_tokens: np.ndarray,
    neg_tokens: np.ndarray,
    cfg: TrainConfig,
) -> Tuple[float, float, float]:
    """One forward/backward/update; returns (total, infonce, negative) losses."""
    model.zero_grad()
    # a diverging run overflows somewhere in the forward pass; the loss check
    # below reports that once, in place of numpy's warning per op
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        image_u = model.encode_image(images)
        text_u = model.encode_text(pos_tokens)
        text_neg_u = model.encode_text(neg_tokens)
        sim = similarity_matrix(model.project(image_u, "image"), model.project(text_u, "text"))
        total, nce, neg = total_loss(sim, model.temperature(), text_u, text_neg_u, cfg.neg_weight)
    values = (float(total.data), float(nce.data), float(neg.data))
    if not all(np.isfinite(v) for v in values):
        raise TrainingError(
            f"non-finite loss: total={values[0]}, infonce={values[1]}, negative={values[2]}"
        )
    total.backward()
    # image.* and text.* take their encoder's rate; proj.* and log_temperature the projection's
    rates = {"image": cfg.lr_image, "text": cfg.lr_text}
    for name, p in model.parameters().items():
        lr = rates.get(name.split(".", 1)[0], cfg.lr_projection)
        decay = 0.0 if name == "log_temperature" else cfg.weight_decay
        nn.adam_step(p, lr=lr, weight_decay=decay)
    return values


@dataclass
class EpochStats:
    epoch: int
    mean_total: float
    mean_infonce: float
    mean_negative: float
    val_zero_shot_accuracy: Optional[float]


@dataclass
class TrainReport:
    epochs: List[EpochStats] = field(default_factory=list)
    initial_neg_cosine: float = 0.0
    final_neg_cosine: float = 0.0
    config: Optional[dict] = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _load_samples(
    manifest: DatasetManifest,
    entries: Sequence[ManifestEntry],
    shape: Optional[Tuple[int, ...]] = None,
) -> np.ndarray:
    """The entries' 16-bit PGM samples as one [N, H, W] array, row i from entries[i].

    Every image must have ``shape`` (by default the first image's); another
    size raises TrainingError naming the file, before any image is used.
    """
    samples = None if shape is None else np.empty((len(entries), *shape), dtype=np.uint16)
    for row, entry in enumerate(entries):
        path = manifest.resolve_image(entry)
        image = read_pgm_samples(path)
        if samples is None:
            shape = image.shape
            samples = np.empty((len(entries), *shape), dtype=np.uint16)
        if image.shape != shape:
            raise TrainingError(
                f"{path}: image is {image.shape[1]}x{image.shape[0]}, "
                f"the size expected here is {shape[1]}x{shape[0]}"
            )
        samples[row] = image
    return samples


def matched_negative_cosine(
    model: DualEncoder,
    records: Sequence[OaScoreRecord],
    kinds: Sequence[TemplateKind],
    neg_records: Sequence[OaScoreRecord],
    vocab: Vocabulary,
    include_zero_grades: bool = True,
) -> float:
    """Mean cosine between matched positive/negative unprojected text embeddings."""

    def unit_rows(batch: Sequence[OaScoreRecord]) -> np.ndarray:
        texts = [render_caption(r, k, include_zero_grades) for r, k in zip(batch, kinds)]
        return nn.l2_normalize(evaluation.embed_texts(model, vocab, texts, project=False)).data

    return float(np.mean(np.sum(unit_rows(records) * unit_rows(neg_records), axis=1)))


def _probe_set(
    manifest: DatasetManifest, cfg: TrainConfig, limit: int = 256
) -> Tuple[List[OaScoreRecord], List[TemplateKind], List[OaScoreRecord]]:
    """Fixed records/kinds/negatives used to measure the pos/neg cosine before and after."""
    entries = manifest.split("train")[:limit]
    rng = make_rng(cfg.seed, "probe")
    records = [e.record for e in entries]
    kinds = [TEMPLATE_ORDER[int(rng.integers(0, len(TEMPLATE_ORDER)))] for _ in records]
    negatives = [
        perturb_negative(r, make_rng(cfg.seed, "probe-neg", r.id)) for r in records
    ]
    return records, kinds, negatives


# mallopt parameter numbers of glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Keep the memory a train step frees in the heap for the next step.

    Every step frees and re-allocates the same tens of MB of activations and
    gradients. glibc's default hands the heap top back to the OS whenever
    more than twice its largest recently freed block lies free there, and
    the next step page-faults it back in: about 2,400 minor faults per
    default-size step. Fixed thresholds keep the heap at its high-water mark
    (blocks under 32 MiB come from the heap; more than 1 GiB free at the top
    is still returned). Other C libraries have no mallopt and are left as
    they are.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 * 2**20)
    mallopt(_M_TRIM_THRESHOLD, 2**30)


def fit(
    manifest: DatasetManifest,
    cfg: TrainConfig,
    model_cfg: Optional[ModelConfig] = None,
    log=None,
) -> Tuple[DualEncoder, TrainReport]:
    """Train a dual encoder on the manifest's train split.

    Deterministic for a fixed seed in single-thread mode. Validation
    zero-shot accuracy is recorded every epoch when a val split exists.
    """
    _keep_freed_heap()
    train_entries = manifest.split("train")
    if not train_entries:
        raise ValueError("manifest has no train split")
    groups = signature_groups([e.record for e in train_entries])
    # epoch_plan keeps one item per signature and drops the partial last batch
    if cfg.epochs > 0 and len(groups) < cfg.batch_size:
        raise ValueError(
            f"train split has {len(groups)} distinct severity signatures, fewer than "
            f"batch_size {cfg.batch_size}: no batch would be trained"
        )
    vocab = build_vocabulary()

    # images stay 16-bit samples until a batch needs them, half the bytes of float32
    train_samples = _load_samples(manifest, train_entries)
    shape = train_samples.shape[1:]
    train_rows = {entry.record.id: row for row, entry in enumerate(train_entries)}
    val_entries = manifest.split("val")
    val_samples = _load_samples(manifest, val_entries, shape)
    val_ids = [entry.record.id for entry in val_entries]

    if model_cfg is None:
        model_cfg = ModelConfig(height=shape[0], width=shape[1])
    model = DualEncoder(model_cfg, seed=cfg.seed)

    probe_records, probe_kinds, probe_negs = _probe_set(manifest, cfg)
    report = TrainReport(config=cfg.to_json_dict())
    report.initial_neg_cosine = matched_negative_cosine(
        model, probe_records, probe_kinds, probe_negs, vocab, cfg.include_zero_grades
    )

    for epoch in range(cfg.epochs):
        plan = epoch_plan(groups, cfg, make_rng(cfg.seed, "plan", epoch))
        sums = np.zeros(3)
        for batch in plan:
            images = pgm_to_float(train_samples[[train_rows[item.record.id] for item in batch]])
            pos, neg = _batch_tokens(batch, cfg, vocab, model_cfg.max_len, epoch)
            losses = train_step(model, images, pos, neg, cfg)
            sums += np.asarray(losses)
        means = sums / max(len(plan), 1)
        val_acc = None
        if val_entries:
            val_images = dict(zip(val_ids, pgm_to_float(val_samples)))
            val_acc = evaluation.zero_shot_eval(model, val_entries, val_images, vocab).accuracy
        report.epochs.append(
            EpochStats(
                epoch=epoch,
                mean_total=float(means[0]),
                mean_infonce=float(means[1]),
                mean_negative=float(means[2]),
                val_zero_shot_accuracy=val_acc,
            )
        )
        if log is not None:
            log(
                f"epoch {epoch}: total={means[0]:.4f} infonce={means[1]:.4f} "
                f"negative={means[2]:.4f} val_acc={val_acc}"
            )

    report.final_neg_cosine = matched_negative_cosine(
        model, probe_records, probe_kinds, probe_negs, vocab, cfg.include_zero_grades
    )
    return model, report


# --- checkpoint serialization ------------------------------------------------


@dataclass
class Checkpoint:
    model: DualEncoder
    train_config: TrainConfig
    epoch: int


def _checkpoint_slots(cfg: ModelConfig) -> List[Tuple[str, str, str, Tuple[int, ...]]]:
    """(slot name, parameter name, attribute, shape) per payload slot, in file order.

    Every parameter's value first, then each parameter's Adam m and v in turn.
    """
    shapes = parameter_shapes(cfg)
    slots = [(name, name, "data", shape) for name, shape in shapes.items()]
    for name, shape in shapes.items():
        slots += [(f"optim.{name}.{attr}", name, attr, shape) for attr in ("m", "v")]
    return slots


def save_checkpoint(path: str, model: DualEncoder, cfg: TrainConfig, epoch: int) -> None:
    """Write the checkpoint atomically, in the format the module docstring gives."""
    params = model.parameters()
    header = {
        "epoch": epoch,
        "model": model.cfg.to_json_dict(),
        "steps": {name: p.t for name, p in params.items()},
        "train": cfg.to_json_dict(),
    }
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [struct.pack("<I", len(encoded)), encoded]
    parts += [
        np.ascontiguousarray(getattr(params[name], attr), dtype="<f4")
        for _slot, name, attr, _shape in _checkpoint_slots(model.cfg)
    ]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    write_atomic(path, b"".join([CHECKPOINT_MAGIC, *parts, struct.pack("<I", crc)]))


def _read_checkpoint(path: str):
    """Verify the file; returns (model config, train config, epoch, step counts,
    and each payload slot's name and read-only ``<f4`` array, in file order)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(CHECKPOINT_MAGIC) + 8:
        raise CheckpointError("truncated checkpoint")
    magic = blob[: len(CHECKPOINT_MAGIC)]
    if magic != CHECKPOINT_MAGIC:
        numbered = magic.startswith(b"OAVL") and magic[4:].isdigit()
        found = f"format version {int(magic[4:])}" if numbered else f"magic {magic!r}"
        raise CheckpointError(
            f"unsupported checkpoint {found}: this build reads format version "
            f"{int(CHECKPOINT_MAGIC[4:])}"
        )
    (header_len,) = struct.unpack_from("<I", blob, 8)
    payload_at = 12 + header_len
    if payload_at > len(blob) - 4:
        raise CheckpointError("truncated checkpoint")
    if zlib.crc32(memoryview(blob)[8:-4]) != struct.unpack_from("<I", blob, len(blob) - 4)[0]:
        raise CheckpointError("checksum mismatch: checkpoint is corrupted")
    try:
        header = json.loads(blob[12:payload_at].decode("utf-8"))
        model_cfg = ModelConfig.from_json_dict(header["model"])
        train_cfg = TrainConfig.from_json_dict(header["train"])
        epoch, steps = header["epoch"], header["steps"]
        if not is_json_type(epoch, int) or epoch < 0:
            raise ValueError(f"epoch must be a whole number >= 0, got {epoch!r}")
        if not isinstance(steps, dict) or steps.keys() != parameter_shapes(model_cfg).keys():
            raise ValueError("steps must map each parameter name to its step count")
        for name, t in steps.items():
            if not is_json_type(t, int) or t < 0:
                raise ValueError(f"step count of {name!r} must be a whole number >= 0, got {t!r}")
    except (ValueError, TypeError, KeyError, RecursionError) as exc:
        raise CheckpointError(f"malformed checkpoint config: {exc!r}") from exc
    # the config fixes the payload's size, so a header declaring huge layers
    # fails here, before anything is allocated
    slots = _checkpoint_slots(model_cfg)
    ends = list(accumulate((math.prod(shape) for *_, shape in slots), initial=0))
    if payload_at + 4 * ends[-1] != len(blob) - 4:
        raise CheckpointError(
            f"checkpoint payload holds {len(blob) - 4 - payload_at} bytes, "
            f"its config implies {4 * ends[-1]}"
        )
    flat = np.frombuffer(blob, dtype="<f4", count=ends[-1], offset=payload_at)
    arrays = {slot: flat[a:b].reshape(shape)
              for (slot, *_, shape), a, b in zip(slots, ends, ends[1:])}
    return model_cfg, train_cfg, epoch, steps, arrays


def load_checkpoint(path: str) -> Checkpoint:
    """Read and verify a checkpoint: its magic, CRC, header and payload size,
    and that its config's vocabulary is the caption grammar's."""
    model_cfg, train_cfg, epoch, steps, arrays = _read_checkpoint(path)
    # token indices come from this build's caption vocabulary
    if model_cfg.pad_index != Vocabulary.pad_index or model_cfg.vocab_size != VOCAB_SIZE:
        raise CheckpointError(
            f"checkpoint config (vocab_size {model_cfg.vocab_size}, pad_index "
            f"{model_cfg.pad_index}) does not match the caption vocabulary "
            f"(vocab_size {VOCAB_SIZE}, pad_index {Vocabulary.pad_index})"
        )
    f32 = {slot: a.astype(np.float32) for slot, a in arrays.items()}  # one writable copy each
    params = {
        name: nn.Parameter(f32[name], f32[f"optim.{name}.m"], f32[f"optim.{name}.v"], t)
        for name, t in steps.items()
    }
    return Checkpoint(DualEncoder(model_cfg, params=params), train_cfg, epoch)


def checkpoint_tensor_listing(path: str) -> List[Tuple[str, Tuple[int, ...], int]]:
    """(slot name, shape, CRC32 of its float32 bytes) per payload slot, in
    file order; verifies the file."""
    *_, arrays = _read_checkpoint(path)
    return [(slot, a.shape, zlib.crc32(a)) for slot, a in arrays.items()]
