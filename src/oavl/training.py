"""Deterministic training loop and checkpointing.

Each epoch keeps one representative per severity signature (so a batch
never contrasts two items with identical scores), samples one template
style per item, optionally shuffles its sentences, pairs it with a freshly
perturbed negative caption, and applies per-group Adam learning rates.
"""

from __future__ import annotations

import ctypes
import io
import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import evaluation, nn
from .captions import (
    TEMPLATE_ORDER,
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

CHECKPOINT_MAGIC = b"OAVL0001"
CHECKPOINT_VERSION = 1
_DTYPE_F32 = 0
_DTYPE_U8 = 1


class TrainingError(RuntimeError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass
class TrainConfig:
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

    def validate(self) -> "TrainConfig":
        """Check every field's type and range; a checkpoint's config arrives as JSON."""
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
        return self

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TrainConfig":
        check_json_keys(cls, obj)
        return cls(**obj).validate()


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
    size raises TrainingError naming the file, before any step runs.
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
                f"the train split's first is {shape[1]}x{shape[0]}"
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
    cfg.validate()
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
        model_cfg = ModelConfig(height=shape[0], width=shape[1], vocab_size=len(vocab))
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


def _serialize_tensor(out: io.BytesIO, name: str, payload: bytes, dtype: int, dims: Sequence[int]) -> None:
    encoded = name.encode("utf-8")
    out.write(struct.pack("<H", len(encoded)))
    out.write(encoded)
    out.write(struct.pack("<BB", dtype, len(dims)))
    for dim in dims:
        out.write(struct.pack("<I", dim))
    out.write(payload)


# (tensor-name suffix, Parameter attribute) of each parameter's Adam state;
# the step count t is stored as a float32 tensor of shape (1,)
_OPTIM_SLOTS = ((".m", "m"), (".v", "v"), (".t", "t"))


def _checkpoint_slots(cfg: ModelConfig) -> List[Tuple[str, str, str, Tuple[int, ...]]]:
    """(tensor name, parameter name, attribute, dims) per saved slot, in file order.

    Every parameter's value first, then each parameter's Adam state in turn.
    """
    shapes = parameter_shapes(cfg)
    slots = [(name, name, "data", shape) for name, shape in shapes.items()]
    for name, shape in shapes.items():
        slots += [
            (f"optim.{name}{suffix}", name, attr, (1,) if attr == "t" else shape)
            for suffix, attr in _OPTIM_SLOTS
        ]
    return slots


def save_checkpoint(path: str, model: DualEncoder, cfg: TrainConfig, epoch: int) -> None:
    """Write the binary checkpoint atomically: magic, version, tensors, payload CRC32."""
    params = model.parameters()
    tensors = [
        (key, np.asarray(getattr(params[name], attr), dtype="<f4").tobytes(), _DTYPE_F32, dims)
        for key, name, attr, dims in _checkpoint_slots(model.cfg)
    ]
    meta = {
        "epoch": epoch,
        "model": model.cfg.to_json_dict(),
        "train": cfg.to_json_dict(),
    }
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tensors.append(("meta.config_json", meta_bytes, _DTYPE_U8, (len(meta_bytes),)))

    out = io.BytesIO()
    out.write(CHECKPOINT_MAGIC)
    out.write(struct.pack("<I", CHECKPOINT_VERSION))
    out.write(struct.pack("<I", len(tensors)))
    crc = 0
    for name, payload, dtype, dims in tensors:
        _serialize_tensor(out, name, payload, dtype, dims)
        crc = zlib.crc32(payload, crc)
    out.write(struct.pack("<I", crc & 0xFFFFFFFF))
    write_atomic(path, out.getvalue())


def _read_checkpoint_tensors(path: str) -> Dict[str, Tuple[int, Tuple[int, ...], bytes]]:
    """Parse and CRC-verify the file; returns tensors by name, in file order."""
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size

        def read(count: int) -> bytes:
            # checked before reading, so corrupt dims never reach read()
            if count > file_size - fh.tell():
                raise CheckpointError("truncated checkpoint")
            return fh.read(count)

        magic = read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"unsupported checkpoint magic {magic!r}")
        (version,) = struct.unpack("<I", read(4))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (count,) = struct.unpack("<I", read(4))
        tensors: Dict[str, Tuple[int, Tuple[int, ...], bytes]] = {}
        crc = 0
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read(2))
            try:
                name = read(name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError("tensor name is not valid UTF-8") from exc
            dtype, rank = struct.unpack("<BB", read(2))
            dims = tuple(struct.unpack("<I", read(4))[0] for _ in range(rank))
            if dtype == _DTYPE_F32:
                payload = read(math.prod(dims) * 4)
            elif dtype == _DTYPE_U8:
                payload = read(math.prod(dims))
            else:
                raise CheckpointError(f"unknown tensor dtype {dtype}")
            crc = zlib.crc32(payload, crc)
            if name in tensors:
                raise CheckpointError(f"tensor {name!r} is stored twice")
            tensors[name] = (dtype, dims, payload)
        (stored_crc,) = struct.unpack("<I", read(4))
        if stored_crc != crc & 0xFFFFFFFF:
            raise CheckpointError("checksum mismatch: checkpoint is corrupted")
    return tensors


def load_checkpoint(path: str) -> Checkpoint:
    """Read and verify a checkpoint; rejects bad magic, version, or checksum,
    a tensor the config does not declare, and a config whose vocabulary is
    not the caption grammar's."""
    tensors = _read_checkpoint_tensors(path)
    if "meta.config_json" not in tensors:
        raise CheckpointError("checkpoint is missing its config")
    try:
        meta = json.loads(tensors["meta.config_json"][2].decode("utf-8"))
        model_cfg = ModelConfig.from_json_dict(meta["model"])
        train_cfg = TrainConfig.from_json_dict(meta["train"])
        epoch = meta["epoch"]
        if not is_json_type(epoch, int) or epoch < 0:
            raise ValueError(f"epoch must be a whole number >= 0, got {epoch!r}")
    except (ValueError, TypeError, KeyError, RecursionError) as exc:
        raise CheckpointError(f"malformed checkpoint config: {exc!r}") from exc
    # every stored shape is checked against the config before the model is
    # built, so a config declaring a huge layer allocates nothing
    slots = _checkpoint_slots(model_cfg)
    for key, _name, _attr, dims in slots:
        if key not in tensors:
            raise CheckpointError(f"checkpoint is missing tensor {key!r}")
        dtype, stored_dims, _payload = tensors[key]
        if dtype != _DTYPE_F32 or stored_dims != dims:
            raise CheckpointError(f"tensor {key!r} has unexpected dtype/shape")
    declared = {key for key, _name, _attr, _dims in slots} | {"meta.config_json"}
    for key in tensors:
        if key not in declared:
            raise CheckpointError(f"checkpoint holds undeclared tensor {key!r}")
    # token indices come from this build's caption vocabulary
    vocab_size = len(build_vocabulary())
    if model_cfg.pad_index != Vocabulary.pad_index or model_cfg.vocab_size != vocab_size:
        raise CheckpointError(
            f"checkpoint config (vocab_size {model_cfg.vocab_size}, pad_index "
            f"{model_cfg.pad_index}) does not match the caption vocabulary "
            f"(vocab_size {vocab_size}, pad_index {Vocabulary.pad_index})"
        )
    model = DualEncoder(model_cfg, seed=train_cfg.seed)
    for key, name, attr, dims in slots:
        values = np.frombuffer(tensors[key][2], dtype="<f4").reshape(dims).astype(np.float32)
        if attr == "t":
            step = float(values[0])
            if not (math.isfinite(step) and step >= 0 and step.is_integer()):
                raise CheckpointError(
                    f"tensor {key!r} holds step count {step!r}, not a whole number >= 0"
                )
            values = int(step)
        setattr(model.param(name), attr, values)
    return Checkpoint(model=model, train_config=train_cfg, epoch=epoch)


def checkpoint_tensor_listing(path: str) -> List[Tuple[str, Tuple[int, ...], int]]:
    """(name, dims, payload CRC32) per tensor, in file order; verifies the file."""
    tensors = _read_checkpoint_tensors(path)
    return [
        (name, dims, zlib.crc32(payload) & 0xFFFFFFFF)
        for name, (_dtype, dims, payload) in tensors.items()
    ]
