"""Evaluation: zero-shot grading, caption retrieval with BLEU-4, saliency.

All routines treat the model as frozen. Zero-shot builds a small prompt
ensemble per KL class and predicts by cosine against the projected image
embedding; retrieval ranks a caption pool the same way; Grad-CAM weights
the final conv activations by the pooled gradient of the image-prompt
cosine, which it computes in closed form through the projection head
without autodiff.
"""

from __future__ import annotations

import functools
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import nn
from .captions import TemplateKind, Vocabulary, render_caption, split_text, tokenize
from .model import DualEncoder
from .scores import GRADE_MAX, grade_word
from .seeding import make_rng
from .synth import GroundTruthRegion, ManifestEntry, write_atomic, write_pgm

N_CLASSES = GRADE_MAX + 1


@dataclass
class SaliencyMap:
    values: np.ndarray  # [height, width] in [0, 1]
    prompt: str
    image_id: str


@dataclass
class ZeroShotResult:
    accuracy: float
    confusion: np.ndarray  # [true KL, predicted KL]
    per_image: List[dict] = field(default_factory=list)


@dataclass
class RetrievalResult:
    mean_top1_bleu4: float
    random_baseline_bleu4: float
    hit_at: Dict[int, float] = field(default_factory=dict)
    per_image: List[dict] = field(default_factory=list)


@dataclass
class EvalReport:
    zero_shot: Optional[ZeroShotResult] = None
    retrieval: Optional[RetrievalResult] = None
    saliency: List[Tuple[SaliencyMap, np.ndarray]] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        out: dict = {}
        if self.zero_shot is not None:
            total = int(self.zero_shot.confusion.sum())
            out["zero_shot"] = {
                "accuracy": self.zero_shot.accuracy,
                "total": total,
                "per_class_counts": self.zero_shot.confusion.sum(axis=1).astype(int).tolist(),
                "per_image": self.zero_shot.per_image,
            }
        if self.retrieval is not None:
            out["retrieval"] = {
                "mean_top1_bleu4": self.retrieval.mean_top1_bleu4,
                "random_baseline_bleu4": self.retrieval.random_baseline_bleu4,
                "hit_at": {str(k): v for k, v in self.retrieval.hit_at.items()},
                "per_image": self.retrieval.per_image,
            }
        return out


# --- batched embedding ----------------------------------------------------------

# Rows per encoder call when embedding a list; the graph of each batch is
# dropped as soon as its embeddings are read out.
EMBED_BATCH = 64


def embed_images(model: DualEncoder, images: Sequence[np.ndarray]) -> np.ndarray:
    """Projected embeddings [N, proj_dim] of [H, W] images."""
    chunks = [
        model.project(model.encode_image(np.stack(images[s : s + EMBED_BATCH])), "image").data
        for s in range(0, len(images), EMBED_BATCH)
    ]
    return np.concatenate(chunks) if chunks else np.zeros((0, model.cfg.proj_dim), model.dtype)


def embed_texts(
    model: DualEncoder, vocab: Vocabulary, texts: Sequence[str], project: bool = True
) -> np.ndarray:
    """Text embeddings: projected [N, proj_dim], or unprojected [N, embed_dim]."""
    if not texts:
        width = model.cfg.proj_dim if project else model.cfg.embed_dim
        return np.zeros((0, width), model.dtype)
    tokens = np.stack([tokenize(t, vocab, model.cfg.max_len) for t in texts])
    chunks = []
    for s in range(0, len(tokens), EMBED_BATCH):
        embedded = model.encode_text(tokens[s : s + EMBED_BATCH])
        chunks.append((model.project(embedded, "text") if project else embedded).data)
    return np.concatenate(chunks)


# --- zero-shot classification -----------------------------------------------


def class_prompts(kl: int, side: str) -> List[str]:
    """The prompt ensemble naming one KL class."""
    word = grade_word(kl)
    return [
        f"{word} osteoarthritis.",
        f"Image shows {word} osteoarthritis in the {side} knee.",
    ]


def class_prompt_vectors(model: DualEncoder, vocab: Vocabulary, side: str) -> np.ndarray:
    """[5, proj_dim] unit vectors: per class, averaged projected prompt embeddings."""
    prompts = [p for kl in range(N_CLASSES) for p in class_prompts(kl, side)]
    projected = embed_texts(model, vocab, prompts).reshape(N_CLASSES, -1, model.cfg.proj_dim)
    return np.stack([m / (np.linalg.norm(m) + 1e-8) for m in projected.mean(axis=1)])


def classify_image_embeddings(image_proj: np.ndarray, class_vectors: np.ndarray) -> np.ndarray:
    """Argmax cosine per row; ties resolve to the lower class index."""
    sims = image_proj @ class_vectors.T
    return np.argmax(sims, axis=1)


def zero_shot_eval(
    model: DualEncoder,
    entries: Sequence[ManifestEntry],
    images: Dict[str, np.ndarray],
    vocab: Vocabulary,
) -> ZeroShotResult:
    """Confusion matrix and accuracy over a split."""
    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    per_image = []
    class_vectors = {side: class_prompt_vectors(model, vocab, side) for side in ("left", "right")}
    proj = embed_images(model, [images[e.record.id] for e in entries])
    for row, entry in enumerate(entries):
        vectors = class_vectors[entry.record.side]
        pred = int(classify_image_embeddings(proj[row : row + 1], vectors)[0])
        confusion[entry.record.kl, pred] += 1
        per_image.append({"id": entry.record.id, "kl": entry.record.kl, "predicted": pred})
    total = confusion.sum()
    accuracy = float(np.trace(confusion) / total) if total else 0.0
    return ZeroShotResult(accuracy=accuracy, confusion=confusion, per_image=per_image)


# --- retrieval ----------------------------------------------------------------


def retrieve_topk(
    image_proj: np.ndarray, pool_proj: np.ndarray, k: int
) -> np.ndarray:
    """Indices of the k most similar pool captions, stable on ties."""
    if pool_proj.shape[0] == 0:
        raise ValueError("empty caption pool")
    if k > pool_proj.shape[0]:
        raise ValueError("k exceeds pool size")
    sims = pool_proj @ image_proj
    return np.argsort(-sims, kind="stable")[:k]


def bleu4(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """BLEU-4 with clipped modified precisions, no smoothing.

    Geometric mean of p1..p4 times the brevity penalty; any pn == 0 gives 0.
    """
    if not candidate or not reference:
        raise ValueError("empty candidate or reference")
    log_sum = 0.0
    for n in range(1, 5):
        cand_counts = Counter(tuple(candidate[i : i + n]) for i in range(len(candidate) - n + 1))
        ref_counts = Counter(tuple(reference[i : i + n]) for i in range(len(reference) - n + 1))
        total = sum(cand_counts.values())
        if total == 0:
            return 0.0
        clipped = sum(min(count, ref_counts[g]) for g, count in cand_counts.items())
        if clipped == 0:
            return 0.0
        log_sum += math.log(clipped / total)
    c, r = len(candidate), len(reference)
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum / 4.0)


def bleu4_pairs(
    pool_words: Sequence[Sequence[str]], pairs: Sequence[Tuple[int, int]]
) -> List[float]:
    """``bleu4(pool_words[c], pool_words[r])`` for each pair (c, r), bit for bit.

    Words are mapped to ids once over the pool. Each order's n-grams are then
    interned in numpy: an n-gram's key is its (n-1)-gram prefix's id times
    the word count plus its last word's id (below tokens * words, so it
    fits int64), and np.unique numbers the keys. One bincount gives the
    count matrix [pool, distinct n-grams], so the clipped counts of every
    pair come from one element-wise minimum; the scores then follow bleu4's
    own log/exp sequence.
    """
    if any(not pool_words[c] or not pool_words[r] for c, r in pairs):
        raise ValueError("empty candidate or reference")
    cand = np.asarray([c for c, _ in pairs], dtype=np.intp)
    ref = np.asarray([r for _, r in pairs], dtype=np.intp)
    words: Dict[str, int] = {}
    ids = np.asarray([words.setdefault(w, len(words)) for ws in pool_words for w in ws], np.int64)
    lengths = np.asarray([len(ws) for ws in pool_words], np.intp)
    rows = np.repeat(np.arange(len(pool_words)), lengths)
    # tokens from each position to the end of its caption, itself included
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(ids))
    starts = np.arange(len(ids))  # positions that begin an n-gram
    grams, width = ids, len(words)  # each n-gram's id, and how many ids there are
    clipped = []
    for n in range(1, 5):
        if n > 1:
            inside = left[starts] >= n
            starts = starts[inside]
            keys = grams[inside] * len(words) + ids[starts + n - 1]
            distinct, grams = np.unique(keys, return_inverse=True)
            width = len(distinct)
        flat = rows[starts] * width + grams
        # one caption's count of one n-gram fits int32, which gathers and
        # reduces several times faster than int64; the sum is taken in int64
        counts = np.bincount(flat, minlength=len(pool_words) * width).astype(np.int32)
        counts = counts.reshape(len(pool_words), width)
        clipped.append(np.minimum(counts[cand], counts[ref]).sum(axis=1).tolist())
    return [
        _bleu4_from_counts(hits, len(pool_words[c]), len(pool_words[r]))
        for (c, r), hits in zip(pairs, zip(*clipped))
    ]


def _bleu4_from_counts(clipped: Sequence[int], c: int, r: int) -> float:
    """bleu4's arithmetic from the clipped n-gram counts (n = 1..4) and the two lengths.

    A candidate shorter than n has no n-grams, so its clipped count is 0 too.
    """
    log_sum = 0.0
    for n, hits in enumerate(clipped, start=1):
        if hits == 0:
            return 0.0
        log_sum += math.log(hits / (c - n + 1))
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum / 4.0)


def retrieval_eval(
    model: DualEncoder,
    entries: Sequence[ManifestEntry],
    images: Dict[str, np.ndarray],
    vocab: Vocabulary,
    k: int = 10,
    baseline_draws: int = 1000,
    seed: int = 0,
) -> RetrievalResult:
    """Image->caption retrieval over the split's location-template captions.

    The pool holds one caption per entry; top-1 quality is BLEU-4 against
    the query's own caption, compared to a seeded uniform-draw baseline.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if baseline_draws < 1:
        raise ValueError(f"baseline_draws must be at least 1, got {baseline_draws}")
    pool_texts = [render_caption(e.record, TemplateKind.LOCATION) for e in entries]
    pool_words = [split_text(t) for t in pool_texts]
    pool_proj = embed_texts(model, vocab, pool_texts)
    image_proj = embed_images(model, [images[e.record.id] for e in entries])

    k = min(k, len(entries))
    hits = {kk: 0 for kk in (1, 5, 10) if kk <= k}
    pairs = []  # (candidate, reference) pool indices: top-1 per query, then baseline draws
    for i in range(len(entries)):
        ranked = retrieve_topk(image_proj[i], pool_proj, k)
        pairs.append((int(ranked[0]), i))
        for kk in hits:
            if i in ranked[:kk]:
                hits[kk] += 1
    rng = make_rng(seed, "retrieval-baseline")
    for _ in range(baseline_draws):
        i = int(rng.integers(0, len(entries)))
        j = int(rng.integers(0, len(entries)))
        pairs.append((j, i))

    scores = bleu4_pairs(pool_words, pairs)
    top1_scores, baseline = scores[: len(entries)], scores[len(entries) :]
    per_image = [
        {"id": entry.record.id, "top1_id": entries[top1].record.id, "top1_bleu4": score}
        for entry, (top1, _), score in zip(entries, pairs, top1_scores)
    ]
    return RetrievalResult(
        mean_top1_bleu4=float(np.mean(top1_scores)),
        random_baseline_bleu4=float(np.mean(baseline)),
        hit_at={kk: hits[kk] / len(entries) for kk in hits},
        per_image=per_image,
    )


# --- Grad-CAM ------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _resize_taps(src: int, dst: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source indices (i0, i1) and weight of i1 for each of dst half-pixel
    centers over src samples. Cached and shared, so the arrays are read-only."""
    pos = (np.arange(dst) + 0.5) * (src / dst) - 0.5
    i0 = np.clip(np.floor(pos), 0, src - 1).astype(int)
    i1 = np.clip(i0 + 1, 0, src - 1)
    weight = np.clip(pos - i0, 0.0, 1.0)
    for taps in (i0, i1, weight):
        taps.flags.writeable = False
    return i0, i1, weight


def _bilinear_resize(values: np.ndarray, height: int, width: int) -> np.ndarray:
    """Bilinear upsample with half-pixel centers.

    Separable: each source row is interpolated along x once, then output
    rows are interpolated along y from those. Every output pixel gets the
    same products, summed in the same order, as the four-corner formula
    top * (1 - wy) + bottom * wy with top and bottom interpolated along x.
    """
    src_h, src_w = values.shape
    y0, y1, wy = _resize_taps(src_h, height)
    x0, x1, wx = _resize_taps(src_w, width)
    rows = values[:, x0] * (1 - wx) + values[:, x1] * wx  # [src_h, width]
    wy = wy[:, None]
    return rows[y0] * (1 - wy) + rows[y1] * wy


def grad_cam(
    model: DualEncoder,
    image: np.ndarray,
    prompt: str,
    vocab: Vocabulary,
    image_id: str = "",
) -> SaliencyMap:
    """Saliency for the cosine between the image and a text prompt.

    Channel weights are the spatial mean of the target's gradient on the
    final conv activations; the relu-ed weighted sum is upsampled to the
    input size and normalized to [0, 1] (an all-zero map stays zero).
    Behind a global mean pool that gradient is the same at every position,
    so it has a closed form (Grad-CAM reduces to CAM): plain numpy runs the
    pooling and projection head forward and back, with the float ops and
    order of the autodiff graph, so maps match its bits. No graph is swept
    and no parameter's .grad is touched.
    """
    words = split_text(prompt)
    if not words:
        raise ValueError(f"prompt {prompt!r} has no tokens")
    unknown = [w for w in words if vocab.index(w) == vocab.unk_index]
    if unknown:
        raise ValueError(f"prompt tokenization failure: unknown token {unknown[0]!r}")
    reserved = [w for w in words if vocab.index(w) == vocab.pad_index]
    if reserved:
        raise ValueError(f"prompt tokenization failure: reserved token {reserved[0]!r}")
    if len(words) > model.cfg.max_len:
        raise ValueError(
            f"prompt has {len(words)} tokens, more than the model's max_len {model.cfg.max_len}"
        )
    prompt_vec = embed_texts(model, vocab, [prompt])[0]

    acts = model.image_features(image[None]).data  # [1, h, w, C]
    _, h, w, channels = acts.shape
    weight = model.param("proj.image.weight").data
    # the image head (mean pool, linear, l2_normalize) and its gradient for
    # the cosine with the prompt, in the ops and order of nn's graph
    scale = np.asarray(1.0 / (h * w), dtype=model.dtype)  # mean_pool's factor
    pooled = acts.sum(axis=(1, 2)) * scale
    z = pooled @ weight + model.param("proj.image.bias").data
    d_z = nn.l2_normalize_grad(z, prompt_vec[None, :].astype(model.dtype))
    d_pooled = (d_z @ weight.T) * scale
    # the mean of hw equal values need not be that value (the running sum
    # rounds), and the sum's order follows the layout, so the mean reads a
    # C-ordered [h, w, C] copy of the gradient, as the graph's sweep left it
    d_acts = np.ascontiguousarray(np.broadcast_to(d_pooled, (h, w, channels)))
    weights = d_acts.mean(axis=(0, 1))

    activations = acts[0]  # [h, w, C]
    raw = np.maximum((activations * weights).sum(axis=-1), 0.0)
    resized = _bilinear_resize(raw, model.cfg.height, model.cfg.width)
    resized = np.maximum(resized, 0.0)
    peak = resized.max()
    if peak > 0:
        resized = resized / peak
    return SaliencyMap(values=resized.astype(np.float64), prompt=prompt, image_id=image_id)


def localization_score(saliency: SaliencyMap, region: GroundTruthRegion) -> float:
    """Saliency mass fraction inside the region over the region's area fraction.

    1.0 means no better than uniform; an identically zero map scores 1.0.
    """
    mask = region.mask
    if not mask.any():
        raise ValueError("empty ground-truth mask")
    total = float(saliency.values.sum())
    if total == 0.0:
        return 1.0
    inside = float(saliency.values[mask].sum())
    area_fraction = float(mask.mean())
    return (inside / total) / area_fraction


# --- report export --------------------------------------------------------------


def export_report(report: EvalReport, out_dir: str) -> None:
    """Write report.json (sorted keys), confusion.csv, and saliency overlays."""
    os.makedirs(out_dir, exist_ok=True)
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    write_atomic(os.path.join(out_dir, "report.json"), text.encode("utf-8"))
    if report.zero_shot is not None:
        lines = ["true\\pred," + ",".join(str(k) for k in range(N_CLASSES)) + "\n"]
        for true_k in range(N_CLASSES):
            row = ",".join(str(int(v)) for v in report.zero_shot.confusion[true_k])
            lines.append(f"{true_k},{row}\n")
        write_atomic(os.path.join(out_dir, "confusion.csv"), "".join(lines).encode("utf-8"))
    if report.saliency:
        saliency_dir = os.path.join(out_dir, "saliency")
        os.makedirs(saliency_dir, exist_ok=True)
        for saliency, image in report.saliency:
            blended = 0.5 * image + 0.5 * saliency.values
            write_pgm(os.path.join(saliency_dir, f"{saliency.image_id}.pgm"), blended)
