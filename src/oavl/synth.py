"""Procedural knee-like images with known ground truth.

Every scored feature perturbs a fixed piece of geometry (gap width, spurs,
strip brightness, band thickness, dark disks, speckles), so the grades in a
record are statistically recoverable from the rendered pixels. Each
feature's ground-truth region for saliency scoring is its pre-shift mask
dilated by the largest jitter shift: a superset of the pixels it changed.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .configs import check_field_types
from .scores import FEATURE_BY_NAME, OaScoreRecord, ScoreValidationError, sample_record
from .seeding import derive_seed, make_rng

SPLITS = ("train", "val", "test")
DEFAULT_SPLIT_RATIOS = (0.81, 0.09, 0.10)
DEFAULT_DATASET_SIZE = 2472

# Intensities of the 64x64 reference layout.
_BACKGROUND = 0.05
_BAND = 0.55
_BRIGHT = 0.9
_CYST_DELTA = -0.5
_SCLEROSIS_DELTA = 0.12
_SPECKLE_PROB = 0.2


class SynthConfigError(ValueError):
    pass


class PgmError(ValueError):
    """Malformed PGM file; the message names the file."""


class ManifestError(ValueError):
    """Malformed manifest content; carries the offending line number when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class SynthConfig:
    """Frozen; each field's type and range are checked when built."""
    height: int = 64
    width: int = 64
    noise_sigma: float = 0.03
    max_shift: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self, SynthConfigError)
        if self.height < 32 or self.width < 32:
            raise SynthConfigError("height and width must be at least 32")
        if not np.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise SynthConfigError(
                f"noise_sigma must be finite and non-negative, got {self.noise_sigma!r}"
            )
        if self.max_shift < 0:
            raise SynthConfigError("max_shift must be non-negative")
        # the largest shift that keeps the femur and tibia bands inside the
        # image, and the column between the medial and lateral halves too
        geo = _geometry(self.height, self.width)
        limit = min(geo.femur_top, self.height - 1 - geo.tibia_bottom, (self.width - 1) // 2)
        if self.max_shift > limit:
            raise SynthConfigError(
                f"max_shift {self.max_shift} moves the knee out of a "
                f"{self.height}x{self.width} image; at most {limit}"
            )


@dataclass(frozen=True)
class _Geometry:
    """Reference layout scaled from the 64x64 constants; rows/cols inclusive."""

    height: int
    width: int
    femur_top: int
    femur_bottom: int
    tibia_top: int
    tibia_bottom: int
    half_cols: Tuple[Tuple[int, int], Tuple[int, int]]  # (medial, lateral) in canonical layout
    jsn_step: int
    attrition_step: int
    spur_width: int
    spur_height: int
    sclerosis_strip: int
    cyst_radius: int

    def tibia_top_for(self, jsn_grade: int) -> int:
        return self.tibia_top - self.jsn_step * jsn_grade

    def tibia_bottom_for(self, attrition_grade: int) -> int:
        return self.tibia_bottom - self.attrition_step * attrition_grade


@functools.lru_cache(maxsize=64)
def _geometry(height: int, width: int) -> _Geometry:
    sy = height / 64.0
    sx = width / 64.0
    mid = width // 2
    return _Geometry(
        height=height,
        width=width,
        femur_top=round(14 * sy),
        femur_bottom=round(25 * sy),
        tibia_top=round(38 * sy),
        tibia_bottom=round(49 * sy),
        half_cols=((0, mid - 1), (mid, width - 1)),
        jsn_step=max(1, round(2 * sy)),
        attrition_step=max(1, round(1 * sy)),
        spur_width=max(1, round(2 * sx)),
        spur_height=max(1, round(3 * sy)),
        sclerosis_strip=max(1, round(4 * sy)),
        cyst_radius=max(1, round(3 * (sy + sx) / 2)),
    )


# Canonical layout renders the medial compartments on the left half; images
# for side == "right" are the horizontal mirror of that layout.
_HALF_OF = {"fm": 0, "tm": 0, "jm": 0, "fl": 1, "tl": 1, "jl": 1}
_HALF_SUFFIX = ("m", "l")


def _disk_mask(height: int, width: int, cy: int, cx: int, radius: int) -> np.ndarray:
    yy, xx = np.ogrid[:height, :width]
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2


def _rect_mask(geo: _Geometry, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """Boolean [height, width] mask of rows r0..r1 and columns c0..c1, inclusive."""
    m = np.zeros((geo.height, geo.width), dtype=bool)
    m[r0 : r1 + 1, c0 : c1 + 1] = True
    return m


def _canonical_render(
    record: OaScoreRecord, geo: _Geometry
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Noise-free, shift-free canonical image plus each finding's pixel mask.

    Masks are keyed "feature/compartment". Chondrocalcinosis speckles are
    drawn from the render seed, so its joint-gap masks are returned but left
    for :func:`render_image` to fill.
    """
    h, w = geo.height, geo.width
    img = np.full((h, w), _BACKGROUND, dtype=np.float64)
    masks: Dict[str, np.ndarray] = {}

    img[geo.femur_top : geo.femur_bottom + 1, :] = _BAND

    tibia_tops = {}
    for half in (0, 1):
        c0, c1 = geo.half_cols[half]
        suffix = _HALF_SUFFIX[half]
        jsn_g = record.jsn["j" + suffix]
        attr_g = record.attrition["t" + suffix]
        top = geo.tibia_top_for(jsn_g)
        bottom = geo.tibia_bottom_for(attr_g)
        tibia_tops[half] = top
        img[top : bottom + 1, c0 : c1 + 1] = _BAND
        if jsn_g > 0:
            masks["jsn/j" + suffix] = _rect_mask(geo, top, geo.tibia_top - 1, c0, c1)
        if attr_g > 0:
            masks["attrition/t" + suffix] = _rect_mask(geo, bottom + 1, geo.tibia_bottom, c0, c1)
        if record.chondrocalcinosis["j" + suffix]:
            gap = _rect_mask(geo, geo.femur_bottom + 1, top - 1, c0, c1)
            masks["chondrocalcinosis/j" + suffix] = gap

    for comp, g in record.sclerosis.items():
        if g == 0:
            continue
        half = _HALF_OF[comp]
        c0, c1 = geo.half_cols[half]
        if comp.startswith("f"):
            r0 = geo.femur_bottom - geo.sclerosis_strip + 1
            r1 = geo.femur_bottom
        else:
            r0 = tibia_tops[half]
            r1 = r0 + geo.sclerosis_strip - 1
        img[r0 : r1 + 1, c0 : c1 + 1] += _SCLEROSIS_DELTA * g
        masks["sclerosis/" + comp] = _rect_mask(geo, r0, r1, c0, c1)

    for comp, g in record.osteophytes.items():
        if g == 0:
            continue
        half = _HALF_OF[comp]
        width_px = geo.spur_width * g
        if half == 0:
            s0, s1 = 0, min(width_px - 1, w - 1)
        else:
            s0, s1 = max(0, w - width_px), w - 1
        if comp.startswith("f"):
            r0 = geo.femur_bottom - geo.spur_height + 1
            r1 = geo.femur_bottom
        else:
            r0 = tibia_tops[half]
            r1 = r0 + geo.spur_height - 1
        img[r0 : r1 + 1, s0 : s1 + 1] = _BRIGHT
        masks["osteophytes/" + comp] = _rect_mask(geo, r0, r1, s0, s1)

    for comp, present in record.cysts.items():
        if not present:
            continue
        half = _HALF_OF[comp]
        c0, c1 = geo.half_cols[half]
        cx = (c0 + c1) // 2
        if comp.startswith("f"):
            cy = (geo.femur_top + geo.femur_bottom) // 2
        else:
            cy = (geo.tibia_top + geo.tibia_bottom) // 2
        disk = _disk_mask(h, w, cy, cx, geo.cyst_radius)
        img[disk] += _CYST_DELTA
        masks["cysts/" + comp] = disk

    return img, masks


def _shift_slices(shape: Tuple[int, int], dy: int, dx: int) -> Tuple[tuple, tuple]:
    """The (dst, src) slices moving an [h, w] array by (dy, dx), clipped: out[dst] = in[src]."""
    dst = tuple(slice(max(0, d), min(n, n + d)) for n, d in zip(shape, (dy, dx)))
    return dst, tuple(slice(s.start - d, s.stop - d) for s, d in zip(dst, (dy, dx)))


def render_image(record: OaScoreRecord, cfg: SynthConfig, seed: int) -> np.ndarray:
    """Render a record into a float32 [height, width] image in [0, 1].

    Deterministic for a fixed (record, cfg, seed): speckle placement, the
    global +-max_shift integer shift, and the additive Gaussian noise all
    come from the seed.
    """
    geo = _geometry(cfg.height, cfg.width)
    img, masks = _canonical_render(record, geo)

    rng = make_rng(seed, "render")
    for suffix in _HALF_SUFFIX:  # medial gap first: speckles follow the rng order
        gap = masks.get("chondrocalcinosis/j" + suffix)
        if gap is not None:
            speckles = rng.random((cfg.height, cfg.width)) < _SPECKLE_PROB
            img[gap & speckles] = _BRIGHT

    if record.side == "right":
        img = img[:, ::-1]

    if cfg.max_shift > 0:
        dy = int(rng.integers(-cfg.max_shift, cfg.max_shift + 1))
        dx = int(rng.integers(-cfg.max_shift, cfg.max_shift + 1))
        shifted = np.full_like(img, _BACKGROUND)
        dst, src = _shift_slices(img.shape, dy, dx)
        shifted[dst] = img[src]
        img = shifted

    if cfg.noise_sigma > 0:
        img = img + rng.normal(0.0, cfg.noise_sigma, size=img.shape)

    return np.clip(img, 0.0, 1.0).astype(np.float32)


@dataclass
class GroundTruthRegion:
    feature: Tuple[str, str]
    mask: np.ndarray  # boolean [height, width]


def _dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    if radius <= 0:
        return mask
    out = np.zeros_like(mask)
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            dst, src = _shift_slices(mask.shape, dy, dx)
            out[dst] |= mask[src]
    return out


def ground_truth_region(
    record: OaScoreRecord, feature: Tuple[str, str], cfg: SynthConfig
) -> GroundTruthRegion:
    """A pixel region holding every pixel the renderer modified for one feature.

    The pre-shift mask dilated by max_shift, mirrored for right knees: it
    covers the feature wherever the jitter moved it, so it is a superset of
    the pixels the feature changed, not their exact set.
    Raises ValueError when the feature is absent (grade 0 / flag false).
    """
    name, comp = feature
    if name not in FEATURE_BY_NAME:
        raise ValueError(f"unknown feature {name!r}")
    if comp not in FEATURE_BY_NAME[name].compartments:
        raise ValueError(f"{comp!r} is not a {name} compartment")
    value = getattr(record, name)[comp]
    if not value:
        raise ValueError(f"feature absent: {name}[{comp}] has no finding")

    geo = _geometry(cfg.height, cfg.width)
    _img, masks = _canonical_render(record, geo)
    mask = masks[f"{name}/{comp}"]
    if record.side == "right":
        mask = mask[:, ::-1]
    return GroundTruthRegion(feature=feature, mask=_dilate(mask, cfg.max_shift))


# --- file output and PGM I/O -----------------------------------------------


def write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to ``<path>.tmp``, then rename it over ``path``.

    A failed or interrupted write leaves any previous file at ``path`` intact
    and removes the temp file. There is no fsync: this guards against a
    failed write, not against power loss.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_pgm(path: str, image: np.ndarray) -> None:
    """16-bit binary PGM ("P5", maxval 65535, big-endian samples), written atomically.

    Samples are clipped to [0, 1]; a NaN or infinite sample raises ValueError.
    """
    data = np.asarray(image, dtype=np.float64)
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: image holds a non-finite sample")
    data = np.round(np.clip(data, 0.0, 1.0) * 65535.0)
    h, w = data.shape
    write_atomic(path, f"P5\n{w} {h}\n65535\n".encode("ascii") + data.astype(">u2").tobytes())


def read_pgm(path: str) -> np.ndarray:
    """Read a 16-bit binary PGM, as :func:`write_pgm` writes it, back into float32 [0, 1].

    Raises :class:`PgmError` naming the file for a bad or missing header line
    or a payload shorter than the header says.
    """
    return pgm_to_float(read_pgm_samples(path))


def pgm_to_float(samples: np.ndarray) -> np.ndarray:
    """16-bit PGM samples of any shape as float32 in [0, 1]: sample / 65535."""
    values = samples.astype(np.float32)
    values /= np.float32(65535.0)
    return values


def read_pgm_samples(path: str) -> np.ndarray:
    """The [H, W] 16-bit samples of a PGM, with every check of :func:`read_pgm`."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise PgmError(f"{path}: not a binary PGM (magic {magic!r})")
        dims = fh.readline().split()
        if len(dims) != 2 or not (dims[0].isdigit() and dims[1].isdigit()):
            raise PgmError(f"{path}: size line must hold width and height, got {dims!r}")
        w, h = int(dims[0]), int(dims[1])
        if w == 0 or h == 0:
            raise PgmError(f"{path}: image is {w}x{h}")
        maxval = fh.readline().strip()
        if maxval != b"65535":
            raise PgmError(f"{path}: expected 16-bit PGM (maxval 65535), got {maxval!r}")
        # checked before reading, so a huge declared size never reaches read()
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < w * h * 2:
            raise PgmError(f"{path}: payload holds {left} bytes, header says {w * h * 2}")
        raw = fh.read(w * h * 2)
    return np.frombuffer(raw, dtype=">u2").reshape(h, w)


# --- manifest --------------------------------------------------------------


@dataclass
class ManifestEntry:
    record: OaScoreRecord
    image_path: str
    split: str


@dataclass
class DatasetManifest:
    entries: List[ManifestEntry] = field(default_factory=list)
    root: str = "."

    def split(self, name: str) -> List[ManifestEntry]:
        return [e for e in self.entries if e.split == name]

    def resolve_image(self, entry: ManifestEntry) -> str:
        return os.path.join(self.root, entry.image_path)

    def by_id(self, record_id: str) -> ManifestEntry:
        for entry in self.entries:
            if entry.record.id == record_id:
                return entry
        raise KeyError(record_id)


def write_manifest(manifest: DatasetManifest, path: str) -> None:
    """One JSON object per entry and line, written atomically."""
    lines = []
    for entry in manifest.entries:
        obj = entry.record.to_json_dict()
        obj["image_path"] = entry.image_path
        obj["split"] = entry.split
        lines.append(json.dumps(obj, sort_keys=True) + "\n")
    write_atomic(path, "".join(lines).encode("utf-8"))


def read_manifest(path: str) -> DatasetManifest:
    entries: List[ManifestEntry] = []
    seen_ids = set()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ManifestError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # a JSONDecodeError, or a line past the parser's limits: an int
                # of more than 4300 digits, or nesting deeper than the recursion limit
                detail = getattr(exc, "msg", exc)
                raise ManifestError(f"invalid JSON ({detail})", line=lineno) from exc
            if not isinstance(obj, dict):
                raise ManifestError("entry must be a JSON object", line=lineno)
            image_path = obj.pop("image_path", None)
            split = obj.pop("split", None)
            if not isinstance(image_path, str):
                raise ManifestError("image_path: missing or not a string", line=lineno)
            if split not in SPLITS:
                raise ManifestError(f"split: must be one of {SPLITS}", line=lineno)
            try:
                record = OaScoreRecord.from_json_dict(obj)
            except ScoreValidationError as exc:
                raise ManifestError(str(exc), line=lineno) from exc
            if record.id in seen_ids:
                raise ManifestError(f"duplicate id {record.id!r}", line=lineno)
            seen_ids.add(record.id)
            entries.append(ManifestEntry(record=record, image_path=image_path, split=split))
    return DatasetManifest(entries=entries, root=os.path.dirname(os.path.abspath(path)))


def split_counts(n: int, ratios: Sequence[float]) -> Tuple[int, ...]:
    """Floor the leading ratios; the last split absorbs the remainder."""
    if len(ratios) != len(SPLITS):
        raise ValueError(f"expected {len(SPLITS)} ratios")
    if not all(0 <= r < np.inf for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must be finite, non-negative and sum to 1, got {tuple(ratios)}")
    counts = [int(np.floor(r * n)) for r in ratios[:-1]]
    counts.append(n - sum(counts))
    if counts[-1] < 0:
        raise ValueError("ratios leave a negative remainder")
    return tuple(counts)


def generate_dataset(
    n: int,
    cfg: SynthConfig,
    out_dir: str,
    split_ratios: Sequence[float] = DEFAULT_SPLIT_RATIOS,
) -> DatasetManifest:
    """Sample n records, render them to PGM files, and write manifest.jsonl.

    Splits are assigned by a seeded shuffle at the configured ratios. Each
    item derives its own seed from (cfg.seed, index), so generation is
    reproducible item by item.
    """
    if n < 10:
        raise ValueError("n must be at least 10")
    counts = split_counts(n, split_ratios)

    image_dir = os.path.join(out_dir, "images")
    os.makedirs(image_dir, exist_ok=True)

    order = make_rng(cfg.seed, "split").permutation(n)
    split_of = np.empty(n, dtype=object)
    start = 0
    for split_name, count in zip(SPLITS, counts):
        split_of[order[start : start + count]] = split_name
        start += count

    entries: List[ManifestEntry] = []
    for i in range(n):
        record = sample_record(make_rng(cfg.seed, "record", i), record_id=f"rec-{i:05d}")
        image = render_image(record, cfg, seed=derive_seed(cfg.seed, "image", i))
        rel_path = os.path.join("images", f"{record.id}.pgm")
        write_pgm(os.path.join(out_dir, rel_path), image)
        entries.append(ManifestEntry(record=record, image_path=rel_path, split=str(split_of[i])))

    manifest = DatasetManifest(entries=entries, root=os.path.abspath(out_dir))
    write_manifest(manifest, os.path.join(out_dir, "manifest.jsonl"))
    return manifest
