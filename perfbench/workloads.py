"""The benchmark's three closed-loop workloads and their output checks.

Each workload has a set-up (repeated to time it), a pass (the unit a user
waits for, repeated until the run's time is up) and a summary. One caller
waits for each call. A pass returns its timed segments, its op counts and
the result of every output check; a failed check fails the ops it covers.

- ``train``: ``training.fit`` for a fixed number of epochs on the desk set.
- ``eval``: zero-shot grading, retrieval and Grad-CAM over the test split with
  a checkpoint trained briefly in set-up.
- ``synth-io``: dataset generation, read-back and checkpoint round trips.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from oavl import evaluation, synth, training
from oavl.captions import build_vocabulary
from oavl.model import DualEncoder, ModelConfig
from oavl.scores import COMPARTMENT_NAMES, grade_word


@dataclass(frozen=True)
class Sizes:
    images: int = 2472  # the desk set: 2002 train, 222 val, 248 test
    side: int = 64
    batch_size: int = 32
    epochs: int = 1
    roundtrips: int = 50  # checkpoint round trips per synth-io pass
    pgm_roundtrips: int = 8  # write/read exactness probes per synth-io pass
    brief_pairs: int = 640  # train pairs behind the eval workload's checkpoint


FULL = Sizes()
SMOKE = Sizes(images=96, side=32, batch_size=8, roundtrips=3, pgm_roundtrips=2, brief_pairs=64)


def derived_seed(seed: int, purpose: str) -> int:
    """A stream seed for one input, kept apart from the program's own seeding."""
    digest = hashlib.sha256(f"oavl-bench:{seed}:{purpose}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "little")


def _configs(seed: int, sizes: Sizes) -> Tuple[synth.SynthConfig, training.TrainConfig]:
    """The dataset and training configs of a workload seed."""
    data = synth.SynthConfig(height=sizes.side, width=sizes.side, seed=derived_seed(seed, "dataset"))
    train = training.TrainConfig(
        epochs=sizes.epochs, batch_size=sizes.batch_size, seed=derived_seed(seed, "train")
    )
    return data, train


@dataclass
class PassResult:
    wall_s: float = 0.0  # sum of the timed segments
    items: int = 0  # what items_per_s counts
    op_ms: List[float] = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    segments: Dict[str, float] = field(default_factory=dict)
    latencies_ms: Dict[str, List[float]] = field(default_factory=dict)  # other ops, by name
    quality: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)

    def check(self, name: str, ok: bool, ops_covered: int) -> None:
        """Record an output check; a failure fails the ops it covers."""
        ok = bool(ok)
        self.checks[name] = self.checks.get(name, True) and ok
        if not ok:
            self.failed += ops_covered


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def parse_pgm(raw: bytes) -> np.ndarray:
    """Independent reader for the 16-bit samples of a binary PGM (comments allowed).

    Raises ValueError on anything else, including a short payload.
    """
    fields: List[bytes] = []
    pos = 0
    while len(fields) < 4 and pos < len(raw):
        if raw[pos : pos + 1].isspace():
            pos += 1
        elif raw[pos : pos + 1] == b"#":
            pos = raw.index(b"\n", pos) + 1
        else:
            start = pos
            while pos < len(raw) and not raw[pos : pos + 1].isspace():
                pos += 1
            fields.append(raw[start:pos])
    if len(fields) < 4 or fields[0] != b"P5" or fields[3] != b"65535":
        raise ValueError("not a 16-bit binary PGM")
    width, height = int(fields[1]), int(fields[2])
    payload = raw[pos + 1 :]
    if len(payload) != width * height * 2:
        raise ValueError("PGM payload does not match its header")
    return np.frombuffer(payload, dtype=">u2").reshape(height, width)


class _StepTimer:
    """Times each ``train_step`` call ``fit`` makes, by the name ``fit`` looks up."""

    def __enter__(self) -> List[float]:
        self.original = training.train_step
        self.times: List[float] = []
        original, times = self.original, self.times

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                times.append((time.perf_counter() - start) * 1e3)

        training.train_step = timed
        return self.times

    def __exit__(self, *exc) -> None:
        training.train_step = self.original


class TrainWorkload:
    name = "train"
    op_name = "train step"
    items_name = "pairs trained"
    min_passes = 2  # the checkpoint is compared across two fits at one seed
    quiet = contextlib.nullcontext  # a traced run swaps in Tracer.paused

    def __init__(self, seed: int, sizes: Sizes, work_dir: str):
        self.sizes = sizes
        self.work_dir = work_dir
        self.data_cfg, self.train_cfg = _configs(seed, sizes)
        self.reference: Optional[bytes] = None
        self.checkpoint_sha256 = ""

    def setup(self, rep: int):
        out = _fresh_dir(os.path.join(self.work_dir, f"setup{rep}"))
        return synth.generate_dataset(self.sizes.images, self.data_cfg, out)

    def run_pass(self, manifest, index: int) -> PassResult:
        result = PassResult()
        with _StepTimer() as step_ms:
            start = time.perf_counter()
            try:
                model, report = training.fit(manifest, self.train_cfg)
            except training.TrainingError:
                model = None
            result.wall_s = time.perf_counter() - start
        result.segments["fit"] = result.wall_s
        result.op_ms = step_ms
        steps = max(len(step_ms), 1)
        result.ops = steps
        result.items = len(step_ms) * self.sizes.batch_size
        result.check("fit_completed", model is not None, steps)
        if model is None:
            return result

        last = report.epochs[-1]
        losses = [report.initial_neg_cosine, report.final_neg_cosine]
        for epoch in report.epochs:
            losses += [epoch.mean_total, epoch.mean_infonce, epoch.mean_negative]
        result.check("losses_finite", all(np.isfinite(v) for v in losses), steps)
        result.quality["train_final_infonce"] = last.mean_infonce

        path = os.path.join(self.work_dir, "checkpoint.bin")
        with self.quiet():
            training.save_checkpoint(path, model, self.train_cfg, epoch=len(report.epochs))
        with open(path, "rb") as fh:
            blob = fh.read()
        if self.reference is None:
            self.reference = blob
            self.checkpoint_sha256 = hashlib.sha256(blob).hexdigest()
        else:
            result.check("checkpoint_identical", blob == self.reference, steps)
        return result

    def named_metrics(self, passes: List[PassResult]) -> List[Tuple[str, float, str]]:
        return [
            ("train_samples_per_s", statistics.median(p.items / p.wall_s for p in passes), "1/s"),
            ("train_final_infonce", passes[-1].quality.get("train_final_infonce", float("nan")), "nats"),
        ]


class EvalWorkload:
    name = "eval"
    op_name = "grad_cam map"
    items_name = "zero-shot images, retrieval queries and saliency maps"
    min_passes = 1
    quiet = contextlib.nullcontext  # a traced run swaps in Tracer.paused

    def __init__(self, seed: int, sizes: Sizes, work_dir: str):
        self.sizes = sizes
        self.work_dir = work_dir
        self.data_cfg, self.train_cfg = _configs(seed, sizes)
        self.vocab = build_vocabulary()
        self.reference: Dict[str, float] = {}

    def setup(self, rep: int):
        out = _fresh_dir(os.path.join(self.work_dir, f"setup{rep}"))
        manifest = synth.generate_dataset(self.sizes.images, self.data_cfg, out)
        brief = synth.DatasetManifest(
            entries=manifest.split("train")[: self.sizes.brief_pairs], root=manifest.root
        )
        trained, _report = training.fit(brief, self.train_cfg)
        path = os.path.join(out, "checkpoint.bin")
        training.save_checkpoint(path, trained, self.train_cfg, epoch=self.train_cfg.epochs)
        model = training.load_checkpoint(path).model
        test = manifest.split("test")
        images = {e.record.id: synth.read_pgm(manifest.resolve_image(e)) for e in test}
        prompts = []  # criterion 9: every osteophyte finding of grade >= 2
        for entry in test:
            for comp, grade in entry.record.osteophytes.items():
                if grade >= 2:
                    prompt = f"Osteophytes: {grade_word(grade)} in {COMPARTMENT_NAMES[comp]}."
                    region = synth.ground_truth_region(entry.record, ("osteophytes", comp), self.data_cfg)
                    prompts.append((entry.record.id, prompt, region))
        if not prompts:
            raise RuntimeError("the test split has no osteophyte finding of grade >= 2")
        self.test_size = len(test)
        return model, test, images, prompts

    def run_pass(self, state, index: int) -> PassResult:
        model, test, images, prompts = state
        n = len(test)
        # items are all three kinds of op, so the mix varies little with the
        # seed although the map count does (530 to 650 on the desk set)
        result = PassResult(items=2 * n + len(prompts), ops=2 * n + len(prompts))

        start = time.perf_counter()
        zs = evaluation.zero_shot_eval(model, test, images, self.vocab)
        mid = time.perf_counter()
        ret = evaluation.retrieval_eval(
            model, test, images, self.vocab, k=10, seed=self.train_cfg.seed
        )
        end = time.perf_counter()
        result.segments["zero_shot"] = mid - start
        result.segments["retrieval"] = end - mid

        saliency_s = 0.0
        scores = []
        for image_id, prompt, region in prompts:
            image = images[image_id]
            t0 = time.perf_counter()
            saliency = evaluation.grad_cam(model, image, prompt, self.vocab, image_id)
            t1 = time.perf_counter()
            scores.append(evaluation.localization_score(saliency, region))
            t2 = time.perf_counter()
            saliency_s += t2 - t0
            result.op_ms.append((t1 - t0) * 1e3)
            values = saliency.values
            peak = float(values.max())
            result.check(
                "saliency_maps_valid",
                values.shape == image.shape
                and float(values.min()) >= 0.0
                and (peak == 0.0 or abs(peak - 1.0) <= 1e-6),
                1,
            )
        result.segments["saliency"] = saliency_s
        result.wall_s = sum(result.segments.values())

        quality = {
            "zs_accuracy": zs.accuracy,
            "retrieval_bleu_margin": ret.mean_top1_bleu4 - ret.random_baseline_bleu4,
            "localization_mean": float(np.mean(scores)),
        }
        result.quality = quality
        result.check("zero_shot_counts", int(zs.confusion.sum()) == n and len(zs.per_image) == n, n)
        result.check(
            "retrieval_complete",
            len(ret.per_image) == n and all(np.isfinite(r["top1_bleu4"]) for r in ret.per_image),
            n,
        )
        # the model is frozen, so every pass must grade, retrieve and explain alike
        if not self.reference:
            self.reference = dict(quality)
        result.check("zs_repeatable", quality["zs_accuracy"] == self.reference["zs_accuracy"], n)
        result.check(
            "retrieval_repeatable",
            quality["retrieval_bleu_margin"] == self.reference["retrieval_bleu_margin"],
            n,
        )
        result.check(
            "saliency_repeatable",
            quality["localization_mean"] == self.reference["localization_mean"],
            len(prompts),
        )
        return result

    def named_metrics(self, passes: List[PassResult]) -> List[Tuple[str, float, str]]:
        n = self.test_size
        maps = [ms for p in passes for ms in p.op_ms]
        last = passes[-1].quality
        return [
            ("zs_images_per_s", statistics.median(n / p.segments["zero_shot"] for p in passes), "1/s"),
            (
                "retrieval_queries_per_s",
                statistics.median(n / p.segments["retrieval"] for p in passes),
                "1/s",
            ),
            ("saliency_ms_p50", _percentile(maps, 50), "ms"),
            ("saliency_ms_p90", _percentile(maps, 90), "ms"),
            ("zs_accuracy", last["zs_accuracy"], "ratio"),
            ("retrieval_bleu_margin", last["retrieval_bleu_margin"], "BLEU-4"),
            ("localization_mean", last["localization_mean"], "ratio"),
        ]


class SynthIoWorkload:
    name = "synth-io"
    # not the checkpoint round trip: its p90 swings by a quarter between runs
    # on a shared machine, so the round trips are reported by median only
    op_name = "read_pgm of one image"
    items_name = "images synthesized and read back"
    min_passes = 1
    quiet = contextlib.nullcontext  # a traced run swaps in Tracer.paused

    def __init__(self, seed: int, sizes: Sizes, work_dir: str):
        self.sizes = sizes
        self.work_dir = work_dir
        self.seed = seed
        self.data_cfg, self.train_cfg = _configs(seed, sizes)

    def setup(self, rep: int):
        """A model whose parameters and Adam state are all non-trivial."""
        cfg = ModelConfig(
            height=self.sizes.side, width=self.sizes.side, vocab_size=len(build_vocabulary())
        )
        model = DualEncoder(cfg, seed=self.train_cfg.seed)
        rng = np.random.default_rng(derived_seed(self.seed, "adam-state"))
        for p in model.parameters().values():
            p.m = rng.standard_normal(p.data.shape).astype(np.float32)
            p.v = np.abs(rng.standard_normal(p.data.shape)).astype(np.float32)
            p.t = int(rng.integers(1, 1000))
        probes = [
            rng.random((self.sizes.side, self.sizes.side)).astype(np.float32)
            for _ in range(self.sizes.pgm_roundtrips)
        ]
        _fresh_dir(os.path.join(self.work_dir, "probe"))
        return model, probes

    def run_pass(self, state, index: int) -> PassResult:
        model, probes = state
        n = self.sizes.images
        out = _fresh_dir(os.path.join(self.work_dir, "data"))
        result = PassResult(items=n, ops=2 * n + self.sizes.roundtrips + len(probes))

        start = time.perf_counter()
        generated = synth.generate_dataset(n, self.data_cfg, out)
        mid = time.perf_counter()
        manifest = synth.read_manifest(os.path.join(out, "manifest.jsonl"))
        loaded = []
        for entry in manifest.entries:
            t0 = time.perf_counter()
            loaded.append(synth.read_pgm(manifest.resolve_image(entry)))
            result.op_ms.append((time.perf_counter() - t0) * 1e3)
        end = time.perf_counter()
        result.segments["synth"] = mid - start
        result.segments["load"] = end - mid

        result.check(
            "manifest_round_trip",
            [(e.record.to_json_dict(), e.image_path, e.split) for e in manifest.entries]
            == [(e.record.to_json_dict(), e.image_path, e.split) for e in generated.entries],
            n,
        )
        for entry, image in zip(manifest.entries, loaded):
            with open(manifest.resolve_image(entry), "rb") as fh:
                raw = fh.read()
            try:
                expected = (parse_pgm(raw).astype(np.float32) / 65535.0).astype(np.float32)
                exact = _bits_equal(image, expected)
            except ValueError:
                exact = False
            result.check("read_pgm_exact", exact, 1)
        for i, probe in enumerate(probes):
            path = os.path.join(self.work_dir, "probe", f"{i}.pgm")
            with self.quiet():
                synth.write_pgm(path, probe)
                restored = synth.read_pgm(path)
            quantized = np.round(np.clip(probe.astype(np.float64), 0.0, 1.0) * 65535.0)
            expected = (quantized.astype(np.float32) / 65535.0).astype(np.float32)
            result.check("pgm_quantized_round_trip", _bits_equal(restored, expected), 1)

        path = os.path.join(self.work_dir, "checkpoint.bin")
        roundtrip_ms = result.latencies_ms.setdefault("checkpoint_roundtrip", [])
        for r in range(self.sizes.roundtrips):
            t0 = time.perf_counter()
            training.save_checkpoint(path, model, self.train_cfg, epoch=r)
            restored = training.load_checkpoint(path)
            roundtrip_ms.append((time.perf_counter() - t0) * 1e3)
            same = restored.epoch == r
            for name, p in model.parameters().items():
                q = restored.model.param(name)
                same = same and _bits_equal(p.data, q.data) and _bits_equal(p.m, q.m)
                same = same and _bits_equal(p.v, q.v) and p.t == q.t
            result.check("checkpoint_round_trip_exact", same, 1)
        result.wall_s = result.segments["synth"] + result.segments["load"]
        return result

    def named_metrics(self, passes: List[PassResult]) -> List[Tuple[str, float, str]]:
        n = passes[0].items
        trips = [ms for p in passes for ms in p.latencies_ms["checkpoint_roundtrip"]]
        return [
            ("synth_images_per_s", statistics.median(n / p.segments["synth"] for p in passes), "1/s"),
            ("load_images_per_s", statistics.median(n / p.segments["load"] for p in passes), "1/s"),
            ("checkpoint_roundtrip_ms", statistics.median(trips), "ms"),
        ]


WORKLOADS = {w.name: w for w in (TrainWorkload, EvalWorkload, SynthIoWorkload)}


def end_to_end(passes: List[PassResult]) -> Dict[str, float]:
    """The gated metrics every workload reports, from its timed passes."""
    ops = [ms for p in passes for ms in p.op_ms]
    return {
        "items_per_s": statistics.median(p.items / p.wall_s for p in passes),
        "op_ms_p50": _percentile(ops, 50),
        "op_ms_p90": _percentile(ops, 90),
    }
