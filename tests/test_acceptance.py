"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. The two desk-scale training runs are session fixtures
shared by criteria 6-9.
"""

import math
import time

import numpy as np
import pytest

from oavl import evaluation
from oavl.captions import (
    TemplateKind,
    build_vocabulary,
    parse_caption,
    render_caption,
    shuffle_sentences,
)
from oavl.cli import EXIT_OK, main
from oavl.model import info_nce_loss
from oavl.nn import Tensor, finite_difference_check
from oavl.scores import COMPARTMENT_NAMES, grade_word, perturb_negative, sample_record
from oavl.seeding import make_rng
from oavl.synth import SynthConfig, generate_dataset, ground_truth_region, read_pgm
from oavl.training import CheckpointError, TrainConfig, fit, load_checkpoint, save_checkpoint

from test_evaluation import oracle_bleu4
from test_model import build_fd_model_and_loss
from test_nn import PRIMITIVE_CASES

DATASET_SEED = 20260809
TRAIN_SEED = 1
VOCAB = build_vocabulary()


def _report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status} {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="session")
def desk_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk-data")
    manifest = generate_dataset(2472, SynthConfig(seed=DATASET_SEED), str(out))
    counts = tuple(len(manifest.split(s)) for s in ("train", "val", "test"))
    assert counts == (2002, 222, 248), counts
    return manifest


@pytest.fixture(scope="session")
def desk_run(desk_dataset):
    cfg = TrainConfig(seed=TRAIN_SEED, neg_weight=0.5)
    start = time.monotonic()
    model, report = fit(desk_dataset, cfg)
    elapsed = time.monotonic() - start
    return model, report, elapsed


@pytest.fixture(scope="session")
def desk_run_lambda0(desk_dataset):
    cfg = TrainConfig(seed=TRAIN_SEED, neg_weight=0.0)
    model, report = fit(desk_dataset, cfg)
    return model, report


@pytest.fixture(scope="session")
def desk_test_images(desk_dataset):
    return {
        e.record.id: read_pgm(desk_dataset.resolve_image(e))
        for e in desk_dataset.split("test")
    }


def test_criterion_1_gradient_fidelity():
    start = time.monotonic()
    worst_primitive = 0.0
    for name, builder in PRIMITIVE_CASES.items():
        for seed in range(20):
            params, f = builder(np.random.default_rng(seed))
            err = finite_difference_check(f, params, h=1e-4)
            worst_primitive = max(worst_primitive, err)
    worst_model = 0.0
    for seed in range(20):
        model, f = build_fd_model_and_loss(seed)
        params = list(model.parameters().values())
        worst_model = max(worst_model, finite_difference_check(f, params, h=1e-6, max_coords=8))
    elapsed = time.monotonic() - start
    _report(
        1,
        "gradient fidelity",
        worst_primitive <= 1e-4 and worst_model <= 1e-4 and elapsed < 60.0,
        f"primitives max rel err {worst_primitive:.2e}, full model {worst_model:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_loss_closed_forms():
    ok = True
    details = []
    for n in (2, 8, 32):
        s = Tensor(np.full((n, n), 0.25))
        loss = float(info_nce_loss(s, Tensor(np.asarray(0.37))).data)
        err = abs(loss - math.log(n))
        details.append(f"lnN err(N={n})={err:.2e}")
        ok = ok and err <= 1e-6
    s = Tensor(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    loss = float(info_nce_loss(s, Tensor(np.asarray(0.1))).data)
    expected = math.log1p(math.exp(-20.0))
    rel = abs(loss - expected) / expected
    details.append(f"saturated rel err={rel:.2e}")
    ok = ok and rel <= 1e-12
    _report(2, "loss closed forms", ok, ", ".join(details))


def test_criterion_3_grammar_round_trip():
    rng = make_rng(303)
    shuffle_rng = make_rng(304)
    checked = 0
    exact = 0
    for _ in range(1000):
        record = sample_record(rng)
        for kind in (TemplateKind.ABNORMALITY, TemplateKind.LOCATION, TemplateKind.OVERALL):
            caption = render_caption(record, kind, include_zero_grades=True)
            for text in (caption, shuffle_sentences(caption, shuffle_rng)):
                parsed = parse_caption(text)
                checked += 1
                if kind == TemplateKind.OVERALL:
                    good = (
                        parsed.kl == record.kl
                        and parsed.side == record.side
                        and parsed.max_sclerosis == max(record.sclerosis.values())
                        and parsed.max_osteophytes == max(record.osteophytes.values())
                        and parsed.any_cysts == any(record.cysts.values())
                        and parsed.any_chondrocalcinosis
                        == any(record.chondrocalcinosis.values())
                    )
                else:
                    good = (
                        parsed.kl == record.kl
                        and parsed.osteophytes == record.osteophytes
                        and parsed.sclerosis == record.sclerosis
                        and parsed.jsn == record.jsn
                        and parsed.attrition == record.attrition
                        and parsed.cysts == record.cysts
                        and parsed.chondrocalcinosis == record.chondrocalcinosis
                    )
                exact += int(good)
    _report(
        3,
        "grammar round trip",
        exact == checked == 6000,
        f"{exact}/{checked} parses recovered every stated grade and flag",
    )


def test_criterion_4_negative_sampling_rule():
    rng = make_rng(404)
    violations = 0
    for _ in range(10_000):
        record = sample_record(rng)
        negative = perturb_negative(record, rng)
        pairs = [(record.kl, negative.kl)]
        for name in ("osteophytes", "sclerosis", "jsn", "attrition"):
            for comp, value in getattr(record, name).items():
                pairs.append((value, getattr(negative, name)[comp]))
        violations += sum(1 for a, b in pairs if abs(a - b) < 2)
    _report(4, "negative sampling rule", violations == 0, f"{violations} violations in 10000 trials")


def test_criterion_5_bleu_oracle():
    from oavl.captions import split_text

    hand = evaluation.bleu4(list("abcde"), list("abcdf"))
    hand_ok = abs(hand - 0.2**0.25) <= 1e-12
    rng = make_rng(505)
    worst = 0.0
    for _ in range(100):
        a = split_text(render_caption(sample_record(rng), TemplateKind.LOCATION, True))
        b = split_text(render_caption(sample_record(rng), TemplateKind.LOCATION, True))
        worst = max(worst, abs(evaluation.bleu4(a, b) - oracle_bleu4(a, b)))
    _report(
        5,
        "BLEU oracle",
        hand_ok and worst <= 1e-9,
        f"hand case {hand:.6f}, max |impl - oracle| = {worst:.2e}",
    )


def test_criterion_6_desk_scale_training(desk_dataset, desk_run, desk_test_images):
    model, report, elapsed = desk_run
    final_infonce = report.epochs[-1].mean_infonce
    bound = math.log(32) - 0.5
    zs = evaluation.zero_shot_eval(model, desk_dataset.split("test"), desk_test_images, VOCAB)
    _report(
        6,
        "desk-scale training",
        final_infonce < bound and zs.accuracy >= 0.40 and elapsed <= 1800.0,
        f"final InfoNCE {final_infonce:.3f} < {bound:.3f}, "
        f"zero-shot test accuracy {zs.accuracy:.3f} >= 0.40, "
        f"training {elapsed:.0f}s <= 1800s",
    )


def test_criterion_7_negative_loss_effect(desk_run, desk_run_lambda0):
    _model, report, _elapsed = desk_run
    _model0, report0 = desk_run_lambda0
    with_penalty = report.final_neg_cosine
    without_penalty = report0.final_neg_cosine
    _report(
        7,
        "negative-loss effect",
        with_penalty <= without_penalty - 0.05 and with_penalty < report.initial_neg_cosine,
        f"final matched-pair cosine {with_penalty:.3f} (lambda=0.5) vs "
        f"{without_penalty:.3f} (lambda=0), initial {report.initial_neg_cosine:.3f}",
    )


def test_criterion_8_retrieval_beats_random(desk_dataset, desk_run, desk_test_images):
    model, _report_, _elapsed = desk_run
    result = evaluation.retrieval_eval(
        model, desk_dataset.split("test"), desk_test_images, VOCAB, k=10, seed=TRAIN_SEED
    )
    margin = result.mean_top1_bleu4 - result.random_baseline_bleu4
    _report(
        8,
        "retrieval",
        margin >= 0.05,
        f"top-1 BLEU-4 {result.mean_top1_bleu4:.3f} vs random {result.random_baseline_bleu4:.3f} "
        f"(margin {margin:.3f})",
    )


def test_criterion_9_saliency_localization(desk_dataset, desk_run, desk_test_images):
    model, _report_, _elapsed = desk_run
    cfg = SynthConfig(seed=DATASET_SEED)
    scores = []
    maps_ok = True
    for entry in desk_dataset.split("test"):
        image = desk_test_images[entry.record.id]
        for comp, grade in entry.record.osteophytes.items():
            if grade < 2:
                continue
            prompt = f"Osteophytes: {grade_word(grade)} in {COMPARTMENT_NAMES[comp]}."
            saliency = evaluation.grad_cam(model, image, prompt, VOCAB, entry.record.id)
            maps_ok = maps_ok and saliency.values.shape == image.shape
            maps_ok = maps_ok and saliency.values.min() >= 0.0
            maps_ok = maps_ok and (
                saliency.values.max() == 0.0 or abs(saliency.values.max() - 1.0) <= 1e-6
            )
            region = ground_truth_region(entry.record, ("osteophytes", comp), cfg)
            scores.append(evaluation.localization_score(saliency, region))
    mean_score = float(np.mean(scores))
    _report(
        9,
        "saliency localization",
        maps_ok and mean_score > 1.0,
        f"mean localization {mean_score:.3f} over {len(scores)} osteophyte prompts, "
        f"map invariants {'ok' if maps_ok else 'violated'}",
    )


def test_criterion_10_determinism_and_persistence(tmp_path):
    data_dir = tmp_path / "data"
    code = main(
        [
            "synth", "--n", "64", "--seed", "5", "--out-dir", str(data_dir),
            "--height", "32", "--width", "32",
        ]
    )
    assert code == EXIT_OK
    blobs = []
    for name in ("a", "b"):
        ckpt = tmp_path / f"{name}.bin"
        code = main(
            [
                "train", "--manifest", str(data_dir / "manifest.jsonl"),
                "--out", str(ckpt), "--epochs", "2", "--batch-size", "8",
                "--seed", "5", "--quiet",
            ]
        )
        assert code == EXIT_OK
        blobs.append(ckpt.read_bytes())
    identical = blobs[0] == blobs[1]

    loaded = load_checkpoint(str(tmp_path / "a.bin"))
    resaved = tmp_path / "resaved.bin"
    save_checkpoint(str(resaved), loaded.model, loaded.train_config, epoch=loaded.epoch)
    round_trip = resaved.read_bytes() == blobs[0]

    corrupted = bytearray(blobs[0])
    corrupted[len(corrupted) // 2] ^= 0x01
    bad_path = tmp_path / "bad.bin"
    bad_path.write_bytes(bytes(corrupted))
    try:
        load_checkpoint(str(bad_path))
        rejected = False
    except CheckpointError:
        rejected = True

    _report(
        10,
        "determinism and persistence",
        identical and round_trip and rejected,
        f"identical runs: {identical}, save/load/save byte-identical: {round_trip}, "
        f"corruption rejected: {rejected}",
    )
