import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oavl import nn
from oavl.captions import TemplateKind, build_vocabulary, render_caption, split_text, tokenize
from oavl.cli import _write_eval_report, _write_saliency_overlay
from oavl.evaluation import (
    SaliencyMap,
    ZeroShotResult,
    _bilinear_resize,
    _resize_taps,
    bleu4,
    bleu4_pairs,
    class_prompt_vectors,
    EMBED_BATCH,
    classify_image_embeddings,
    embed_images,
    embed_texts,
    grad_cam,
    localization_score,
    retrieval_eval,
    retrieve_topk,
    zero_shot_eval,
)
from oavl.model import DualEncoder, ModelConfig
from oavl.nn import Tensor
from oavl.scores import sample_record
from oavl.seeding import make_rng
from oavl.synth import GroundTruthRegion, ManifestEntry, SynthConfig, render_image

from conftest import make_record

VOCAB = build_vocabulary()


def small_model(seed=0, height=32, width=32, dtype=np.float32):
    cfg = ModelConfig(
        height=height, width=width, channels=(4, 8, 8), embed_dim=8, proj_dim=4,
        vocab_size=len(VOCAB), max_len=32,
    )
    return DualEncoder(cfg, seed=seed, dtype=dtype)


def small_split(n, seed=9):
    """n test-split entries with 32x32 images, keyed by record id."""
    rng = make_rng(seed)
    entries = []
    images = {}
    for i in range(n):
        record = sample_record(rng, f"z{i}")
        entries.append(ManifestEntry(record=record, image_path="", split="test"))
        images[record.id] = render_image(record, SynthConfig(height=32, width=32), seed=i)
    return entries, images


# --- independent BLEU oracle: plain dict counting, no Counter, no logs -------


def oracle_ngrams(tokens, n):
    grams = {}
    for i in range(len(tokens) - n + 1):
        key = " ".join(tokens[i : i + n])
        grams[key] = grams.get(key, 0) + 1
    return grams


def oracle_bleu4(candidate, reference):
    product = 1.0
    for n in (1, 2, 3, 4):
        cand = oracle_ngrams(candidate, n)
        ref = oracle_ngrams(reference, n)
        total = sum(cand.values())
        if total == 0:
            return 0.0
        clipped = 0
        for gram, count in cand.items():
            clipped += min(count, ref.get(gram, 0))
        if clipped == 0:
            return 0.0
        product *= clipped / total
    if len(candidate) > len(reference):
        bp = 1.0
    else:
        bp = math.exp(1.0 - len(reference) / len(candidate))
    return bp * product ** (1.0 / 4.0)


class TestBleu:
    def test_identical_is_one(self):
        tokens = split_text("mild osteoarthritis. knee is varus.")
        assert bleu4(tokens, tokens) == 1.0

    def test_hand_counted_case(self):
        score = bleu4(list("abcde"), list("abcdf"))
        assert abs(score - 0.2 ** 0.25) <= 1e-12
        # p1..p4 = 4/5, 3/4, 2/3, 1/2 and BP = 1
        assert abs(score - (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25) <= 1e-12

    def test_no_shared_fourgram_is_zero(self):
        assert bleu4(list("abcd"), list("dcba")) == 0.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            bleu4([], list("ab"))
        with pytest.raises(ValueError):
            bleu4(list("ab"), [])

    def test_matches_independent_oracle_on_caption_pairs(self):
        rng = make_rng(50)
        for _ in range(100):
            a = split_text(
                render_caption(sample_record(rng), TemplateKind.LOCATION, True)
            )
            b = split_text(
                render_caption(sample_record(rng), TemplateKind.LOCATION, True)
            )
            assert abs(bleu4(a, b) - oracle_bleu4(a, b)) <= 1e-9

    def test_brevity_penalty_direction(self):
        reference = list("abcdefgh")
        short = list("abcde")
        assert bleu4(short, reference) < bleu4(reference, reference)

    def test_monotone_as_shared_fourgrams_are_removed(self):
        reference = list("abcdefgh")
        scores = []
        for cut in range(4):
            candidate = list("abcdefgh")
            for i in range(cut):
                candidate[7 - 2 * i] = "z"  # destroy shared 4-grams one at a time
            scores.append(bleu4(candidate, reference))
        assert all(a >= b for a, b in zip(scores, scores[1:]))


class TestBleuPairs:
    """bleu4_pairs against bleu4 itself, the oracle, with == on every score."""

    def test_equals_bleu4_on_every_ordered_pair_of_a_caption_pool(self):
        rng = make_rng(51)
        pool = [
            split_text(render_caption(sample_record(rng), TemplateKind.LOCATION, i % 2 == 0))
            for i in range(60)
        ]
        pairs = [(c, r) for c in range(len(pool)) for r in range(len(pool))]
        assert bleu4_pairs(pool, pairs) == [bleu4(pool[c], pool[r]) for c, r in pairs]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from("abc"), min_size=1, max_size=9), max_size=6))
    def test_equals_bleu4_on_short_token_lists(self, pool):
        pairs = [(c, r) for c in range(len(pool)) for r in range(len(pool))]
        scores = bleu4_pairs(pool, pairs)
        assert scores == [bleu4(pool[c], pool[r]) for c, r in pairs]
        assert all(s == 0.0 for (c, _), s in zip(pairs, scores) if len(pool[c]) < 4)

    def test_hand_counted_clipping_and_brevity_penalty(self):
        doubled, single = list("abcdabcd"), list("abcd")
        scores = bleu4_pairs([doubled, single], [(0, 1), (1, 0)])
        # clipped to the reference's counts: p1..p4 = 4/8, 3/7, 2/6, 1/5 and BP = 1
        assert scores[0] == pytest.approx((4 / 8 * 3 / 7 * 2 / 6 * 1 / 5) ** 0.25, rel=1e-12)
        # every n-gram matches, but the candidate is half the reference: BP = e^(1 - 8/4)
        assert scores[1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_empty_word_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bleu4_pairs([[], ["a"]], [(1, 0)])


class TestEmbed:
    def test_embed_images_matches_one_at_a_time(self):
        model = small_model(seed=3)
        images = list(np.random.default_rng(1).random((70, 32, 32)).astype(np.float32))
        assert len(images) > EMBED_BATCH
        batched = embed_images(model, images)
        single = np.concatenate(
            [model.project(model.encode_image(im[None]), "image").data for im in images]
        )
        assert batched.shape == (70, model.cfg.proj_dim)
        np.testing.assert_allclose(batched, single, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("project", [True, False])
    def test_embed_texts_of_no_texts_is_empty(self, project):
        model = small_model(seed=5)
        width = model.cfg.proj_dim if project else model.cfg.embed_dim
        out = embed_texts(model, VOCAB, [], project=project)
        assert out.shape == (0, width) and out.dtype == model.dtype

    @pytest.mark.parametrize("project", [True, False])
    def test_embed_texts_matches_one_at_a_time(self, project):
        model = small_model(seed=5)
        rng = make_rng(17)
        kinds = list(TemplateKind)
        texts = [
            render_caption(sample_record(rng), kinds[i % len(kinds)]) for i in range(70)
        ]
        batched = embed_texts(model, VOCAB, texts, project=project)
        single = []
        for text in texts:
            tokens = tokenize(text, VOCAB, model.cfg.max_len)[None]
            embedded = model.encode_text(tokens)
            single.append((model.project(embedded, "text") if project else embedded).data)
        width = model.cfg.proj_dim if project else model.cfg.embed_dim
        assert batched.shape == (70, width)
        np.testing.assert_allclose(batched, np.concatenate(single), rtol=0, atol=1e-6)


    @pytest.mark.parametrize("modality, bound_mib", [("image", 27.5), ("text", 16.0)])
    def test_one_default_size_batch_allocates_within_its_bound(self, modality, bound_mib):
        # tracemalloc peak of one EMBED_BATCH at the default ModelConfig:
        # images 28.1 MiB and texts 17.5 MiB while the graph kept relu masks,
        # token gathers and pad-masked products no gradient rule reads, and
        # 26.4 and 15.2 MiB since
        model = DualEncoder(ModelConfig(vocab_size=len(VOCAB)), seed=0)
        rng = make_rng(23)
        if modality == "image":
            shape = (EMBED_BATCH, model.cfg.height, model.cfg.width)
            images = list(rng.random(shape, dtype=np.float32))
            embed = lambda: embed_images(model, images)
        else:
            kinds = list(TemplateKind)
            texts = [render_caption(sample_record(rng), kinds[i % 3]) for i in range(EMBED_BATCH)]
            embed = lambda: embed_texts(model, VOCAB, texts)
        tracemalloc.start()
        try:
            embed()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestZeroShot:
    def test_projection_matching_prompt_vector_wins(self):
        model = small_model()
        vectors = class_prompt_vectors(model, VOCAB, "left")
        for k in range(5):
            pred = classify_image_embeddings(vectors[k : k + 1], vectors)
            assert pred[0] == k

    def test_tie_breaks_to_lower_class(self):
        vectors = np.tile(np.array([[1.0, 0.0, 0.0]]), (5, 1))
        pred = classify_image_embeddings(np.array([[1.0, 0.0, 0.0]]), vectors)
        assert pred[0] == 0

    def test_scale_invariance_of_unprojected_embedding(self):
        model = small_model(seed=2)
        vectors = class_prompt_vectors(model, VOCAB, "right")
        base = np.random.default_rng(0).standard_normal((6, 8)).astype(np.float32)
        a = classify_image_embeddings(model.project(Tensor(base), "image").data, vectors)
        b = classify_image_embeddings(model.project(Tensor(7.0 * base), "image").data, vectors)
        assert np.array_equal(a, b)

    def test_eval_confusion_consistency(self):
        model = small_model(seed=4)
        entries, images = small_split(12)
        result = zero_shot_eval(model, entries, images, VOCAB)
        assert result.confusion.sum() == 12
        true_counts = np.bincount([e.record.kl for e in entries], minlength=5)
        assert np.array_equal(result.confusion.sum(axis=1), true_counts)
        assert result.accuracy == np.trace(result.confusion) / 12


class TestRetrieve:
    def test_exact_match_ranks_first(self):
        rng = np.random.default_rng(2)
        pool = rng.standard_normal((10, 6))
        pool /= np.linalg.norm(pool, axis=1, keepdims=True)
        ranked = retrieve_topk(pool[4], pool, k=3)
        assert ranked[0] == 4

    def test_full_k_is_permutation(self):
        rng = np.random.default_rng(3)
        pool = rng.standard_normal((8, 5))
        ranked = retrieve_topk(rng.standard_normal(5), pool, k=8)
        assert sorted(ranked.tolist()) == list(range(8))

    def test_negated_query_reverses_ranking(self):
        rng = np.random.default_rng(4)
        pool = rng.standard_normal((7, 5))
        query = rng.standard_normal(5)
        forward = retrieve_topk(query, pool, k=7)
        backward = retrieve_topk(-query, pool, k=7)
        assert forward.tolist() == backward.tolist()[::-1]

    def test_ranking_consistent_with_similarities(self):
        rng = np.random.default_rng(5)
        pool = rng.standard_normal((9, 4))
        query = rng.standard_normal(4)
        ranked = retrieve_topk(query, pool, k=9)
        sims = pool @ query
        assert all(sims[a] >= sims[b] - 1e-12 for a, b in zip(ranked, ranked[1:]))

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            retrieve_topk(np.zeros(4), np.zeros((0, 4)), k=1)

    def test_k_beyond_pool_rejected(self):
        with pytest.raises(ValueError):
            retrieve_topk(np.zeros(4), np.zeros((3, 4)), k=5)


class TestRetrievalEval:
    def test_matches_reference_loop_over_bleu4(self):
        model = small_model(seed=4)
        entries, images = small_split(20)
        result = retrieval_eval(model, entries, images, VOCAB, k=5, baseline_draws=300, seed=11)

        texts = [render_caption(e.record, TemplateKind.LOCATION) for e in entries]
        words = [split_text(t) for t in texts]
        pool_proj = embed_texts(model, VOCAB, texts)
        image_proj = embed_images(model, [images[e.record.id] for e in entries])
        per_image = []
        for i, entry in enumerate(entries):
            top1 = int(retrieve_topk(image_proj[i], pool_proj, 5)[0])
            per_image.append(
                {
                    "id": entry.record.id,
                    "top1_id": entries[top1].record.id,
                    "top1_bleu4": bleu4(words[top1], words[i]),
                }
            )
        rng = make_rng(11, "retrieval-baseline")
        baseline = []
        for _ in range(300):
            i = int(rng.integers(0, len(entries)))
            j = int(rng.integers(0, len(entries)))
            baseline.append(bleu4(words[j], words[i]))

        assert result.per_image == per_image
        assert result.mean_top1_bleu4 == float(np.mean([r["top1_bleu4"] for r in per_image]))
        assert result.random_baseline_bleu4 == float(np.mean(baseline))


def _bilinear_resize_reference(values, height, width):
    """The four-corner bilinear upsample: four [H, W] gathers through np.ix_."""
    src_h, src_w = values.shape
    y0, y1, wy = _resize_taps(src_h, height)
    x0, x1, wx = _resize_taps(src_w, width)
    wy = wy[:, None]
    wx = wx[None, :]
    top = values[np.ix_(y0, x0)] * (1 - wx) + values[np.ix_(y0, x1)] * wx
    bottom = values[np.ix_(y1, x0)] * (1 - wx) + values[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bottom * wy


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestBilinearResize:
    """The separable resize against the four-corner reference, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_reference_for_every_source_and_target_size(self, dtype):
        rng = np.random.default_rng(12)
        for src in range(1, 13):
            for dst in range(1, 81):
                # every size on each axis, paired with its complement on the other
                values = rng.standard_normal((src, 13 - src)).astype(dtype)
                values[rng.random(values.shape) < 0.2] = -0.0
                _assert_same_bits(
                    _bilinear_resize(values, dst, 81 - dst),
                    _bilinear_resize_reference(values, dst, 81 - dst),
                )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fill", [0.0, -0.0])
    def test_signed_zero_maps_equal_reference(self, dtype, fill):
        values = np.full((8, 8), fill, dtype)
        for height, width in ((64, 64), (1, 80), (80, 1), (8, 8)):
            _assert_same_bits(
                _bilinear_resize(values, height, width),
                _bilinear_resize_reference(values, height, width),
            )


def full_graph_grad_cam(model, image, prompt):
    """grad_cam's map with the backward sweep run through the whole image encoder."""
    prompt_vec = embed_texts(model, VOCAB, [prompt])[0]
    acts = model.image_features(image[None])
    image_proj = model.project(nn.mean_pool(acts), "image")
    target = nn.tsum(nn.mul(image_proj, Tensor(prompt_vec[None, :].astype(model.dtype))))
    model.zero_grad()
    target.backward()
    weights = acts.grad[0].mean(axis=(0, 1))
    raw = np.maximum((acts.data[0] * weights).sum(axis=-1), 0.0)
    resized = np.maximum(_bilinear_resize(raw, model.cfg.height, model.cfg.width), 0.0)
    peak = resized.max()
    return (resized / peak if peak > 0 else resized).astype(np.float64)


CONV_PARAMS = [f"image.conv{i}.{kind}" for i in (1, 2, 3) for kind in ("weight", "bias")]


def _make_activations_constant(model):
    """Zero conv weights and positive biases: the final activations are
    spatially constant, so the weighted sum is constant too."""
    for name in ("image.conv1", "image.conv2", "image.conv3"):
        model.param(name + ".weight").data[...] = 0.0
        model.param(name + ".bias").data[...] = 0.5


class TestGradCam:
    @pytest.mark.parametrize(
        "seed, prompt", [(8, "moderate osteophytes."), (9, "severe osteoarthritis."),
                         (10, "image shows mild osteoarthritis in the left knee.")]
    )
    def test_head_only_backward_matches_full_graph(self, seed, prompt):
        model = small_model(seed=seed)
        image = render_image(
            make_record(kl=3, osteophytes={"fm": 3}), SynthConfig(height=32, width=32), seed=seed
        )
        expected = full_graph_grad_cam(model, image, prompt)
        assert expected.any()
        assert all(model.param(name).grad is not None for name in CONV_PARAMS)
        saliency = grad_cam(model, image, prompt, VOCAB)
        assert saliency.values.dtype == expected.dtype
        assert saliency.values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", ["float64", "grid-5x3", "black-image", "constant-activations"])
    def test_closed_form_matches_full_graph(self, case):
        height, width = (40, 24) if case == "grid-5x3" else (32, 32)
        dtype = np.float64 if case == "float64" else np.float32
        model = small_model(seed=12, height=height, width=width, dtype=dtype)
        image = np.random.default_rng(12).random((height, width)).astype(np.float32)
        if case == "black-image":
            image[...] = 0.0  # zero biases: the image head's row is all zero
        if case == "constant-activations":
            _make_activations_constant(model)
        if case == "grid-5x3":
            # the gradient's mean runs over 15 positions, not 64
            assert model.image_features(image[None]).shape == (1, 5, 3, 8)
        nonzero = []
        for prompt in ("severe osteoarthritis.", "image shows mild osteoarthritis in the left knee."):
            expected = full_graph_grad_cam(model, image, prompt)
            nonzero.append(bool(expected.any()))
            saliency = grad_cam(model, image, prompt, VOCAB)
            assert saliency.values.dtype == expected.dtype
            assert saliency.values.tobytes() == expected.tobytes()
        assert any(nonzero) == (case != "black-image")

    def test_builds_no_gradient(self, monkeypatch):
        def no_sweep(self):
            raise AssertionError("grad_cam ran a backward sweep")

        model = small_model(seed=4)
        rng = np.random.default_rng(5)
        sentinels = {}
        for name, p in model.parameters().items():
            p.grad = rng.standard_normal(p.shape).astype(p.dtype)
            sentinels[name] = (p.grad, p.grad.tobytes())
        monkeypatch.setattr(nn.Tensor, "backward", no_sweep)
        image = rng.random((32, 32)).astype(np.float32)
        assert grad_cam(model, image, "severe osteoarthritis.", VOCAB).values.any()
        for name, p in model.parameters().items():
            grad, payload = sentinels[name]
            assert p.grad is grad, name
            assert p.grad.tobytes() == payload, name

    def test_overlong_prompt_rejected(self):
        model = small_model(seed=7)
        image = np.random.default_rng(8).random((32, 32)).astype(np.float32)
        fits = " ".join(["mild"] * model.cfg.max_len)
        assert grad_cam(model, image, fits, VOCAB).values.shape == (32, 32)
        with pytest.raises(ValueError, match="prompt has 33 tokens, more than .* max_len 32"):
            grad_cam(model, image, fits + " mild", VOCAB)

    def test_map_shape_and_range(self):
        model = small_model(seed=5)
        image = np.random.default_rng(6).random((32, 32)).astype(np.float32)
        saliency = grad_cam(model, image, "mild osteoarthritis.", VOCAB, image_id="x")
        assert saliency.values.shape == (32, 32)
        assert saliency.values.min() >= 0.0
        assert saliency.values.max() <= 1.0 + 1e-9

    def test_constant_activations_give_uniform_map(self):
        model = small_model(seed=6)
        _make_activations_constant(model)
        image = np.random.default_rng(7).random((32, 32)).astype(np.float32)
        saliency = grad_cam(model, image, "severe osteoarthritis.", VOCAB)
        assert np.ptp(saliency.values) <= 1e-6
        assert saliency.values.max() in (0.0, pytest.approx(1.0))

    def test_black_image_gives_finite_map(self):
        # a fresh model's conv and projection biases are zero, so a black
        # image reaches l2_normalize as an all-zero row
        model = small_model(seed=7)
        saliency = grad_cam(model, np.zeros((32, 32), np.float32), "severe osteoarthritis.", VOCAB)
        assert np.isfinite(saliency.values).all()
        assert not saliency.values.any()

    @pytest.mark.parametrize("prompt", ["", "   "])
    def test_prompt_without_tokens_rejected(self, prompt):
        model = small_model(seed=7)
        image = np.random.default_rng(8).random((32, 32)).astype(np.float32)
        with pytest.raises(ValueError, match=f"prompt {prompt!r} has no tokens"):
            grad_cam(model, image, prompt, VOCAB)

    def test_unknown_prompt_token_rejected(self):
        model = small_model(seed=7)
        image = np.zeros((32, 32), np.float32)
        with pytest.raises(ValueError, match="tokenization"):
            grad_cam(model, image, "flamingo osteoarthritis.", VOCAB)

    @pytest.mark.parametrize("prompt", ["<pad>", "mild <pad> osteoarthritis.", "<PAD>"])
    def test_reserved_pad_token_rejected(self, prompt):
        # <pad> would be masked out of the mean: a silently dropped position,
        # or for a prompt of pads alone an all-zero map
        model = small_model(seed=7)
        image = np.zeros((32, 32), np.float32)
        with pytest.raises(ValueError, match="tokenization failure: reserved token '<pad>'"):
            grad_cam(model, image, prompt, VOCAB)

    def test_normalized_max_is_one_when_nonzero(self):
        model = small_model(seed=8)
        image = render_image(
            make_record(kl=3, osteophytes={"fm": 3}), SynthConfig(height=32, width=32), seed=1
        )
        saliency = grad_cam(model, image, "moderate osteophytes.", VOCAB)
        if saliency.values.any():
            assert saliency.values.max() == pytest.approx(1.0)


class TestLocalization:
    def _region(self, frac=0.1):
        mask = np.zeros((20, 20), dtype=bool)
        count = int(round(frac * mask.size))
        mask.reshape(-1)[:count] = True
        return GroundTruthRegion(feature=("osteophytes", "fm"), mask=mask)

    def test_uniform_saliency_scores_one(self):
        saliency = SaliencyMap(values=np.full((20, 20), 0.5), prompt="", image_id="")
        assert localization_score(saliency, self._region()) == pytest.approx(1.0)

    def test_all_mass_inside_ten_percent_mask_scores_ten(self):
        region = self._region(0.1)
        values = np.zeros((20, 20))
        values[region.mask] = 1.0
        saliency = SaliencyMap(values=values, prompt="", image_id="")
        assert localization_score(saliency, region) == pytest.approx(10.0)

    def test_zero_map_is_neutral(self):
        saliency = SaliencyMap(values=np.zeros((20, 20)), prompt="", image_id="")
        assert localization_score(saliency, self._region()) == 1.0

    def test_empty_mask_rejected(self):
        saliency = SaliencyMap(values=np.ones((20, 20)), prompt="", image_id="")
        empty = GroundTruthRegion(feature=("cysts", "tm"), mask=np.zeros((20, 20), bool))
        with pytest.raises(ValueError, match="empty"):
            localization_score(saliency, empty)


class TestExport:
    def test_empty_split_produces_valid_json(self):
        result = ZeroShotResult(accuracy=0.0, confusion=np.zeros((5, 5), dtype=np.int64))
        payload = json.loads(json.dumps(result.to_json_dict()))
        assert payload["total"] == 0
        assert payload["per_class_counts"] == [0] * 5

    def test_reexport_is_byte_identical(self, tmp_path):
        confusion = np.arange(25).reshape(5, 5)
        result = ZeroShotResult(accuracy=0.2, confusion=confusion)
        _write_eval_report(str(tmp_path / "a"), "zero-shot", result)
        _write_eval_report(str(tmp_path / "b"), "zero-shot", result)
        for name in ("report.json", "confusion.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_confusion_csv_row_sums_match_json(self, tmp_path):
        rng = np.random.default_rng(10)
        confusion = rng.integers(0, 9, (5, 5))
        total = confusion.sum()
        result = ZeroShotResult(accuracy=float(np.trace(confusion) / total), confusion=confusion)
        _write_eval_report(str(tmp_path), "zero-shot", result)
        payload = json.loads((tmp_path / "report.json").read_text())
        lines = (tmp_path / "confusion.csv").read_text().strip().splitlines()[1:]
        assert len(lines) == 5
        for true_k, line in enumerate(lines):
            cells = [int(v) for v in line.split(",")[1:]]
            assert sum(cells) == payload["zero_shot"]["per_class_counts"][true_k]

    def test_saliency_overlay_written(self, tmp_path):
        saliency = SaliencyMap(values=np.ones((16, 16)) * 0.5, prompt="p", image_id="img1")
        image = np.zeros((16, 16), dtype=np.float32)
        _write_saliency_overlay(str(tmp_path), saliency, image)
        assert (tmp_path / "saliency" / "img1.pgm").exists()
