import math

import numpy as np
import pytest

from oavl import nn
from oavl.captions import build_vocabulary, render_caption, shuffle_sentences, tokenize, TemplateKind
from oavl.model import (
    DualEncoder,
    ModelConfig,
    info_nce_loss,
    negative_caption_loss,
    similarity_matrix,
    total_loss,
)
from oavl.nn import Tensor
from oavl.scores import sample_record
from oavl.seeding import make_rng

from gradcheck import branch_trace, finite_difference_check

VOCAB = build_vocabulary()


def small_config(**overrides):
    base = dict(
        height=32,
        width=32,
        channels=(4, 8, 8),
        embed_dim=8,
        proj_dim=4,
        vocab_size=len(VOCAB),
        max_len=24,
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def model():
    return DualEncoder(ModelConfig(vocab_size=len(VOCAB)), seed=0)


@pytest.fixture(scope="module")
def tiny():
    return DualEncoder(small_config(), seed=0)


class TestEncoders:
    def test_image_embedding_shape(self, model):
        images = np.random.default_rng(0).random((4, 64, 64)).astype(np.float32)
        out = model.encode_image(images)
        assert out.shape == (4, 64)
        assert np.isfinite(out.data).all()

    def test_identical_images_identical_rows(self, model):
        image = np.random.default_rng(1).random((64, 64)).astype(np.float32)
        batch = np.stack([image, image])
        out = model.encode_image(batch).data
        assert np.array_equal(out[0], out[1])

    def test_zero_vs_one_images_differ_across_seeds(self):
        for seed in range(10):
            m = DualEncoder(small_config(), seed=seed)
            batch = np.stack(
                [np.zeros((32, 32), np.float32), np.ones((32, 32), np.float32)]
            )
            out = m.encode_image(batch).data
            assert not np.array_equal(out[0], out[1])

    def test_image_size_mismatch(self, model):
        with pytest.raises(nn.ShapeError):
            model.encode_image(np.zeros((1, 32, 32), np.float32))

    def test_text_embedding_shape(self, model):
        tokens = np.random.default_rng(2).integers(1, len(VOCAB), (3, 96))
        out = model.encode_text(tokens)
        assert out.shape == (3, 64)
        assert np.isfinite(out.data).all()

    def test_pad_positions_do_not_enter_the_mean(self, tiny):
        words = [VOCAB.index(w) for w in ("no", "osteoarthritis", ".")]
        short = np.full((1, 24), VOCAB.pad_index, dtype=np.int64)
        short[0, : len(words)] = words
        longer = short.copy()  # appending extra <pad> keeps the sequence identical
        assert np.array_equal(
            tiny.encode_text(short).data, tiny.encode_text(longer).data
        )

    def test_trailing_pad_run_is_irrelevant(self, tiny):
        # embeddings come from non-pad positions only, so extending max_len
        # with more pad columns must not move the embedding
        wide = DualEncoder(small_config(max_len=48), seed=0)
        words = [VOCAB.index(w) for w in ("mild", "osteoarthritis", ".")]
        t24 = np.full((1, 48), VOCAB.pad_index, dtype=np.int64)
        t24[0, : len(words)] = words
        out = wide.encode_text(t24).data
        assert np.isfinite(out).all()

    def test_token_index_out_of_range(self, model):
        tokens = np.full((1, 96), len(VOCAB), dtype=np.int64)
        with pytest.raises(IndexError):
            model.encode_text(tokens)

    def test_shuffled_caption_embeds_differently(self, tiny):
        rng = make_rng(5)
        differing = 0
        for i in range(10):
            record = sample_record(rng)
            caption = render_caption(record, TemplateKind.LOCATION, True)
            shuffled = shuffle_sentences(caption, make_rng(900 + i))
            if shuffled == caption:
                continue
            a = tiny.encode_text(tokenize(caption, VOCAB, 24)[None]).data
            b = tiny.encode_text(tokenize(shuffled, VOCAB, 24)[None]).data
            differing += int(not np.allclose(a, b))
        assert differing >= 8  # order enters via positions and convolution


class TestProjection:
    def test_rows_unit_norm(self, model):
        embeddings = Tensor(np.random.default_rng(3).standard_normal((5, 64)).astype(np.float32))
        out = model.project(embeddings, "image").data
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-5)

    def test_scale_invariance_at_init(self, model):
        base = np.random.default_rng(4).standard_normal((3, 64)).astype(np.float32)
        a = model.project(Tensor(base), "text").data
        b = model.project(Tensor(5.0 * base), "text").data
        assert np.allclose(a, b, atol=1e-5)

    def test_zero_row_stays_finite(self, model):
        out = model.project(Tensor(np.zeros((1, 64), np.float32)), "image").data
        assert np.isfinite(out).all()

    def test_unknown_modality(self, model):
        with pytest.raises(ValueError):
            model.project(Tensor(np.zeros((1, 64), np.float32)), "audio")

    def test_temperature_clamped(self, model):
        tau = float(model.temperature().data)
        assert 1e-3 <= tau <= 10.0
        assert np.isclose(tau, 0.07, rtol=1e-5)


class TestSimilarity:
    def test_orthonormal_rows_give_identity(self):
        basis = np.eye(4, 8).astype(np.float64)
        s = similarity_matrix(Tensor(basis), Tensor(basis))
        assert np.allclose(s.data, np.eye(4), atol=1e-12)

    def test_negated_text_negates_matrix(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 6))
        b = rng.standard_normal((3, 6))
        s1 = similarity_matrix(Tensor(a), Tensor(b)).data
        s2 = similarity_matrix(Tensor(a), Tensor(-b)).data
        assert np.allclose(s2, -s1)

    def test_matches_brute_force_dot_products(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((4, 7))
        b = rng.standard_normal((4, 7))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        s = similarity_matrix(Tensor(a), Tensor(b)).data
        for i in range(4):
            for j in range(4):
                expected = sum(a[i, k] * b[j, k] for k in range(7))
                assert abs(s[i, j] - expected) <= 1e-6


class TestInfoNce:
    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_uniform_similarities_give_log_n(self, n):
        s = Tensor(np.full((n, n), 0.37))
        loss = info_nce_loss(s, Tensor(np.asarray(0.5)))
        assert abs(float(loss.data) - math.log(n)) <= 1e-6

    def test_saturated_two_pair_case(self):
        s = Tensor(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        loss = info_nce_loss(s, Tensor(np.asarray(0.1)))
        expected = math.log1p(math.exp(-20.0))
        assert abs(float(loss.data) - expected) / expected <= 1e-12

    def test_pairing_invariance_under_joint_permutation(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal((6, 6))
        perm = rng.permutation(6)
        a = info_nce_loss(Tensor(s), Tensor(np.asarray(0.3)))
        b = info_nce_loss(Tensor(s[np.ix_(perm, perm)]), Tensor(np.asarray(0.3)))
        assert abs(float(a.data) - float(b.data)) <= 1e-9

    def test_loss_decreases_as_diagonal_grows(self):
        rng = np.random.default_rng(8)
        off = rng.standard_normal((3, 3)) * 0.1
        values = []
        for diag in (0.2, 0.5, 0.9):
            s = off.copy()
            np.fill_diagonal(s, diag)
            values.append(float(info_nce_loss(Tensor(s), Tensor(np.asarray(0.5))).data))
        assert values[0] > values[1] > values[2]

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError):
            info_nce_loss(Tensor(np.ones((1, 1))), Tensor(np.asarray(1.0)))

    def test_differentiable_through_temperature(self):
        s = Tensor(np.random.default_rng(9).standard_normal((3, 3)), requires_grad=True)
        log_tau = Tensor(np.asarray(math.log(0.2)), requires_grad=True)

        def f():
            return info_nce_loss(s, nn.clamp(nn.exp(log_tau), 1e-3, 10.0))

        assert finite_difference_check(f, [s, log_tau], h=1e-5) <= 1e-6


class TestNegativeCaptionLoss:
    def test_identical_rows_give_one(self):
        t = Tensor(np.random.default_rng(10).standard_normal((4, 8)))
        assert np.isclose(float(negative_caption_loss(t, t).data), 1.0, atol=1e-6)

    def test_orthogonal_rows_give_zero(self):
        a = np.zeros((2, 4))
        b = np.zeros((2, 4))
        a[:, 0] = 1.0
        b[:, 1] = 1.0
        assert abs(float(negative_caption_loss(Tensor(a), Tensor(b)).data)) <= 1e-12

    def test_negated_rows_give_minus_one(self):
        t = np.random.default_rng(11).standard_normal((4, 8))
        loss = negative_caption_loss(Tensor(t), Tensor(-t))
        assert np.isclose(float(loss.data), -1.0, atol=1e-6)

    def test_only_matched_pairs_contribute(self):
        rng = np.random.default_rng(12)
        pos = rng.standard_normal((5, 8))
        neg = rng.standard_normal((5, 8))
        base = float(negative_caption_loss(Tensor(pos), Tensor(neg)).data)
        perm = np.array([1, 0, 3, 4, 2])
        permuted = float(negative_caption_loss(Tensor(pos), Tensor(neg[perm])).data)
        assert abs(base - permuted) > 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(nn.ShapeError):
            negative_caption_loss(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))))


class TestTotalLoss:
    def test_lambda_zero_equals_infonce(self):
        rng = np.random.default_rng(13)
        s = Tensor(rng.standard_normal((4, 4)))
        pos = Tensor(rng.standard_normal((4, 8)))
        neg = Tensor(rng.standard_normal((4, 8)))
        tau = Tensor(np.asarray(0.3))
        total, nce, _ = total_loss(s, tau, pos, neg, neg_weight=0.0)
        assert float(total.data) == float(nce.data)

    def test_orthogonal_negative_adds_nothing(self):
        a = np.zeros((2, 4))
        b = np.zeros((2, 4))
        a[:, 0] = 1.0
        b[:, 1] = 1.0
        s = Tensor(np.eye(2))
        total, nce, _ = total_loss(s, Tensor(np.asarray(0.5)), Tensor(a), Tensor(b), 1.0)
        assert abs(float(total.data) - float(nce.data)) <= 1e-12

    def test_negative_weight_validation(self):
        s = Tensor(np.eye(2))
        t = Tensor(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            total_loss(s, Tensor(np.asarray(0.5)), t, t, neg_weight=-0.1)


def build_fd_model_and_loss(seed):
    """Tiny float64 model plus a 4-sample total_loss closure for gradient checks."""
    cfg = ModelConfig(
        height=16,
        width=16,
        channels=(3, 4, 4),
        embed_dim=4,
        proj_dim=3,
        vocab_size=12,
        max_len=8,
    )
    model = DualEncoder(cfg, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed)
    images = rng.random((4, 16, 16))
    pos = rng.integers(1, 12, (4, 8))
    neg = rng.integers(1, 12, (4, 8))
    pos[:, -2:] = 0
    neg[:, -1:] = 0

    def f():
        image_u = model.encode_image(images)
        text_u = model.encode_text(pos)
        text_n = model.encode_text(neg)
        sim = similarity_matrix(model.project(image_u, "image"), model.project(text_u, "text"))
        total, _nce, _neg = total_loss(sim, model.temperature(), text_u, text_n, 0.5)
        return total

    return model, f


def test_branch_trace_sees_every_conv2d_and_clamp_of_the_model_loss():
    # 3 image convs, 2 text convs for each of the positive and negative
    # batches, and the temperature's clamp: a module that imported either op
    # by name would bypass the wrappers and shorten the trace
    _model, f = build_fd_model_and_loss(0)
    with branch_trace() as trace:
        f()
    assert len(trace) == 3 + 2 * 2 + 1


def test_full_model_gradient_matches_finite_differences():
    # h=1e-6: the tiny model's normalize layers are strongly curved, so the
    # central difference needs a small step; float64 keeps the noise floor
    # orders of magnitude below it
    worst = 0.0
    for seed in range(5):
        model, f = build_fd_model_and_loss(seed)
        params = list(model.parameters().values())
        worst = max(worst, finite_difference_check(f, params, h=1e-6, max_coords=6))
    assert worst <= 1e-4, worst
