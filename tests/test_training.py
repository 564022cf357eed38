import io
import os

import numpy as np
import pytest

from oavl.captions import TEMPLATE_ORDER, build_vocabulary, render_caption, tokenize
from oavl.model import DualEncoder, ModelConfig
from oavl.scores import perturb_negative, sample_record, severity_signature
from oavl.seeding import make_rng
from oavl.synth import SynthConfig, generate_dataset
from oavl.training import (
    Checkpoint,
    CheckpointError,
    TrainConfig,
    checkpoint_tensor_listing,
    epoch_plan,
    fit,
    load_checkpoint,
    matched_negative_cosine,
    save_checkpoint,
    signature_groups,
    train_step,
)

from conftest import make_record

VOCAB = build_vocabulary()


def tiny_model_cfg(height=32, width=32):
    return ModelConfig(
        height=height,
        width=width,
        channels=(8, 8, 8),
        embed_dim=16,
        proj_dim=8,
        vocab_size=len(VOCAB),
        max_len=48,
    )


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    cfg = SynthConfig(height=32, width=32, seed=5)
    manifest = generate_dataset(24, cfg, str(out))
    return manifest


class TestEpochPlan:
    def test_unique_signatures_all_survive(self):
        rng = make_rng(1)
        records = [sample_record(rng, f"u{i}") for i in range(40)]
        unique = {}
        for r in records:
            unique.setdefault(severity_signature(r), r)
        groups = signature_groups(list(unique.values()))
        cfg = TrainConfig(batch_size=4)
        plan = epoch_plan(groups, cfg, make_rng(2))
        planned = [item for batch in plan for item in batch]
        assert len(planned) == (len(groups) // 4) * 4

    def test_identical_signatures_one_survivor(self):
        records = [make_record(record_id=f"d{i}", kl=2, fill=2) for i in range(10)]
        cfg = TrainConfig(batch_size=2)
        plan = epoch_plan(signature_groups(records), cfg, make_rng(3))
        assert sum(len(b) for b in plan) == 0  # single survivor < batch_size, tail dropped

        mixed = records + [make_record(record_id="x", kl=4, fill=4)]
        plan = epoch_plan(signature_groups(mixed), cfg, make_rng(3))
        planned = [item.record.id for batch in plan for item in batch]
        assert len(planned) == 2
        assert "x" in planned

    def test_batches_have_distinct_signatures(self):
        rng = make_rng(4)
        records = [sample_record(rng, f"s{i}") for i in range(60)]
        groups = signature_groups(records)
        cfg = TrainConfig(batch_size=8)
        for epoch in range(5):
            plan = epoch_plan(groups, cfg, make_rng(9, epoch))
            for batch in plan:
                signatures = [severity_signature(i.record) for i in batch]
                assert len(set(signatures)) == len(signatures)

    def test_tail_dropped(self):
        rng = make_rng(5)
        records = [sample_record(rng, f"t{i}") for i in range(10)]
        survivors = len({severity_signature(r) for r in records})
        plan = epoch_plan(signature_groups(records), TrainConfig(batch_size=4), make_rng(6))
        assert sum(len(b) for b in plan) == (survivors // 4) * 4

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            epoch_plan([], TrainConfig(), make_rng(0))

    def test_duplicate_groups_all_members_eventually_selected(self):
        # groups of size 2, 3, 4 sharing a signature within each group
        group_sizes = {2: 2, 3: 3, 4: 4}
        records = []
        for kl, size in group_sizes.items():
            for j in range(size):
                records.append(make_record(record_id=f"g{kl}-{j}", kl=kl, fill=kl))
        groups = signature_groups(records)
        cfg = TrainConfig(batch_size=3)
        failures = 0
        for seed in range(10):
            counts = {r.id: 0 for r in records}
            for epoch in range(20):
                for batch in epoch_plan(groups, cfg, make_rng(seed, "ep", epoch)):
                    for item in batch:
                        counts[item.record.id] += 1
            failures += sum(1 for c in counts.values() if c == 0)
        assert failures <= 1


def random_batch(model_cfg, batch=8, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.random((batch, model_cfg.height, model_cfg.width)).astype(np.float32)
    pos = rng.integers(1, model_cfg.vocab_size, (batch, model_cfg.max_len))
    neg = rng.integers(1, model_cfg.vocab_size, (batch, model_cfg.max_len))
    return images, pos, neg


class TestTrainStep:
    def test_lambda_zero_total_equals_infonce(self):
        cfg = tiny_model_cfg()
        model = DualEncoder(cfg, seed=0)
        images, pos, neg = random_batch(cfg)
        total, nce, _ = train_step(model, images, pos, neg, TrainConfig(neg_weight=0.0))
        assert total == nce

    def test_zero_rates_leave_parameters_untouched(self):
        cfg = tiny_model_cfg()
        model = DualEncoder(cfg, seed=1)
        before = {k: p.data.copy() for k, p in model.parameters().items()}
        images, pos, neg = random_batch(cfg, seed=1)
        frozen = TrainConfig(lr_image=0.0, lr_text=0.0, lr_projection=0.0, weight_decay=0.0)
        train_step(model, images, pos, neg, frozen)
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, before[name]), name

    def test_each_group_steps_at_its_own_rate(self):
        # a first Adam step moves p to p * (1 - lr * decay) - lr * g / (|g| + eps)
        cfg = tiny_model_cfg()
        model = DualEncoder(cfg, seed=4)
        before = {k: p.data.astype(np.float64) for k, p in model.parameters().items()}
        train_cfg = TrainConfig(lr_image=1e-2, lr_text=2e-2, lr_projection=4e-2, weight_decay=0.5)
        train_step(model, *random_batch(cfg, seed=4), train_cfg)
        rates = {"image": 1e-2, "text": 2e-2, "proj": 4e-2, "log_temperature": 4e-2}
        for name, p in model.parameters().items():
            lr = rates[name.split(".")[0]]
            decay = 0.0 if name == "log_temperature" else train_cfg.weight_decay
            g = p.grad.astype(np.float64)
            assert np.abs(g).max() > 1e-4, name
            expected = before[name] * (1.0 - lr * decay) - lr * g / (np.abs(g) + 1e-8)
            np.testing.assert_allclose(p.data, expected, rtol=0, atol=1e-6, err_msg=name)

    def test_two_steps_descend_in_most_trials(self):
        cfg = tiny_model_cfg()
        descents = 0
        for seed in range(20):
            model = DualEncoder(cfg, seed=seed)
            images, pos, neg = random_batch(cfg, seed=seed)
            train_cfg = TrainConfig()
            first, _, _ = train_step(model, images, pos, neg, train_cfg)
            second, _, _ = train_step(model, images, pos, neg, train_cfg)
            descents += int(second <= first)
        assert descents >= 18

    def test_returns_three_finite_losses(self):
        cfg = tiny_model_cfg()
        model = DualEncoder(cfg, seed=3)
        values = train_step(model, *random_batch(cfg, seed=3), TrainConfig())
        assert len(values) == 3 and all(np.isfinite(v) for v in values)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1).validate()
        with pytest.raises(ValueError):
            TrainConfig(lr_text=0.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(neg_weight=-1.0).validate()

    def test_json_round_trip(self):
        cfg = TrainConfig(epochs=3, seed=9)
        assert TrainConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            TrainConfig.from_json_dict({"lr": 1.0})


class TestFit:
    def test_zero_epochs_keeps_initialization(self, small_dataset):
        cfg = TrainConfig(epochs=0, batch_size=4, seed=7)
        model, report = fit(small_dataset, cfg, tiny_model_cfg())
        assert report.epochs == []
        reference = DualEncoder(tiny_model_cfg(), seed=7)
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, reference.param(name).data)

    def test_fixed_seed_is_bitwise_deterministic(self, small_dataset, tmp_path):
        cfg = TrainConfig(epochs=2, batch_size=4, seed=11)
        model_a, report_a = fit(small_dataset, cfg, tiny_model_cfg())
        model_b, report_b = fit(small_dataset, cfg, tiny_model_cfg())
        assert report_a.epochs[-1].mean_total == report_b.epochs[-1].mean_total
        for name, p in model_a.parameters().items():
            assert np.array_equal(p.data, model_b.param(name).data)
        save_checkpoint(str(tmp_path / "a.bin"), model_a, cfg, epoch=2)
        save_checkpoint(str(tmp_path / "b.bin"), model_b, cfg, epoch=2)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_fewer_signatures_than_batch_size_rejected(self, small_dataset):
        # 19 train records: a batch of 32 would never fill, so no step would run
        signatures = len({severity_signature(e.record) for e in small_dataset.split("train")})
        cfg = TrainConfig(epochs=1, batch_size=32)
        with pytest.raises(ValueError, match=f"{signatures} distinct .* batch_size 32"):
            fit(small_dataset, cfg, tiny_model_cfg())
        fit(small_dataset, TrainConfig(epochs=0, batch_size=32), tiny_model_cfg())

    def test_records_epoch_stats_and_validation_accuracy(self, small_dataset):
        cfg = TrainConfig(epochs=2, batch_size=4, seed=3)
        _model, report = fit(small_dataset, cfg, tiny_model_cfg())
        assert len(report.epochs) == 2
        for stats in report.epochs:
            assert np.isfinite(stats.mean_total)
            assert stats.val_zero_shot_accuracy is not None
            assert 0.0 <= stats.val_zero_shot_accuracy <= 1.0

    def test_negative_cosine_drops_from_initialization(self, small_dataset):
        # the cosine gradient is small while pos/neg embeddings are near
        # parallel, so give the push enough steps to bite
        cfg = TrainConfig(epochs=20, batch_size=4, seed=13, neg_weight=0.5)
        _model, report = fit(small_dataset, cfg, tiny_model_cfg())
        assert report.final_neg_cosine < report.initial_neg_cosine - 0.05


class TestProbe:
    def test_matched_negative_cosine_is_mean_of_row_cosines(self):
        model = DualEncoder(tiny_model_cfg(), seed=4)
        rng = make_rng(21)
        records = [sample_record(rng, f"p{i}") for i in range(70)]
        kinds = [TEMPLATE_ORDER[i % len(TEMPLATE_ORDER)] for i in range(70)]
        negatives = [perturb_negative(r, make_rng(22, r.id)) for r in records]

        def embed(record, kind):
            tokens = tokenize(render_caption(record, kind), VOCAB, model.cfg.max_len)
            return model.encode_text(tokens[None]).data[0].astype(np.float64)

        cosines = []
        for record, kind, negative in zip(records, kinds, negatives):
            a, b = embed(record, kind), embed(negative, kind)
            cosines.append(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        value = matched_negative_cosine(model, records, kinds, negatives, VOCAB)
        assert abs(value - np.mean(cosines)) <= 1e-6


class TestCheckpoint:
    def _saved(self, tmp_path, seed=0, epoch=3):
        cfg = tiny_model_cfg()
        model = DualEncoder(cfg, seed=seed)
        images, pos, neg = random_batch(cfg, seed=seed)
        train_cfg = TrainConfig(seed=seed)
        train_step(model, images, pos, neg, train_cfg)  # populate adam state
        path = str(tmp_path / "model.bin")
        save_checkpoint(path, model, train_cfg, epoch=epoch)
        return path, model, train_cfg

    def test_save_load_bit_exact(self, tmp_path):
        path, model, train_cfg = self._saved(tmp_path)
        loaded = load_checkpoint(path)
        assert loaded.epoch == 3
        assert loaded.train_config == train_cfg
        assert loaded.model.cfg == model.cfg
        for name, p in model.parameters().items():
            q = loaded.model.param(name)
            assert np.array_equal(p.data, q.data)
            assert np.array_equal(p.m, q.m)
            assert np.array_equal(p.v, q.v)
            assert p.t == q.t

    def test_save_load_save_byte_identical(self, tmp_path):
        path, _model, train_cfg = self._saved(tmp_path)
        loaded = load_checkpoint(path)
        second = str(tmp_path / "second.bin")
        save_checkpoint(second, loaded.model, loaded.train_config, epoch=loaded.epoch)
        assert open(path, "rb").read() == open(second, "rb").read()

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path, model, train_cfg = self._saved(tmp_path)
        before = open(path, "rb").read()

        class DiskFull(io.FileIO):
            def write(self, data):
                super().write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr("oavl.synth.open", DiskFull, raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(path, model, train_cfg, epoch=9)
        assert open(path, "rb").read() == before
        assert os.listdir(tmp_path) == ["model.bin"]

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        path, _model, _cfg = self._saved(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum|truncated|dtype|unexpected"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path, _model, _cfg = self._saved(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[:8] = b"XXXX0000"
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path, _model, _cfg = self._saved(tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_listing_matches_parameter_names(self, tmp_path):
        path, model, _cfg = self._saved(tmp_path)
        names = [name for name, _dims, _crc in checkpoint_tensor_listing(path)]
        for parameter_name in model.parameters():
            assert parameter_name in names
            assert f"optim.{parameter_name}.m" in names
        assert "meta.config_json" in names
