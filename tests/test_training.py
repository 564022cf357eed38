import io
import json
import os
import re
import sys
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oavl import evaluation, nn, training
from oavl.captions import TEMPLATE_ORDER, build_vocabulary, render_caption, tokenize
from oavl.model import DualEncoder, ModelConfig
from oavl.scores import perturb_negative, sample_record, severity_signature
from oavl.seeding import make_rng
from oavl.synth import PgmError, SynthConfig, generate_dataset, read_pgm, write_pgm
from oavl.training import (
    CHECKPOINT_MAGIC,
    Checkpoint,
    CheckpointError,
    TrainConfig,
    TrainingError,
    checkpoint_tensor_listing,
    epoch_plan,
    fit,
    load_checkpoint,
    matched_negative_cosine,
    save_checkpoint,
    signature_groups,
    train_step,
)

from conftest import (
    NOT_UTF8,
    broken_json_objects,
    checkpoint_file,
    checkpoint_parts,
    make_record,
    spliced,
    truncated,
)

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
        # a TrainConfig refuses zero rates, so step Adam at zero on one step's gradients
        cfg = tiny_model_cfg()
        model = DualEncoder(cfg, seed=1)
        train_step(model, *random_batch(cfg, seed=1), TrainConfig())
        for name, p in model.parameters().items():
            before = p.data.copy()
            assert p.grad.any(), name
            nn.adam_step(p, lr=0.0, weight_decay=0.0)
            assert np.array_equal(p.data, before), name

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

    def test_default_size_step_allocates_at_most_31_mib(self):
        # tracemalloc peak of one step at the default ModelConfig and batch 32:
        # 75.1 MiB while each conv block added its bias in a separate node and
        # backward copied every gradient it handed on, 54.9 MiB while every
        # backward closure kept its saved arrays until the step returned,
        # 39.7 MiB once the sweep freed each closure after it had run (34.7
        # MiB after later changes), and 30.1 MiB since the graph keeps no relu
        # mask, token gather or pad-masked product that no gradient rule reads
        cfg = ModelConfig(vocab_size=len(VOCAB))
        model = DualEncoder(cfg, seed=0)
        batch = random_batch(cfg, batch=32, seed=0)
        tracemalloc.start()
        try:
            train_step(model, *batch, TrainConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 31 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.skipif(sys.platform != "linux", reason="counts page faults through getrusage")
def test_steps_after_the_first_fault_in_no_fresh_pages():
    # each default-size step frees and re-allocates ~55 MiB; with glibc's
    # default trimming the heap top went back to the OS after every step and
    # came back as ~2,400 minor page faults per step
    import resource

    from oavl.training import _keep_freed_heap

    _keep_freed_heap()
    cfg = ModelConfig(vocab_size=len(VOCAB))
    model = DualEncoder(cfg, seed=0)
    batch = random_batch(cfg, batch=32, seed=0)
    for _ in range(3):
        train_step(model, *batch, TrainConfig())
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        train_step(model, *batch, TrainConfig())
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 3 * 300, faults


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(lr_text=0.0)
        with pytest.raises(ValueError):
            TrainConfig(neg_weight=-1.0)

    def test_json_round_trip(self):
        cfg = TrainConfig(epochs=3, seed=9)
        assert TrainConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            TrainConfig.from_json_dict({"lr": 1.0})

    def test_unknown_key_reported_before_a_missing_one(self):
        obj = TrainConfig().to_json_dict()
        del obj["shuffle_prob"], obj["seed"]
        with pytest.raises(ValueError, match="^missing config key 'shuffle_prob'$"):
            TrainConfig.from_json_dict(obj)
        obj["lr"] = 1.0
        with pytest.raises(ValueError, match="^unknown config key 'lr'$"):
            TrainConfig.from_json_dict(obj)


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

    def test_steps_and_validation_get_the_images_read_pgm_reads(self, small_dataset, monkeypatch):
        # fit keeps 16-bit samples and converts a batch at a time; the floats
        # must be read_pgm's, bit for bit
        by_id = {e.record.id: e for e in small_dataset.entries}

        def pgm_stack(ids):
            return np.stack([read_pgm(small_dataset.resolve_image(by_id[i])) for i in ids])

        batches, steps, val_passes = [], [], []
        batch_tokens, step, zero_shot = (
            training._batch_tokens, training.train_step, evaluation.zero_shot_eval
        )

        def recording_tokens(items, *args):
            batches.append([item.record.id for item in items])
            return batch_tokens(items, *args)

        def recording_step(model, images, *args):
            steps.append((batches[-1], images.copy()))
            return step(model, images, *args)

        def recording_zero_shot(model, entries, images, vocab):
            val_passes.append({i: image.copy() for i, image in images.items()})
            return zero_shot(model, entries, images, vocab)

        monkeypatch.setattr(training, "_batch_tokens", recording_tokens)
        monkeypatch.setattr(training, "train_step", recording_step)
        monkeypatch.setattr(evaluation, "zero_shot_eval", recording_zero_shot)
        fit(small_dataset, TrainConfig(epochs=2, batch_size=4, seed=3), tiny_model_cfg())
        assert len(steps) >= 4 and len(val_passes) == 2
        for ids, images in steps:
            assert images.dtype == np.float32
            assert images.tobytes() == pgm_stack(ids).tobytes()
        val_ids = [e.record.id for e in small_dataset.split("val")]
        for images in val_passes:
            assert list(images) == val_ids
            assert np.stack(list(images.values())).tobytes() == pgm_stack(val_ids).tobytes()

    @pytest.mark.parametrize("split, row", [("train", -1), ("val", 0)])
    def test_image_of_another_size_is_rejected_before_the_first_step(
        self, split, row, tmp_path, monkeypatch
    ):
        manifest = generate_dataset(24, SynthConfig(height=32, width=32, seed=5), str(tmp_path))
        path = manifest.resolve_image(manifest.split(split)[row])
        write_pgm(path, np.zeros((40, 32)))

        def no_step(*args):
            raise AssertionError("train_step ran")

        monkeypatch.setattr(training, "train_step", no_step)
        with pytest.raises(TrainingError, match=re.escape(path) + ": image is 32x40, .* is 32x32"):
            fit(manifest, TrainConfig(epochs=1, batch_size=4), tiny_model_cfg())

    def test_truncated_image_is_pgm_error_naming_the_file(self, tmp_path):
        manifest = generate_dataset(24, SynthConfig(height=32, width=32, seed=5), str(tmp_path))
        path = manifest.resolve_image(manifest.split("train")[3])
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:-7])
        with pytest.raises(PgmError, match=re.escape(path) + ": payload holds"):
            fit(manifest, TrainConfig(epochs=1, batch_size=4), tiny_model_cfg())


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

    def test_load_draws_no_init_stream(self, tmp_path, monkeypatch):
        # the payload holds every parameter, so load builds them from it
        path, model, _cfg = self._saved(tmp_path)

        def no_stream(*args):
            raise AssertionError(f"load drew the init stream {args}")

        monkeypatch.setattr("oavl.model.make_rng", no_stream)
        loaded = load_checkpoint(path).model
        for name, p in model.parameters().items():
            q = loaded.param(name)
            assert q.data.dtype == np.float32 and q.data.flags.writeable
            assert q.data.tobytes() == p.data.tobytes()
        # a model given its parameters holds those very objects and draws nothing
        given = DualEncoder(loaded.cfg, params=loaded.parameters())
        assert all(given.param(name) is p for name, p in loaded.parameters().items())

    def test_loaded_model_takes_the_same_adam_step(self, tmp_path):
        # bit-equal only if every loaded array is writable and none shares memory
        path, model, train_cfg = self._saved(tmp_path)
        loaded = load_checkpoint(path).model
        images, pos, neg = random_batch(model.cfg, seed=1)
        losses = train_step(loaded, images, pos, neg, train_cfg)
        assert losses == train_step(model, images, pos, neg, train_cfg)
        for name, p in model.parameters().items():
            q = loaded.param(name)
            for attr in ("data", "m", "v"):
                assert getattr(q, attr).tobytes() == getattr(p, attr).tobytes(), (name, attr)
            assert q.t == p.t == 2

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
        with pytest.raises(CheckpointError, match="checksum mismatch"):
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
        params = model.parameters()
        slots = [(name, p.data) for name, p in params.items()]
        slots += [
            (f"optim.{name}.{attr}", getattr(p, attr)) for name, p in params.items() for attr in "mv"
        ]
        expected = [
            (name, a.shape, zlib.crc32(np.asarray(a, dtype="<f4").tobytes())) for name, a in slots
        ]
        assert checkpoint_tensor_listing(path) == expected

    @pytest.mark.parametrize("spread", ["uniform", "distinct"])
    def test_step_counts_round_trip_exactly(self, spread, tmp_path):
        # 2**24 + 1 is the first count a float32 cannot hold
        path, model, train_cfg = self._saved(tmp_path)
        rng = np.random.default_rng(7)
        for p in model.parameters().values():
            p.t = 2**24 + 1 if spread == "uniform" else int(rng.integers(2**24, 2**40 + 1))
        save_checkpoint(path, model, train_cfg, epoch=3)
        loaded = load_checkpoint(path).model
        assert {n: p.t for n, p in model.parameters().items()} == {
            n: q.t for n, q in loaded.parameters().items()
        }


# --- hostile checkpoints: every malformed file ends in CheckpointError --------


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    """The JSON header bytes and the payload of a saved tiny model."""
    path = tmp_path_factory.mktemp("ckpt-fuzz") / "model.bin"
    save_checkpoint(str(path), DualEncoder(tiny_model_cfg(), seed=2), TrainConfig(seed=2), epoch=1)
    meta, payload = checkpoint_parts(path.read_bytes())
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8"), payload


@st.composite
def edited_meta(draw, payload: bytes) -> bytes:
    kind = draw(st.sampled_from(("field", "bytes", "text", "cut")))
    if kind == "field":
        return json.dumps(draw(broken_json_objects(json.loads(payload)))).encode("utf-8")
    if kind == "bytes":
        return draw(spliced(payload, NOT_UTF8))
    if kind == "text":
        return draw(st.text(max_size=20)).encode("utf-8")
    return draw(truncated(payload))


def _edited_checkpoint(draw, header: bytes, payload: bytes) -> bytes:
    """A valid checkpoint after 1-2 drawn edits: its header JSON, its u32
    header length, its payload cut or grown by k bytes, bytes after its CRC,
    or its magic. The CRC is recomputed over the other edits, so they reach
    the parser instead of failing the checksum."""
    original, magic, header_len, trailing = header, CHECKPOINT_MAGIC, None, b""
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("meta", "length", "cut", "grow", "trailing", "magic")))
        if kind == "meta":
            header = draw(edited_meta(original))
        elif kind == "length":
            near = st.integers(0, len(header) + 2 * len(payload))
            header_len = draw(st.one_of(near, st.integers(0, 2**32 - 1)))
        elif kind == "cut":
            payload = payload[: max(0, len(payload) - draw(st.integers(1, 64)))]
        elif kind == "grow":
            payload += draw(st.binary(min_size=1, max_size=64))
        elif kind == "trailing":
            trailing = draw(st.binary(min_size=1, max_size=8))
        else:
            old = st.sampled_from([b"OAVL0001", b"OAVL9999", CHECKPOINT_MAGIC.lower()])
            magic = draw(st.one_of(old, st.binary(min_size=8, max_size=8)))
    return checkpoint_file(header, payload, header_len, magic) + trailing


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_edited_checkpoint_loads_or_raises_checkpoint_error(
    tmp_path_factory, checkpoint_bytes, data
):
    path = tmp_path_factory.getbasetemp() / "edited.bin"
    path.write_bytes(_edited_checkpoint(data.draw, *checkpoint_bytes))
    for read in (load_checkpoint, checkpoint_tensor_listing):
        try:
            read(str(path))
        except CheckpointError:
            pass


@pytest.mark.parametrize(
    "meta",
    [b"[" * 100_000, b'{"a": ' * 100_000, b"1" * 5000],
    ids=["deep-array", "deep-object", "long-int"],
)
def test_config_json_past_the_parser_limits_is_checkpoint_error(tmp_path, checkpoint_bytes, meta):
    path = tmp_path / "limits.bin"
    path.write_bytes(checkpoint_file(meta, checkpoint_bytes[1]))
    with pytest.raises(CheckpointError, match="malformed checkpoint config"):
        load_checkpoint(str(path))


def test_config_declaring_a_huge_layer_is_rejected_before_allocation(tmp_path, checkpoint_bytes):
    # the payload's size is checked against the config before the model is
    # built; building it first would ask numpy for a 2**40-row embedding table
    header, payload = checkpoint_bytes
    config = json.loads(header)
    config["model"]["vocab_size"] = 2**40
    path = tmp_path / "huge-vocab.bin"
    path.write_bytes(checkpoint_file(config, payload))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="payload holds"):
            load_checkpoint(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
