"""The three configs are values: checked once, when built, and never changed after."""

import dataclasses

import pytest

from oavl import training
from oavl.captions import build_vocabulary
from oavl.model import DualEncoder, ModelConfig
from oavl.synth import SynthConfig, SynthConfigError
from oavl.training import TrainConfig, load_checkpoint, save_checkpoint

# (config, a field and a value it refuses, the error it raises)
CONFIGS = [
    (SynthConfig(), {"height": 16}, SynthConfigError),
    (TrainConfig(), {"batch_size": 1}, ValueError),
    (ModelConfig(), {"vocab_size": 2}, ValueError),
]
IDS = ["synth", "train", "model"]


def test_default_model_config_covers_the_caption_grammar():
    assert ModelConfig().vocab_size == len(build_vocabulary())


@pytest.mark.parametrize("cfg", [c for c, _, _ in CONFIGS], ids=IDS)
def test_fields_cannot_be_assigned(cfg):
    name = dataclasses.fields(cfg)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, name, getattr(cfg, name))


@pytest.mark.parametrize("cfg, bad, error", CONFIGS, ids=IDS)
def test_replace_checks_the_new_value(cfg, bad, error):
    with pytest.raises(error):
        dataclasses.replace(cfg, **bad)


def test_load_does_not_build_the_vocabulary(tmp_path, monkeypatch):
    # the grammar's size comes from the import-time constant, not a build per load
    vocab_size = len(build_vocabulary())
    cfg = ModelConfig(32, 32, (4, 4, 4), embed_dim=8, proj_dim=4, vocab_size=vocab_size)
    model = DualEncoder(cfg, seed=0)
    path = str(tmp_path / "model.bin")
    save_checkpoint(path, model, TrainConfig(), epoch=0)

    def refuse():
        raise AssertionError("load built the caption vocabulary")

    monkeypatch.setattr(training, "build_vocabulary", refuse)
    loaded = load_checkpoint(path).model
    assert loaded.cfg == cfg
    for name, p in model.parameters().items():
        assert (loaded.parameters()[name].data == p.data).all(), name
