"""Golden digests: pin the exact bytes the score schema and caption grammar produce.

A reordered clause, a renamed label or one extra RNG draw in sampling or
perturbation changes a digest here even when every structural test still
passes. A digest may change only with a deliberate change of output, and
the change must say why.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from oavl.captions import DEFAULT_MAX_LEN, TEMPLATE_ORDER, build_vocabulary, render_caption
from oavl.scores import perturb_negative, sample_record, severity_signature
from oavl.seeding import make_rng
from oavl.synth import SynthConfig, generate_dataset
from oavl.training import TrainConfig, _batch_tokens, epoch_plan, signature_groups

N_RECORDS = 200


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def records():
    return [
        sample_record(np.random.default_rng([7, i]), record_id=f"g-{i:03d}")
        for i in range(N_RECORDS)
    ]


@pytest.fixture(scope="module")
def negatives(records):
    return [
        perturb_negative(r, np.random.default_rng([11, i])) for i, r in enumerate(records)
    ]


def _record_lines(records):
    return [json.dumps(r.to_json_dict(), sort_keys=True) for r in records]


def test_sampled_records(records):
    assert _digest(_record_lines(records)) == (
        "414a9fc6cfe66d0a6a513a4356040f106669dd58a4b3da8f3a2c970d2dc4461d"
    )


def test_negatives(negatives):
    assert _digest(_record_lines(negatives)) == (
        "1eeb40a2bfd66cdb1ec070bec3973f65ee0bd5a168bcca62b12dfe9a724802ac"
    )


def test_signatures(records, negatives):
    lines = [repr(severity_signature(r)) for r in records + negatives]
    assert _digest(lines) == (
        "ee3181ae932c86969527ee1dd37d2ae743cf9c734c80007c61cc5aae845a11a9"
    )


CAPTION_DIGESTS = {
    # (include_zero_grades, include_demographics): digest over records then negatives
    (True, False): "668b897e6c77acc8e209ecefb435340172b32ead14d8699943c82c3fdf44e56e",
    (True, True): "e3186aafe6a09f0c656468dacf41a84baf06df6dfb5238e15cb602af80edbdaf",
    (False, False): "d217ae67646b30cc4ff0d123bf36b1df1bc5d0b5a571bb09484e8edb09edb8b2",
    (False, True): "b8dcfc23a206ef15391b3df84f6804b218741b19a244326d92c71043cdbf6851",
}


@pytest.mark.parametrize(
    "include_zero, demographics", list(itertools.product((True, False), repeat=2))
)
def test_captions(records, negatives, include_zero, demographics):
    lines = [
        render_caption(r, kind, include_zero, demographics)
        for r in records + negatives
        for kind in TEMPLATE_ORDER
    ]
    assert _digest(lines) == CAPTION_DIGESTS[(include_zero, demographics)]


STREAM_DIGESTS = {
    # fit's caption stream for epochs 0-2: plan lines "epoch id kind shuffle",
    # then each positive and negative token row
    "plan": "e4fbf364a37b7f49d1e0293a38d4ecca99ab0bec81e2cb6d8db1c6f979395ea8",
    "positive": "c4901c35e9f0464f953c273566d37d7c9535841b0b83d205ebce0e8ea54201cd",
    "negative": "523b3f047f893aecfe86f4f06159393dceeacb435ed6705fc825eaf67119cd5b",
}


@pytest.fixture(scope="module")
def caption_stream(records):
    """Plan and token lines of the first three epochs, drawn as fit draws them."""
    cfg = TrainConfig(batch_size=32, seed=3)
    vocab = build_vocabulary()
    groups = signature_groups(records)
    lines = {stream: [] for stream in STREAM_DIGESTS}
    for epoch in range(3):
        for batch in epoch_plan(groups, cfg, make_rng(cfg.seed, "plan", epoch)):
            lines["plan"] += [
                f"{epoch} {item.record.id} {item.kind.value} {int(item.shuffle)}" for item in batch
            ]
            pos, neg = _batch_tokens(batch, cfg, vocab, DEFAULT_MAX_LEN, epoch)
            lines["positive"] += [" ".join(map(str, row)) for row in pos]
            lines["negative"] += [" ".join(map(str, row)) for row in neg]
    return lines


@pytest.mark.parametrize("stream", sorted(STREAM_DIGESTS))
def test_training_caption_stream(caption_stream, stream):
    assert _digest(caption_stream[stream]) == STREAM_DIGESTS[stream]


def test_generated_manifest(tmp_path):
    generate_dataset(24, SynthConfig(height=32, width=32, seed=5), str(tmp_path))
    data = (tmp_path / "manifest.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "d4237dbcbc7979c48716fd9d338c4e123d449b506836b759d541abeb2a1fac4e"
    )
