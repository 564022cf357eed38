import io
import json
import os
import shutil
import struct
import subprocess
import sys
import zlib
from dataclasses import asdict

import pytest

import oavl
from oavl.captions import split_text
from oavl.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from oavl.synth import SynthConfig, read_manifest, read_pgm
from oavl.training import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    TrainConfig,
    _read_checkpoint_tensors,
    _serialize_tensor,
    load_checkpoint,
)

from conftest import make_record


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-ds")
    code = main(
        [
            "synth", "--n", "16", "--seed", "7", "--out-dir", str(out),
            "--height", "32", "--width", "32",
        ]
    )
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, dataset_dir):
    out = tmp_path_factory.mktemp("cli-train")
    ckpt = out / "model.bin"
    report = out / "report.json"
    code = main(
        [
            "train", "--manifest", str(dataset_dir / "manifest.jsonl"),
            "--out", str(ckpt), "--report", str(report),
            "--epochs", "1", "--batch-size", "4", "--seed", "3", "--quiet",
        ]
    )
    assert code == EXIT_OK
    return ckpt, report


def test_import_leaves_numpy_unloaded():
    # --threads must be pinned before numpy loads, so the CLI module may not load it
    src = os.path.dirname(os.path.dirname(oavl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, oavl.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_config_file_may_set_every_config_field(tmp_path):
    synth_cfg = SynthConfig(height=32, width=32, noise_sigma=0.02, max_shift=1, seed=4)
    train_cfg = TrainConfig(
        epochs=1, batch_size=4, lr_image=2e-4, lr_text=2e-3, lr_projection=3e-3,
        weight_decay=0.0, neg_weight=0.25, shuffle_prob=0.0, include_zero_grades=False,
        seed=4,
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**asdict(synth_cfg), **asdict(train_cfg), "n": 12}))
    data = tmp_path / "data"
    assert main(["--config", str(config), "synth", "--out-dir", str(data)]) == EXIT_OK
    manifest = read_manifest(str(data / "manifest.jsonl"))
    assert len(manifest.entries) == 12
    assert read_pgm(manifest.resolve_image(manifest.entries[0])).shape == (32, 32)
    ckpt = tmp_path / "model.bin"
    code = main(
        [
            "--config", str(config), "train", "--manifest", str(data / "manifest.jsonl"),
            "--out", str(ckpt), "--quiet",
        ]
    )
    assert code == EXIT_OK
    assert load_checkpoint(str(ckpt)).train_config == train_cfg


def _command(name, dataset_dir, trained, tmp_path):
    """Arguments that run one subcommand on the module's dataset and checkpoint."""
    manifest = str(dataset_dir / "manifest.jsonl")
    return {
        "synth": ["synth", "--n", "12", "--out-dir", str(tmp_path / "data")],
        "train": ["train", "--manifest", manifest, "--out", str(tmp_path / "m.bin"), "--quiet"],
        "retrieval": [
            "eval", "retrieval", "--checkpoint", str(trained[0]), "--manifest", manifest,
            "--out", str(tmp_path / "retr"), "--baseline-draws", "5",
        ],
    }[name]


# (case, subcommand, config file whose only value has the wrong JSON type)
WRONG_TYPE_CONFIGS = [
    ("epochs-string", "train", {"epochs": "3"}),
    ("epochs-bool", "train", {"epochs": True}),
    ("height-string", "synth", {"height": "64"}),
    ("seed-float", "synth", {"seed": 1.5}),
    ("k-string", "retrieval", {"k": "5"}),
]


@pytest.mark.parametrize(
    "command, config", [c[1:] for c in WRONG_TYPE_CONFIGS], ids=[c[0] for c in WRONG_TYPE_CONFIGS]
)
def test_config_value_of_wrong_type_is_validation_error(
    command, config, dataset_dir, trained, tmp_path, capsys
):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["--config", str(path)] + _command(command, dataset_dir, trained, tmp_path))
    assert code == EXIT_VALIDATION
    assert f"config key {next(iter(config))!r}" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_config_int_passes_as_float(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"noise_sigma": 0, "n": 12, "height": 32, "width": 32}))
    data = tmp_path / "data"
    assert main(["--config", str(path), "synth", "--out-dir", str(data)]) == EXIT_OK
    assert len(read_manifest(str(data / "manifest.jsonl")).entries) == 12


class TestSynth:
    def test_writes_manifest_and_images(self, dataset_dir):
        manifest = read_manifest(str(dataset_dir / "manifest.jsonl"))
        assert len(manifest.entries) == 16
        images = list((dataset_dir / "images").glob("*.pgm"))
        assert len(images) == 16

    def test_missing_out_dir_flag(self):
        assert main(["synth", "--n", "12"]) == EXIT_VALIDATION

    def test_bad_ratios(self, tmp_path):
        code = main(
            ["synth", "--n", "12", "--out-dir", str(tmp_path), "--ratios", "0.9,0.9,0.2"]
        )
        assert code == EXIT_VALIDATION


class TestCaptions:
    def test_from_record_json(self, tmp_path):
        record = make_record(kl=2, osteophytes={"fm": 2})
        src = tmp_path / "record.json"
        src.write_text(json.dumps(record.to_json_dict()))
        out = tmp_path / "captions.jsonl"
        assert main(["captions", "--record", str(src), "--out", str(out)]) == EXIT_OK
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 3
        assert [line["kind"] for line in lines] == ["abnormality", "location", "overall"]
        assert all(line["id"] == "r0" for line in lines)

    def test_from_manifest(self, dataset_dir, tmp_path):
        out = tmp_path / "captions.jsonl"
        code = main(
            ["captions", "--manifest", str(dataset_dir / "manifest.jsonl"), "--out", str(out)]
        )
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 16 * 3

    def test_malformed_record_is_validation_error(self, tmp_path):
        obj = make_record().to_json_dict()
        obj["osteophytes"] = 5
        src = tmp_path / "record.json"
        src.write_text(json.dumps(obj))
        out = tmp_path / "captions.jsonl"
        assert main(["captions", "--record", str(src), "--out", str(out)]) == EXIT_VALIDATION

    def test_needs_exactly_one_source(self, tmp_path):
        out = tmp_path / "c.jsonl"
        assert main(["captions", "--out", str(out)]) == EXIT_VALIDATION

    def test_failed_write_keeps_previous_captions(self, tmp_path, monkeypatch):
        out = tmp_path / "captions.jsonl"
        record = tmp_path / "record.json"
        record.write_text(json.dumps(make_record(kl=2).to_json_dict()))
        assert main(["captions", "--record", str(record), "--out", str(out)]) == EXIT_OK
        before = out.read_bytes()

        class DiskFull(io.FileIO):
            def write(self, data):
                super().write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

        record.write_text(json.dumps(make_record(kl=4).to_json_dict()))
        monkeypatch.setattr("oavl.synth.open", DiskFull, raising=False)
        assert main(["captions", "--record", str(record), "--out", str(out)]) == EXIT_IO
        assert out.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["captions.jsonl", "record.json"]


class TestTrain:
    def test_malformed_manifest_record_is_io_error(self, dataset_dir, tmp_path):
        lines = (dataset_dir / "manifest.jsonl").read_text().splitlines()
        obj = json.loads(lines[0])
        obj["osteophytes"] = 5
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join([json.dumps(obj)] + lines[1:]) + "\n")
        ckpt = tmp_path / "m.bin"
        code = main(["train", "--manifest", str(manifest), "--out", str(ckpt), "--quiet"])
        assert code == EXIT_IO
        assert not ckpt.exists()

    def test_manifest_not_utf8_is_io_error(self, dataset_dir, tmp_path, capsys):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_bytes((dataset_dir / "manifest.jsonl").read_bytes() + b"\xff\n")
        ckpt = tmp_path / "m.bin"
        code = main(["train", "--manifest", str(manifest), "--out", str(ckpt), "--quiet"])
        assert code == EXIT_IO
        assert f"{manifest}: not UTF-8" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_manifest_id_with_control_character_is_io_error(self, dataset_dir, tmp_path, capsys):
        lines = (dataset_dir / "manifest.jsonl").read_text().splitlines()
        obj = json.loads(lines[0])
        obj["id"] += "\x00"
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join([json.dumps(obj)] + lines[1:]) + "\n")
        ckpt = tmp_path / "m.bin"
        code = main(["train", "--manifest", str(manifest), "--out", str(ckpt), "--quiet"])
        assert code == EXIT_IO
        assert "control character" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_missing_manifest_is_io_error(self, tmp_path):
        ckpt = tmp_path / "m.bin"
        code = main(
            ["train", "--manifest", str(tmp_path / "missing.jsonl"), "--out", str(ckpt)]
        )
        assert code == EXIT_IO
        assert not ckpt.exists()

    def test_writes_checkpoint_and_report(self, trained):
        ckpt, report = trained
        assert ckpt.exists()
        payload = json.loads(report.read_text())
        assert len(payload["epochs"]) == 1
        assert "initial_neg_cosine" in payload

    def test_determinism_across_runs(self, dataset_dir, tmp_path):
        blobs = []
        for name in ("a", "b"):
            ckpt = tmp_path / f"{name}.bin"
            code = main(
                [
                    "train", "--manifest", str(dataset_dir / "manifest.jsonl"),
                    "--out", str(ckpt), "--epochs", "1", "--batch-size", "4",
                    "--seed", "11", "--quiet",
                ]
            )
            assert code == EXIT_OK
            blobs.append(ckpt.read_bytes())
        assert blobs[0] == blobs[1]

    def test_config_file_with_flag_override(self, dataset_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 1, "batch_size": 4, "seed": 2}))
        ckpt = tmp_path / "c.bin"
        code = main(
            [
                "--config", str(config),
                "train", "--manifest", str(dataset_dir / "manifest.jsonl"),
                "--out", str(ckpt), "--quiet",
            ]
        )
        assert code == EXIT_OK

    def test_unknown_config_key_rejected(self, dataset_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"learning_rate": 1.0}))
        code = main(
            [
                "--config", str(config),
                "train", "--manifest", str(dataset_dir / "manifest.jsonl"),
                "--out", str(tmp_path / "x.bin"), "--quiet",
            ]
        )
        assert code == EXIT_VALIDATION

    def test_fewer_signatures_than_batch_size_is_validation_error(
        self, dataset_dir, tmp_path, capsys
    ):
        # the 16-image set's 12 train records cannot fill one batch of 64
        ckpt = tmp_path / "x.bin"
        code = main(
            [
                "train", "--manifest", str(dataset_dir / "manifest.jsonl"),
                "--out", str(ckpt), "--epochs", "1", "--batch-size", "64", "--quiet",
            ]
        )
        assert code == EXIT_VALIDATION
        assert "12 distinct severity signatures" in capsys.readouterr().err
        assert not ckpt.exists()


class TestEvalAndSaliency:
    def test_zero_shot_eval_writes_report(self, dataset_dir, trained, tmp_path):
        ckpt, _ = trained
        out = tmp_path / "eval"
        code = main(
            [
                "eval", "zero-shot", "--checkpoint", str(ckpt),
                "--manifest", str(dataset_dir / "manifest.jsonl"), "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads((out / "report.json").read_text())
        assert "zero_shot" in payload
        assert (out / "confusion.csv").exists()

    def test_retrieval_eval(self, dataset_dir, trained, tmp_path):
        ckpt, _ = trained
        out = tmp_path / "retr"
        code = main(
            [
                "eval", "retrieval", "--checkpoint", str(ckpt),
                "--manifest", str(dataset_dir / "manifest.jsonl"),
                "--out", str(out), "--k", "2", "--baseline-draws", "50",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads((out / "report.json").read_text())
        assert "retrieval" in payload

    @pytest.mark.parametrize(
        "flag, message", [("--k", "k must be at least 1"),
                          ("--baseline-draws", "baseline_draws must be at least 1")]
    )
    def test_retrieval_rejects_zero_argument(
        self, flag, message, dataset_dir, trained, tmp_path, capsys
    ):
        ckpt, _ = trained
        out = tmp_path / "retr"
        code = main(
            [
                "eval", "retrieval", "--checkpoint", str(ckpt),
                "--manifest", str(dataset_dir / "manifest.jsonl"),
                "--out", str(out), flag, "0",
            ]
        )
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_eval_without_task(self, trained, dataset_dir):
        assert main(["eval"]) == EXIT_VALIDATION

    def test_saliency_writes_overlay(self, dataset_dir, trained, tmp_path):
        ckpt, _ = trained
        manifest = read_manifest(str(dataset_dir / "manifest.jsonl"))
        record_id = manifest.entries[0].record.id
        out = tmp_path / "sal"
        code = main(
            [
                "saliency", "--checkpoint", str(ckpt),
                "--manifest", str(dataset_dir / "manifest.jsonl"),
                "--id", record_id, "--prompt", "severe osteoarthritis.",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert (out / "saliency" / f"{record_id}.pgm").exists()

    def test_overlong_saliency_prompt_is_validation_error(
        self, dataset_dir, trained, tmp_path, capsys
    ):
        ckpt, _ = trained
        max_len = load_checkpoint(str(ckpt)).model.cfg.max_len
        prompt = " ".join(["severe osteoarthritis."] * max_len)
        record_id = read_manifest(str(dataset_dir / "manifest.jsonl")).entries[0].record.id
        out = tmp_path / "sal"
        code = main(
            [
                "saliency", "--checkpoint", str(ckpt),
                "--manifest", str(dataset_dir / "manifest.jsonl"),
                "--id", record_id, "--prompt", prompt, "--out", str(out),
            ]
        )
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"prompt has {len(split_text(prompt))} tokens" in err
        assert f"max_len {max_len}" in err
        assert not out.exists()

    def test_corrupt_checkpoint_is_io_error(self, dataset_dir, trained, tmp_path):
        ckpt, _ = trained
        bad = tmp_path / "bad.bin"
        blob = bytearray(ckpt.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad.write_bytes(bytes(blob))
        code = main(
            [
                "eval", "zero-shot", "--checkpoint", str(bad),
                "--manifest", str(dataset_dir / "manifest.jsonl"),
                "--out", str(tmp_path / "e"),
            ]
        )
        assert code == EXIT_IO


def _with_tensor(src, dst, name, dtype, dims, payload):
    """Copy a checkpoint with one tensor replaced and the checksum recomputed."""
    tensors = _read_checkpoint_tensors(str(src))
    tensors[name] = (dtype, dims, payload)
    out = io.BytesIO()
    out.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(tensors)))
    crc = 0
    for name, (dtype, dims, payload) in tensors.items():
        _serialize_tensor(out, name, payload, dtype, dims)
        crc = zlib.crc32(payload, crc)
    dst.write_bytes(out.getvalue() + struct.pack("<I", crc))


def _with_meta(src, dst, edit):
    """Copy a checkpoint with its config JSON edited and the checksum recomputed."""
    meta = _read_checkpoint_tensors(str(src))["meta.config_json"][2]
    meta = edit(json.loads(meta)) if callable(edit) else edit
    if isinstance(meta, dict):
        meta = json.dumps(meta).encode("utf-8")
    _with_tensor(src, dst, "meta.config_json", 1, (len(meta),), meta)


def _drop(key):
    def edit(meta):
        del meta[key]
        return meta

    return edit


def _set(value, *path):
    def edit(meta):
        section = meta
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        return meta

    return edit


MALFORMED_CONFIGS = {
    "unknown-model-key": _set(1, "model", "depth"),
    "unknown-train-key": _set(1, "train", "lr"),
    "bad-json": b"{not json",
    "not-utf8": b"\xff\xfe",
    "missing-model": _drop("model"),
    "missing-train": _drop("train"),
    "missing-epoch": _drop("epoch"),
    "string-embed-dim": _set("64", "model", "embed_dim"),
    "negative-proj-dim": _set(-1, "model", "proj_dim"),
    "negative-temperature": _set(-1.0, "model", "temperature_init"),
    "string-height": _set("32", "model", "height"),
    "string-epoch": _set("3", "epoch"),
    "fractional-epoch": _set(2.5, "epoch"),
    "string-seed": _set("7", "train", "seed"),
    "infinite-lr": _set(float("inf"), "train", "lr_image"),
}


def _pgm_header_end(blob, lines=3):
    end = 0
    for _ in range(lines):
        end = blob.index(b"\n", end) + 1
    return end


# (case, rewrite of a valid PGM's bytes, expected message fragment)
MALFORMED_PGMS = [
    ("bad-magic", lambda b: b"P2" + b[2:], "not a binary PGM"),
    ("header-comment", lambda b: b.replace(b"P5\n", b"P5\n# by hand\n", 1), "size line"),
    ("empty-file", lambda b: b"", "not a binary PGM"),
    ("non-numeric-size", lambda b: b.replace(b"\n32 32\n", b"\n32 x\n", 1), "size line"),
    ("one-number-size", lambda b: b.replace(b"\n32 32\n", b"\n32\n", 1), "size line"),
    ("zero-size", lambda b: b.replace(b"\n32 32\n", b"\n0 32\n", 1), "image is 0x32"),
    ("missing-size-line", lambda b: b[: _pgm_header_end(b, 1)], "size line"),
    ("missing-maxval-line", lambda b: b[: _pgm_header_end(b, 2)], "maxval 65535"),
    ("8-bit-maxval", lambda b: b.replace(b"\n65535\n", b"\n255\n", 1), "maxval 65535"),
    ("non-numeric-maxval", lambda b: b.replace(b"\n65535\n", b"\nxyz\n", 1), "maxval 65535"),
    ("short-payload", lambda b: b[: _pgm_header_end(b) + 5], "payload holds 5 bytes"),
    (
        "huge-size",
        lambda b: b.replace(b"\n32 32\n", b"\n99999999999 99999999999\n", 1),
        "header says 19999999999600000000002",
    ),
]


class TestMalformedPgm:
    """Every malformed image ends in one typed error naming the file, exit 2."""

    @pytest.mark.parametrize(
        "rewrite, fragment", [c[1:] for c in MALFORMED_PGMS], ids=[c[0] for c in MALFORMED_PGMS]
    )
    def test_saliency_on_malformed_pgm_is_io_error(
        self, rewrite, fragment, dataset_dir, trained, tmp_path, capsys
    ):
        ckpt, _ = trained
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        entry = read_manifest(str(data / "manifest.jsonl")).entries[0]
        image = data / entry.image_path
        image.write_bytes(rewrite(image.read_bytes()))
        code = main(
            [
                "saliency", "--checkpoint", str(ckpt),
                "--manifest", str(data / "manifest.jsonl"),
                "--id", entry.record.id, "--prompt", "severe osteoarthritis.",
                "--out", str(tmp_path / "sal"),
            ]
        )
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert f"{entry.record.id}.pgm" in err
        assert fragment in err


class TestMalformedCheckpoint:
    def _eval(self, ckpt, dataset_dir, tmp_path):
        return main(
            [
                "eval", "zero-shot", "--checkpoint", str(ckpt),
                "--manifest", str(dataset_dir / "manifest.jsonl"),
                "--out", str(tmp_path / "e"),
            ]
        )

    def test_rewritten_checkpoint_still_loads(self, dataset_dir, trained, tmp_path):
        ckpt, _ = trained
        copy = tmp_path / "copy.bin"
        _with_meta(ckpt, copy, lambda meta: meta)
        assert self._eval(copy, dataset_dir, tmp_path) == EXIT_OK

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_malformed_config_is_io_error(self, case, dataset_dir, trained, tmp_path, capsys):
        ckpt, _ = trained
        bad = tmp_path / "bad.bin"
        _with_meta(ckpt, bad, MALFORMED_CONFIGS[case])
        assert self._eval(bad, dataset_dir, tmp_path) == EXIT_IO
        assert "malformed checkpoint config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dtype, dims, payload", [(0, (0,), b""), (1, (3,), b"abc")], ids=["empty-f32", "u8"]
    )
    def test_malformed_step_count_is_io_error(
        self, dtype, dims, payload, dataset_dir, trained, tmp_path, capsys
    ):
        ckpt, _ = trained
        bad = tmp_path / "bad.bin"
        _with_tensor(ckpt, bad, "optim.log_temperature.t", dtype, dims, payload)
        assert self._eval(bad, dataset_dir, tmp_path) == EXIT_IO
        assert "'optim.log_temperature.t' has unexpected dtype/shape" in capsys.readouterr().err

    @pytest.mark.parametrize("step", [float("nan"), float("inf"), -3.0, 2.5])
    def test_bad_step_count_value_is_io_error(
        self, step, dataset_dir, trained, tmp_path, capsys
    ):
        ckpt, _ = trained
        bad = tmp_path / "bad.bin"
        _with_tensor(ckpt, bad, "optim.log_temperature.t", 0, (1,), struct.pack("<f", step))
        assert self._eval(bad, dataset_dir, tmp_path) == EXIT_IO
        assert "'optim.log_temperature.t' holds step count" in capsys.readouterr().err

    def test_tensor_name_not_utf8_is_io_error(self, dataset_dir, trained, tmp_path):
        ckpt, _ = trained
        blob = bytearray(ckpt.read_bytes())
        blob[18] = 0xFF  # first byte of the first tensor name; names are outside the CRC
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        assert self._eval(bad, dataset_dir, tmp_path) == EXIT_IO
        assert main(["inspect", str(bad)]) == EXIT_IO


class TestInspect:
    def test_huge_declared_tensor_is_io_error(self, tmp_path, capsys):
        # a payload of 2**62 floats is declared but never allocated
        out = io.BytesIO()
        out.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, 1))
        _serialize_tensor(out, "w", bytes(16), 0, (2**31, 2**31))
        bad = tmp_path / "huge.bin"
        bad.write_bytes(out.getvalue())
        assert main(["inspect", str(bad)]) == EXIT_IO
        assert "truncated checkpoint" in capsys.readouterr().err

    def test_lists_model_tensors(self, trained, capsys):
        ckpt, _ = trained
        assert main(["inspect", str(ckpt)]) == EXIT_OK
        out = capsys.readouterr().out
        lines = [line.split("\t") for line in out.strip().splitlines()]
        names = {line[0] for line in lines}
        assert "image.conv1.weight" in names
        assert "log_temperature" in names
        assert "optim.image.conv1.weight.m" in names
        assert "meta.config_json" in names

    def test_unknown_command_exits_one(self):
        assert main(["frobnicate"]) == EXIT_VALIDATION

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == EXIT_VALIDATION
        assert "usage" in capsys.readouterr().err.lower()
