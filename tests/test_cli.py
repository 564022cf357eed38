import io
import json
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oavl
from oavl import training
from oavl.captions import split_text
from oavl.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from oavl.model import DualEncoder, ModelConfig, parameter_shapes
from oavl.synth import SynthConfig, read_manifest, read_pgm, write_pgm
from oavl.training import TrainConfig, load_checkpoint, save_checkpoint

from conftest import (
    checkpoint_file,
    checkpoint_parts,
    make_record,
    malformed_manifests,
    truncated,
)


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


def subprocess_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(oavl.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def run_module(*args):
    """``python -m oavl args`` in a fresh process."""
    cmd = [sys.executable, "-m", "oavl", *args]
    return subprocess.run(cmd, env=subprocess_env(), capture_output=True, text=True, timeout=300)


def test_import_leaves_numpy_unloaded():
    # --threads must be pinned before numpy loads, so the CLI module may not load it
    code = "import sys, oavl.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_python_dash_m_runs_the_cli():
    proc = run_module("--help")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith("usage: oavl ")


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
    ("ratios-bool-element", "synth", {"ratios": [0.9, 0.1, False]}),
    ("ratios-string-elements", "synth", {"ratios": ["0.5", "0.25", "0.25"]}),
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


@pytest.mark.parametrize("source", ["config", "record"])
def test_json_nested_past_the_parser_limit_is_validation_error(source, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    args = {
        "config": ["--config", str(deep), "synth", "--out-dir", str(tmp_path / "data")],
        "record": ["captions", "--record", str(deep), "--out", str(tmp_path / "c.jsonl")],
    }[source]
    assert main(args) == EXIT_VALIDATION
    assert f"{source} file {str(deep)!r} is not valid JSON" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["deep.json"]


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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--noise-sigma", "inf"], "noise_sigma must be finite and non-negative, got inf"),
            (["--noise-sigma", "nan"], "noise_sigma must be finite and non-negative, got nan"),
            (["--max-shift", "100"], "max_shift 100 moves the knee out of a 64x64 image"),
        ],
        ids=["sigma-inf", "sigma-nan", "shift-100"],
    )
    def test_out_of_range_config_is_validation_error(self, flags, message, tmp_path, capsys):
        out = tmp_path / "data"
        code = main(["synth", "--n", "12", "--out-dir", str(out), *flags])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()


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

    def test_record_id_with_path_separator_is_validation_error(self, tmp_path, capsys):
        obj = make_record().to_json_dict()
        obj["id"] = "../escaped"
        src = tmp_path / "record.json"
        src.write_text(json.dumps(obj))
        out = tmp_path / "captions.jsonl"
        assert main(["captions", "--record", str(src), "--out", str(out)]) == EXIT_VALIDATION
        assert "path separator" in capsys.readouterr().err
        assert not out.exists()

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

    def test_determinism_across_runs(self, tmp_path, monkeypatch, capsys):
        # the whole pipeline twice at --threads 1: every file written, and
        # inspect's listing, byte for byte
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "1")  # restored after the test
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            manifest, ckpt = str(out / "data" / "manifest.jsonl"), str(out / "model.bin")
            evaluated = ["--checkpoint", ckpt, "--manifest", manifest]
            commands = [
                ["synth", "--n", "120", "--seed", "7", "--out-dir", str(out / "data")],
                [
                    "train", "--manifest", manifest, "--out", ckpt, "--epochs", "2",
                    "--report", str(out / "report.json"), "--quiet",
                ],
                ["eval", "zero-shot", *evaluated, "--out", str(out / "zero-shot")],
                ["eval", "retrieval", *evaluated, "--out", str(out / "retrieval")],
                [
                    "saliency", *evaluated, "--id", "rec-00000",
                    "--prompt", "severe osteoarthritis.", "--out", str(out / "saliency"),
                ],
                ["inspect", ckpt],
            ]
            capsys.readouterr()
            for command in commands:
                assert main(["--threads", "1", *command]) == EXIT_OK, command
            files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
            runs.append((files, capsys.readouterr().out))
        (files_a, listing_a), (files_b, listing_b) = runs
        assert sorted(files_a) == sorted(files_b)
        assert len(files_a) > 120
        for path, blob in files_a.items():
            assert blob == files_b[path], path
        assert listing_a and listing_a == listing_b

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

    def test_non_finite_loss_is_validation_error(self, dataset_dir, tmp_path, capsys, monkeypatch):
        def diverged(*args):
            raise training.TrainingError("non-finite loss: total=nan, infonce=nan, negative=nan")

        monkeypatch.setattr(training, "train_step", diverged)
        ckpt = tmp_path / "x.bin"
        code = main(
            [
                "train", "--manifest", str(dataset_dir / "manifest.jsonl"),
                "--out", str(ckpt), "--epochs", "1", "--batch-size", "4", "--quiet",
            ]
        )
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: non-finite loss: total=nan, infonce=nan, negative=nan\n"
        )
        assert not ckpt.exists()

    def test_diverging_run_prints_one_error_line(self, tmp_path):
        # in a process of its own, so numpy's warnings reach stderr as a user sees them
        code = main(
            [
                "synth", "--n", "400", "--seed", "0", "--out-dir", str(tmp_path / "data"),
                "--height", "32", "--width", "32",
            ]
        )
        assert code == EXIT_OK
        proc = run_module(
            "train", "--manifest", str(tmp_path / "data" / "manifest.jsonl"),
            "--out", str(tmp_path / "x.bin"), "--epochs", "3", "--batch-size", "8",
            "--lr-text", "1e30", "--lr-projection", "1e30", "--quiet",
        )
        assert proc.returncode == EXIT_VALIDATION
        assert proc.stderr.startswith("error: non-finite loss: ")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert not (tmp_path / "x.bin").exists()


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
        counts = payload["zero_shot"]["per_class_counts"]
        lines = (out / "confusion.csv").read_text().splitlines()
        assert lines[0] == "true\\pred,0,1,2,3,4"
        rows = [[int(v) for v in line.split(",")] for line in lines[1:]]
        assert [row[0] for row in rows] == list(range(5))
        assert [sum(row[1:]) for row in rows] == counts
        assert sum(counts) == payload["zero_shot"]["total"] > 0

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

    def test_missing_split_is_validation_error(self, trained, tmp_path, capsys):
        ckpt, _ = trained
        data = tmp_path / "data"
        code = main(
            [
                "synth", "--n", "12", "--out-dir", str(data), "--height", "32", "--width", "32",
                "--ratios", "0.75,0,0.25",
            ]
        )
        assert code == EXIT_OK
        out = tmp_path / "eval"
        code = main(
            [
                "eval", "zero-shot", "--checkpoint", str(ckpt),
                "--manifest", str(data / "manifest.jsonl"), "--out", str(out), "--split", "val",
            ]
        )
        assert code == EXIT_VALIDATION
        assert "manifest has no 'val' split" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_without_task(self, capsys):
        assert main(["eval"]) == EXIT_VALIDATION
        assert "usage" in capsys.readouterr().err.lower()

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
        written = [p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()]
        assert written == [f"saliency/{record_id}.pgm"]

    @pytest.mark.parametrize("record_id", ["../../escaped", "..\\..\\escaped"])
    def test_manifest_id_with_path_separator_is_io_error(
        self, record_id, dataset_dir, trained, tmp_path, capsys
    ):
        # saliency names its file after the id: out/run/saliency/../../escaped.pgm
        # would land in out/
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = data / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        obj = json.loads(lines[0])
        obj["id"] = record_id
        manifest.write_text("\n".join([json.dumps(obj)] + lines[1:]) + "\n")
        out = tmp_path / "out"
        code = main(
            [
                "saliency", "--checkpoint", str(trained[0]), "--manifest", str(manifest),
                "--id", record_id, "--prompt", "severe osteoarthritis.",
                "--out", str(out / "run"),
            ]
        )
        assert code == EXIT_IO
        assert "line 1: id: must not contain a path separator" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task", ["zero-shot", "retrieval", "saliency"])
    def test_image_of_another_size_than_the_model_is_validation_error(
        self, task, dataset_dir, trained, tmp_path, capsys
    ):
        # eval and saliency read images through fit's size-checked loader
        ckpt, _ = trained
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = data / "manifest.jsonl"
        entry = read_manifest(str(manifest)).split("test")[0]
        path = os.path.join(str(data), entry.image_path)
        write_pgm(path, np.zeros((40, 32)))
        out = tmp_path / "out"
        command = ["saliency", "--id", entry.record.id, "--prompt", "severe osteoarthritis."]
        if task != "saliency":
            command = ["eval", task]
        code = main(
            [*command, "--checkpoint", str(ckpt), "--manifest", str(manifest), "--out", str(out)]
        )
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"error: {path}: image is 32x40, the size expected here is 32x32\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "saliency"])
    def test_keeps_freed_heap_before_the_first_encode(
        self, command, dataset_dir, trained, tmp_path, monkeypatch
    ):
        events = []

        def recording(name, method):
            def wrapper(self, *args, **kwargs):
                events.append(name)
                return method(self, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(training, "_keep_freed_heap", lambda: events.append("heap"))
        for name in ("image_features", "encode_text"):
            monkeypatch.setattr(DualEncoder, name, recording(name, getattr(DualEncoder, name)))
        manifest = str(dataset_dir / "manifest.jsonl")
        task = {
            "eval": ["eval", "zero-shot"],
            "saliency": ["saliency", "--id", read_manifest(manifest).entries[0].record.id,
                         "--prompt", "severe osteoarthritis."],
        }[command]
        args = ["--checkpoint", str(trained[0]), "--manifest", manifest, "--out", str(tmp_path)]
        assert main(task + args) == EXIT_OK
        assert events[0] == "heap" and events.count("heap") == 1
        assert {"image_features", "encode_text"} <= set(events)

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

    @pytest.mark.parametrize("prompt", ["", "   "])
    def test_saliency_prompt_without_tokens_is_validation_error(
        self, dataset_dir, trained, tmp_path, capsys, prompt
    ):
        ckpt, _ = trained
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
        assert f"prompt {prompt!r} has no tokens" in capsys.readouterr().err
        assert not out.exists()

    def test_saliency_prompt_with_pad_token_is_validation_error(
        self, dataset_dir, trained, tmp_path, capsys
    ):
        ckpt, _ = trained
        record_id = read_manifest(str(dataset_dir / "manifest.jsonl")).entries[0].record.id
        out = tmp_path / "sal"
        code = main(
            [
                "saliency", "--checkpoint", str(ckpt),
                "--manifest", str(dataset_dir / "manifest.jsonl"),
                "--id", record_id, "--prompt", "mild <pad> osteoarthritis.", "--out", str(out),
            ]
        )
        assert code == EXIT_VALIDATION
        assert "reserved token '<pad>'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_saliency_id_is_validation_error(
        self, dataset_dir, trained, tmp_path, capsys
    ):
        ckpt, _ = trained
        manifest = dataset_dir / "manifest.jsonl"
        out = tmp_path / "sal"
        code = main(
            [
                "saliency", "--checkpoint", str(ckpt), "--manifest", str(manifest),
                "--id", "rec-missing", "--prompt", "severe osteoarthritis.", "--out", str(out),
            ]
        )
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"error: manifest {manifest}: no entry has id 'rec-missing'\n"
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


def _with_meta(src, dst, edit):
    """Copy a checkpoint with its JSON header edited and the checksum recomputed."""
    meta, payload = checkpoint_parts(src.read_bytes())
    dst.write_bytes(checkpoint_file(edit(meta) if callable(edit) else edit, payload))


def _section(meta, path):
    for key in path[:-1]:
        meta = meta[key]
    return meta


def _drop(*path):
    def edit(meta):
        del _section(meta, path)[path[-1]]
        return meta

    return edit


def _set(value, *path):
    def edit(meta):
        _section(meta, path)[path[-1]] = value
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
    "missing-model-height": _drop("model", "height"),
    "missing-train-seed": _drop("train", "seed"),
    "string-embed-dim": _set("64", "model", "embed_dim"),
    "negative-proj-dim": _set(-1, "model", "proj_dim"),
    "negative-temperature": _set(-1.0, "model", "temperature_init"),
    "string-height": _set("32", "model", "height"),
    "string-epoch": _set("3", "epoch"),
    "fractional-epoch": _set(2.5, "epoch"),
    "string-seed": _set("7", "train", "seed"),
    "infinite-lr": _set(float("inf"), "train", "lr_image"),
    "missing-steps": _drop("steps"),
    "list-steps": _set([], "steps"),
    "missing-step": _drop("steps", "log_temperature"),
    "unknown-step": _set(0, "steps", "text.bogus"),
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


@pytest.fixture(scope="module")
def hostile_dir(tmp_path_factory, dataset_dir):
    data = tmp_path_factory.mktemp("hostile") / "data"
    shutil.copytree(dataset_dir, data)
    return data


class TestSampledHostileInputs:
    """A few drawn cases per reader through the CLI: each is malformed by
    construction, so it must end in the reader's typed error, exit 2."""

    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_truncated_pgm_exits_2(self, hostile_dir, dataset_dir, trained, data):
        entry = read_manifest(str(hostile_dir / "manifest.jsonl")).entries[0]
        original = (dataset_dir / entry.image_path).read_bytes()
        (hostile_dir / entry.image_path).write_bytes(data.draw(truncated(original)))
        code = main(
            [
                "saliency", "--checkpoint", str(trained[0]),
                "--manifest", str(hostile_dir / "manifest.jsonl"),
                "--id", entry.record.id, "--prompt", "severe osteoarthritis.",
                "--out", str(hostile_dir / "sal"),
            ]
        )
        assert code == EXIT_IO
        assert not (hostile_dir / "sal").exists()

    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_malformed_manifest_exits_2(self, hostile_dir, dataset_dir, data):
        path = hostile_dir / "malformed.jsonl"
        original = (dataset_dir / "manifest.jsonl").read_bytes()
        path.write_bytes(data.draw(malformed_manifests(original)))
        out = hostile_dir / "captions.jsonl"
        assert main(["captions", "--manifest", str(path), "--out", str(out)]) == EXIT_IO
        assert not out.exists()


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

    @pytest.mark.parametrize("step", [float("nan"), float("inf"), -3.0, 2.5, -3, True, "7"])
    def test_bad_step_count_value_is_io_error(
        self, step, dataset_dir, trained, tmp_path, capsys
    ):
        ckpt, _ = trained
        bad = tmp_path / "bad.bin"
        _with_meta(ckpt, bad, _set(step, "steps", "log_temperature"))
        assert self._eval(bad, dataset_dir, tmp_path) == EXIT_IO
        err = capsys.readouterr().err
        assert "malformed checkpoint config" in err
        assert "step count of 'log_temperature'" in err

    def test_config_declaring_a_huge_vocabulary_is_io_error(
        self, dataset_dir, trained, tmp_path, capsys
    ):
        ckpt, _ = trained
        bad = tmp_path / "bad.bin"
        _with_meta(ckpt, bad, _set(2**40, "model", "vocab_size"))
        assert self._eval(bad, dataset_dir, tmp_path) == EXIT_IO
        assert "checkpoint payload holds" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["pad_index", "vocab_size"])
    def test_config_off_the_caption_vocabulary_is_io_error(
        self, field, dataset_dir, trained, tmp_path, capsys
    ):
        ckpt, _ = trained
        meta, _payload = checkpoint_parts(ckpt.read_bytes())
        meta["model"][field] += 3
        # a payload that fits the config, so only the vocabulary is off
        model = DualEncoder(ModelConfig.from_json_dict(meta["model"]), seed=0)
        bad = tmp_path / "bad.bin"
        save_checkpoint(str(bad), model, TrainConfig.from_json_dict(meta["train"]), epoch=1)
        assert self._eval(bad, dataset_dir, tmp_path) == EXIT_IO
        assert "does not match the caption vocabulary" in capsys.readouterr().err

    def test_flipped_header_byte_is_io_error(self, dataset_dir, trained, tmp_path, capsys):
        ckpt, _ = trained
        blob = bytearray(ckpt.read_bytes())
        blob[14] ^= 0x01  # inside the JSON header, which the CRC covers
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        assert self._eval(bad, dataset_dir, tmp_path) == EXIT_IO
        assert main(["inspect", str(bad)]) == EXIT_IO
        assert capsys.readouterr().err.count("checksum mismatch") == 2

    def test_format_version_1_is_io_error(self, dataset_dir, tmp_path, capsys):
        # a version 1 file with no tensors: magic, version, count, CRC
        old = tmp_path / "v1.bin"
        old.write_bytes(b"OAVL0001" + struct.pack("<III", 1, 0, 0))
        assert self._eval(old, dataset_dir, tmp_path) == EXIT_IO
        assert main(["inspect", str(old)]) == EXIT_IO
        message = "unsupported checkpoint format version 1: this build reads format version 2"
        assert capsys.readouterr().err.count(message) == 2


class TestInspect:
    def test_huge_declared_tensor_is_io_error(self, trained, tmp_path, capsys):
        # a header of 2**32 - 1 bytes is declared but never read or allocated
        meta, payload = checkpoint_parts(trained[0].read_bytes())
        bad = tmp_path / "huge.bin"
        bad.write_bytes(checkpoint_file(meta, payload, header_len=2**32 - 1))
        assert main(["inspect", str(bad)]) == EXIT_IO
        assert "truncated checkpoint" in capsys.readouterr().err

    def test_lists_model_tensors(self, trained, capsys):
        ckpt, _ = trained
        assert main(["inspect", str(ckpt)]) == EXIT_OK
        lines = [line.split("\t") for line in capsys.readouterr().out.strip().splitlines()]
        shapes = {line[0]: line[1] for line in lines}
        assert shapes["image.conv1.weight"] == "16x1x3x3"
        assert shapes["log_temperature"] == shapes["optim.log_temperature.v"] == "scalar"
        assert "optim.image.conv1.weight.m" in shapes
        assert len(shapes) == len(lines) == 3 * len(parameter_shapes(ModelConfig()))
        assert all(len(line) == 3 and len(line[2]) == 8 for line in lines)

    def test_unknown_command_exits_one(self):
        assert main(["frobnicate"]) == EXIT_VALIDATION

    def test_no_command_prints_usage(self, capsys):
        assert main([]) == EXIT_VALIDATION
        assert "usage" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_usage_error(self, threads, monkeypatch, capsys):
        # BLAS reads 0 or less as its default pool; the refusal comes before
        # any variable is set and before any command runs
        variables = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        for var in variables:
            monkeypatch.delenv(var, raising=False)
        assert main(["--threads", threads, "inspect", "missing.bin"]) == EXIT_VALIDATION
        assert f"--threads: must be at least 1, got {threads}" in capsys.readouterr().err
        assert not any(var in os.environ for var in variables)
