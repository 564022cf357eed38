"""Smoke tests of the benchmark: every workload, every check, both modes.

They run ``run.py --smoke`` (tiny sizes) in fresh processes, so they take
seconds; timings are never asserted, only names, counts and checks.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("train", "eval", "synth-io")
NAMED = {
    "train": ("train_samples_per_s", "train_final_infonce"),
    "eval": (
        "zs_images_per_s", "retrieval_queries_per_s", "saliency_ms_p50", "saliency_ms_p90",
        "zs_accuracy", "retrieval_bleu_margin", "localization_mean",
    ),
    "synth-io": ("synth_images_per_s", "load_images_per_s", "checkpoint_roundtrip_ms"),
}
# counts that must repeat exactly at a fixed seed
EXACT = (
    "nn.conv2d.image-conv2.calls", "nn.conv2d.image-conv2.gflop", "nn.conv2d.text-conv.mbytes",
    "nn.graph_nodes_per_step", "captions.truncated", "captions.tokenize.calls",
    "training.train_step.calls", "evaluation.bleu4.calls", "synth.render_image.calls",
)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, RUN, "--smoke", "--seconds", "0.2", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.fixture(scope="module")
def traced():
    runs = []
    for _ in range(2):
        proc = _run("--workload", "all", "--seed", "3", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(proc)
    return runs


def test_untraced_run_prints_every_metric_and_passes_every_check():
    proc = _run("--workload", "all", "--seed", "2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    end_to_end = [m["name"] for m in _spec()["end_to_end"]]
    assert set(result["metrics"]) == {f"{w}.{m}" for w in WORKLOADS for m in end_to_end}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    printed = {line.split()[0] for line in lines[:-1] if not line.startswith("#")}
    for workload in WORKLOADS:
        assert {"setup_s", "peak_rss_mb", "ops_failed_frac", *NAMED[workload]} <= printed
    assert not [line for line in lines if line.startswith("check ") and not line.endswith("pass")]
    assert "thread_pin=verified" in proc.stdout or "thread_pin=unverified" in proc.stdout


def test_traced_run_reports_every_layer_metric(traced):
    result = json.loads(traced[0].stdout.strip().splitlines()[-1])
    assert result["correct"]
    per_layer = [m["name"] for m in _spec()["per_layer"]]
    assert set(result["metrics"]) == {f"{w}.{m}" for w in WORKLOADS for m in per_layer}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # forward and backward are split per conv shape, and the step into phases
    assert metrics["train.nn.conv2d.image-conv2.fwd_s"] > 0
    assert metrics["train.nn.conv2d.image-conv2.bwd_s"] > 0
    for phase in ("forward_s", "backward_s", "optimizer_s"):
        assert metrics[f"train.training.step.{phase}"] > 0
    # layers a workload does not run stay at zero
    assert metrics["synth-io.nn.conv2d.image-conv1.calls"] == 0
    assert metrics["eval.nn.adam_step.calls"] == 0
    assert metrics["train.synth.render_image.calls"] == 0


def test_work_counts_and_checkpoint_repeat_exactly(traced):
    first, second = (json.loads(p.stdout.strip().splitlines()[-1])["metrics"] for p in traced)
    for workload in WORKLOADS:
        for name in EXACT:
            key = f"{workload}.{name}"
            assert first[key]["value"] == second[key]["value"], key
    with open(os.path.join(ROOT, ".perfbench", "results", "train-seed3-trace1-smoke.json")) as fh:
        assert len(json.load(fh)["checkpoint_sha256"]) == 64


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_tracer_puts_every_function_back():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from oavl import captions, evaluation, model, nn, training
    import tracing

    before = (training.tokenize, evaluation.bleu4, nn.conv2d, nn.Tensor.backward,
              model.DualEncoder.encode_text)
    with tracing.Tracer():
        assert training.tokenize is not before[0]
        assert captions.tokenize is training.tokenize
        assert nn.conv2d is not before[2]
    after = (training.tokenize, evaluation.bleu4, nn.conv2d, nn.Tensor.backward,
             model.DualEncoder.encode_text)
    assert all(a is b for a, b in zip(before, after))
