"""Print the baseline profile table from traced benchmark results.

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/table.py [RESULT.json ...]

With no arguments it reads the newest traced, full-size result of each
workload under ``.perfbench/results/``. Every per-layer value in a result is
per traced pass; this script divides by call counts to get per-call times.
"""

import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(os.path.dirname(HERE), ".perfbench", "results")
WORKLOADS = ("train", "eval", "synth-io")
LAYERS = ("nn", "model", "captions", "scores", "training", "evaluation", "synth")


def _latest(workload: str) -> str:
    paths = glob.glob(os.path.join(RESULTS, f"{workload}-seed*-trace1.json"))
    if not paths:
        raise SystemExit(f"no traced result for {workload} under {RESULTS}")
    return max(paths, key=os.path.getmtime)


def _load(paths):
    records = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        records[record["workload"]] = record
    return records


def _ms(layer: dict, seconds: str, calls: str) -> float:
    n = layer[calls]["value"]
    return 1e3 * layer[seconds]["value"] / n if n else float("nan")


def table(records) -> str:
    train = records["train"]["per_layer"]
    ev = records["eval"]["per_layer"]
    io = records["synth-io"]["per_layer"]
    steps = train["training.train_step.calls"]["value"]
    traced_walls = records["train"]["pass_wall_s"][records["train"]["passes"]["untraced"] :]
    fit_s = sum(traced_walls) / len(traced_walls)

    def per_step(name: str) -> float:
        return 1e3 * train[name]["value"] / steps

    rows = [
        (
            "`train_step`, batch 32: forward / backward / optimizer",
            f"{per_step('training.train_step.s'):.1f} ms: {per_step('training.step.forward_s'):.1f} / "
            f"{per_step('training.step.backward_s'):.1f} / {per_step('training.step.optimizer_s'):.1f} ms",
        )
    ]
    shapes = {
        "image-conv1": "image.conv1, 1→16 @64×64",
        "image-conv2": "image.conv2, 16→32 @32×32",
        "image-conv3": "image.conv3, 32→64 @16×16",
        "text-conv": "text conv, 64→64 at L=96 (4 per step)",
    }
    for tag, label in shapes.items():
        p = f"nn.conv2d.{tag}"
        calls = train[p + ".calls"]["value"]
        rows.append(
            (
                f"{label}, fwd / bwd per call",
                f"{_ms(train, p + '.fwd_s', p + '.calls'):.2f} / {_ms(train, p + '.bwd_s', p + '.calls'):.2f} ms "
                f"({train[p + '.gflop']['value'] / calls * 1e3:.1f} MFLOP fwd+bwd per call)",
            )
        )
    rows += [
        (
            "embedding fwd / bwd per call (2 per step)",
            f"{_ms(train, 'nn.embedding.fwd_s', 'nn.embedding.calls'):.2f} / "
            f"{_ms(train, 'nn.embedding.bwd_s', 'nn.embedding.calls'):.2f} ms",
        ),
        (
            "caption prep (`_batch_tokens`: render, shuffle, negative, tokenize) per batch",
            f"{_ms(train, 'training.caption_prep.s', 'training.caption_prep.calls'):.1f} ms",
        ),
        (
            "captions cut by `tokenize` (train / eval)",
            f"{train['captions.truncated_frac']['value']:.1%} / {ev['captions.truncated_frac']['value']:.1%} of calls",
        ),
        ("graph nodes per train step", f"{train['nn.graph_nodes_per_step']['value']:.0f}"),
        (
            "epoch (`fit`, 1 epoch): steps / caption prep / validation / probes",
            f"{fit_s:.2f} s: {train['training.train_step.s']['value'] / fit_s:.0%} / "
            f"{train['training.caption_prep.s']['value'] / fit_s:.0%} / "
            f"{train['training.val.s']['value'] / fit_s:.0%} / {train['training.probe.s']['value'] / fit_s:.0%}",
        ),
        (
            "`zero_shot_eval`, test split",
            f"{_ms(ev, 'evaluation.zero_shot_eval.s', 'evaluation.zero_shot_eval.calls') / 1e3:.3f} s",
        ),
        (
            "`retrieval_eval`, test split (share in `bleu4`)",
            f"{_ms(ev, 'evaluation.retrieval_eval.s', 'evaluation.retrieval_eval.calls') / 1e3:.3f} s "
            f"({ev['evaluation.bleu4.s']['value'] / ev['evaluation.retrieval_eval.s']['value']:.0%})",
        ),
        ("`grad_cam`, one map", f"{_ms(ev, 'evaluation.grad_cam.s', 'evaluation.grad_cam.calls'):.2f} ms"),
        ("`render_image`", f"{_ms(io, 'synth.render_image.s', 'synth.render_image.calls'):.2f} ms/image"),
        ("`read_pgm`", f"{_ms(io, 'synth.read_pgm.s', 'synth.read_pgm.calls'):.3f} ms/image"),
        (
            "checkpoint round trip (save + load)",
            f"{records['synth-io']['named_metrics']['checkpoint_roundtrip_ms']['value']:.2f} ms",
        ),
    ]
    info = records["train"]["provenance"]
    lines = [
        f"Measured with `perfbench` (traced runs, seed {records['train']['seed']}; "
        f"{info['nproc']} CPUs, one BLAS thread, Python {info['python']}, numpy {info['numpy']}, "
        f"{info['blas'].get('name')} {info['blas'].get('version')}).",
        "",
        "| stage | time |",
        "|---|---|",
    ]
    lines += [f"| {stage} | {value} |" for stage, value in rows]
    lines += ["", "Self time per layer, seconds per pass:", ""]
    lines += ["| layer | " + " | ".join(WORKLOADS) + " |", "|---|" + "---|" * len(WORKLOADS)]
    for layer in LAYERS:
        cells = [f"{records[w]['per_layer'][layer + '.self_s']['value']:.3f}" for w in WORKLOADS]
        lines.append(f"| {layer} | " + " | ".join(cells) + " |")
    overhead = [f"{records[w]['per_layer']['trace.overhead_frac']['value']:+.1%}" for w in WORKLOADS]
    lines.append("| tracing overhead | " + " | ".join(overhead) + " |")
    return "\n".join(lines)


def main(argv) -> int:
    paths = argv or [_latest(w) for w in WORKLOADS]
    print(table(_load(paths)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
