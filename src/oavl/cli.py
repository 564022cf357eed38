"""Command-line entry point.

One binary, subcommand style: synth | captions | train | eval zero-shot |
eval retrieval | saliency | inspect. A JSON config file, given as --config
before the subcommand, supplies defaults; explicit flags win. Exit codes:
0 success, 1 validation error, 2 I/O error. Diagnostics go to stderr; all
data goes to files (inspect prints tensor metadata to stdout). The library
computes and this module writes every report file.

Heavy imports happen inside the handlers so that --threads can pin the
BLAS thread count before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from typing import Dict, List, Optional

from .configs import is_json_type

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(f"{message}\n{self.format_usage()}")


def _read_json(path: str, what: str):
    """A JSON file's value; malformed JSON, nesting past the parser's recursion
    limit included, is a usage error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise UsageError(f"{what} {path!r} is not valid JSON: {exc}") from exc


def _write_json(path: str, obj) -> None:
    """obj as JSON (sorted keys, indent 2, trailing newline), written atomically."""
    from .synth import write_atomic

    write_atomic(path, (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def _load_config(path: Optional[str]) -> Dict:
    if path is None:
        return {}
    config = _read_json(path, "config file")
    if not isinstance(config, dict):
        raise UsageError("config file must hold a JSON object")
    # imported here, after --threads is pinned: both modules load numpy
    from .synth import SynthConfig
    from .training import TrainConfig

    # flat key space: synth + training fields plus the dataset and eval knobs,
    # each with the JSON types its value may have
    types = {f.name: (type(f.default),) for cls in (SynthConfig, TrainConfig) for f in fields(cls)}
    types.update(n=(int,), ratios=(list, str), k=(int,), baseline_draws=(int,), split=(str,))
    unknown = set(config) - set(types)
    if unknown:
        raise UsageError(f"unknown config key {sorted(unknown)[0]!r}")
    for key, value in config.items():
        if not is_json_type(value, *types[key]):
            names = " or ".join(t.__name__ for t in types[key])
            raise UsageError(f"config key {key!r} must be {names}, got {value!r}")
    ratios = config.get("ratios")
    if is_json_type(ratios, list) and not all(is_json_type(r, float) for r in ratios):
        raise UsageError(f"config key 'ratios' must list numbers, got {ratios!r}")
    return config


def _merged(args: argparse.Namespace, config: Dict, key: str, default):
    value = getattr(args, key, None)
    return value if value is not None else config.get(key, default)


def _build_config(cls, args: argparse.Namespace, config: Dict):
    """A SynthConfig or TrainConfig from flags, then the config file, then field defaults."""
    return cls(**{f.name: _merged(args, config, f.name, f.default) for f in fields(cls)})


def _parse_ratios(value) -> tuple:
    if isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    return tuple(float(part) for part in str(value).split(","))


def _thread_count(text: str) -> int:
    """--threads: BLAS reads 0 or less as "its default pool", so refuse it."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="oavl", description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=_thread_count, default=None,
                        help="pin BLAS/OpenMP thread count (1 = deterministic mode)")
    parser.add_argument("--config", default=None, help="JSON config file")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=None)
    p.add_argument("--max-shift", dest="max_shift", type=int, default=None)
    p.add_argument("--ratios", default=None, help="train,val,test fractions")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("captions", help="render caption bags to JSONL")
    p.add_argument("--record", default=None, help="record JSON file (object or array)")
    p.add_argument("--manifest", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--include-zero-grades", dest="include_zero_grades",
                   action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--include-demographics", action="store_true")
    p.set_defaults(handler=_cmd_captions)

    p = sub.add_parser("train", help="train the dual encoder")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--report", default=None, help="training report JSON path")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lr-image", dest="lr_image", type=float, default=None)
    p.add_argument("--lr-text", dest="lr_text", type=float, default=None)
    p.add_argument("--lr-projection", dest="lr_projection", type=float, default=None)
    p.add_argument("--weight-decay", dest="weight_decay", type=float, default=None)
    p.add_argument("--neg-weight", dest="neg_weight", type=float, default=None)
    p.add_argument("--shuffle-prob", dest="shuffle_prob", type=float, default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    eval_sub = p.add_subparsers(dest="eval_command", metavar="task")
    for task in ("zero-shot", "retrieval"):
        ep = eval_sub.add_parser(task)
        ep.add_argument("--checkpoint", required=True)
        ep.add_argument("--manifest", required=True)
        ep.add_argument("--out", required=True)
        ep.add_argument("--split", default=None)
        if task == "retrieval":
            ep.add_argument("--k", type=int, default=None)
            ep.add_argument("--baseline-draws", dest="baseline_draws", type=int, default=None)
        ep.set_defaults(handler=_cmd_eval, eval_task=task)

    p = sub.add_parser("saliency", help="Grad-CAM map for one image and prompt")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--id", dest="image_id", required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_saliency)

    p = sub.add_parser("inspect", help="print checkpoint tensor names/shapes/checksums")
    p.add_argument("checkpoint")
    p.set_defaults(handler=_cmd_inspect)

    return parser


def _cmd_synth(args, config) -> int:
    from .synth import DEFAULT_DATASET_SIZE, DEFAULT_SPLIT_RATIOS, SynthConfig, generate_dataset

    cfg = _build_config(SynthConfig, args, config)
    ratios = _merged(args, config, "ratios", None)
    ratios = DEFAULT_SPLIT_RATIOS if ratios is None else _parse_ratios(ratios)
    n = _merged(args, config, "n", DEFAULT_DATASET_SIZE)
    generate_dataset(n, cfg, args.out_dir, ratios)
    return EXIT_OK


def _iter_records(args):
    from .scores import OaScoreRecord
    from .synth import read_manifest

    if args.manifest is not None:
        for entry in read_manifest(args.manifest).entries:
            yield entry.record
        return
    payload = _read_json(args.record, "record file")
    objects = payload if isinstance(payload, list) else [payload]
    for obj in objects:
        yield OaScoreRecord.from_json_dict(obj)


def _cmd_captions(args, config) -> int:
    from .captions import TEMPLATE_ORDER, render_caption
    from .synth import write_atomic

    if (args.record is None) == (args.manifest is None):
        raise UsageError("captions needs exactly one of --record or --manifest")
    include_zero = _merged(args, config, "include_zero_grades", True)
    lines = []
    for record in _iter_records(args):
        for kind in TEMPLATE_ORDER:
            text = render_caption(record, kind, include_zero, args.include_demographics)
            row = {"id": record.id, "kind": kind.value, "text": text}
            lines.append(json.dumps(row, sort_keys=True) + "\n")
    write_atomic(args.out, "".join(lines).encode("utf-8"))
    return EXIT_OK


def _cmd_train(args, config) -> int:
    from .synth import read_manifest
    from .training import TrainConfig, fit, save_checkpoint

    cfg = _build_config(TrainConfig, args, config)
    manifest = read_manifest(args.manifest)
    log = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    model, report = fit(manifest, cfg, log=log)
    save_checkpoint(args.out, model, cfg, epoch=cfg.epochs)
    if args.report:
        _write_json(args.report, report.to_json_dict())
    return EXIT_OK


def _load_eval_inputs(args):
    from .captions import build_vocabulary
    from .synth import read_manifest
    from .training import _keep_freed_heap, load_checkpoint

    # eval and saliency free and re-allocate the same encoder buffers per
    # batch and per map, as a train step does
    _keep_freed_heap()
    checkpoint = load_checkpoint(args.checkpoint)
    manifest = read_manifest(args.manifest)
    vocab = build_vocabulary()
    return checkpoint, manifest, vocab


def _model_images(checkpoint, manifest, entries):
    """The entries' float32 [H, W] images by id, each checked against the model's size."""
    from .synth import pgm_to_float
    from .training import _load_samples

    cfg = checkpoint.model.cfg
    samples = _load_samples(manifest, entries, (cfg.height, cfg.width))
    return dict(zip((e.record.id for e in entries), pgm_to_float(samples)))


def _cmd_eval(args, config) -> int:
    from . import evaluation

    checkpoint, manifest, vocab = _load_eval_inputs(args)
    split = _merged(args, config, "split", "test")
    entries = manifest.split(split)
    if not entries:
        raise UsageError(f"manifest has no {split!r} split")
    images = _model_images(checkpoint, manifest, entries)

    if args.eval_task == "zero-shot":
        result = evaluation.zero_shot_eval(checkpoint.model, entries, images, vocab)
    else:
        # only the options the user set: evaluation holds the defaults
        given = {key: _merged(args, config, key, None) for key in ("k", "baseline_draws")}
        result = evaluation.retrieval_eval(
            checkpoint.model,
            entries,
            images,
            vocab,
            seed=checkpoint.train_config.seed,
            **{key: value for key, value in given.items() if value is not None},
        )
    _write_eval_report(args.out, args.eval_task, result)
    return EXIT_OK


def _write_eval_report(out_dir: str, task: str, result) -> None:
    """report.json under the task's key and, for zero-shot, confusion.csv."""
    from .synth import write_atomic

    os.makedirs(out_dir, exist_ok=True)
    report = {task.replace("-", "_"): result.to_json_dict()}
    _write_json(os.path.join(out_dir, "report.json"), report)
    if task == "zero-shot":
        lines = ["true\\pred," + ",".join(map(str, range(len(result.confusion)))) + "\n"]
        for true_k, row in enumerate(result.confusion.tolist()):
            lines.append(f"{true_k}," + ",".join(map(str, row)) + "\n")
        write_atomic(os.path.join(out_dir, "confusion.csv"), "".join(lines).encode("utf-8"))


def _cmd_saliency(args, config) -> int:
    from . import evaluation

    checkpoint, manifest, vocab = _load_eval_inputs(args)
    try:
        entry = manifest.by_id(args.image_id)
    except KeyError:
        raise UsageError(f"manifest {args.manifest}: no entry has id {args.image_id!r}") from None
    image = _model_images(checkpoint, manifest, [entry])[entry.record.id]
    saliency = evaluation.grad_cam(
        checkpoint.model, image, args.prompt, vocab, image_id=args.image_id
    )
    _write_saliency_overlay(args.out, saliency, image)
    return EXIT_OK


def _write_saliency_overlay(out_dir: str, saliency, image) -> None:
    """The map blended half and half with its image, as saliency/<id>.pgm."""
    from .synth import write_pgm

    saliency_dir = os.path.join(out_dir, "saliency")
    os.makedirs(saliency_dir, exist_ok=True)
    overlay = 0.5 * image + 0.5 * saliency.values
    write_pgm(os.path.join(saliency_dir, f"{saliency.image_id}.pgm"), overlay)


def _cmd_inspect(args, config) -> int:
    from .training import checkpoint_tensor_listing

    for name, dims, crc in checkpoint_tensor_listing(args.checkpoint):
        shape = "x".join(str(d) for d in dims) if dims else "scalar"
        print(f"{name}\t{shape}\t{crc:08x}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads is not None:
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                os.environ[var] = str(args.threads)
        if getattr(args, "handler", None) is None:
            parser.print_usage(sys.stderr)
            return EXIT_VALIDATION
        config = _load_config(args.config)
        return args.handler(args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # noqa: BLE001 - map remaining failures to exit codes
        from .synth import ManifestError, PgmError
        from .training import CheckpointError, TrainingError

        if isinstance(exc, (ManifestError, PgmError, CheckpointError)):
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
        if isinstance(exc, (ValueError, IndexError, KeyError, TrainingError)):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        raise


if __name__ == "__main__":
    sys.exit(main())
