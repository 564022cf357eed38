"""oavl benchmark: one command, three closed-loop workloads, traced from outside.

    python3 perfbench/run.py --workload train|eval|synth-io|all \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a checkout that holds ``src/oavl``; the package is
imported from that source tree. Each workload runs in its own process with
the BLAS thread count pinned to 1 before numpy loads (``--workload all``
starts one such process per workload, one after the other).

The set-up is repeated and its median reported as ``setup_s``; then whole
passes run until ``--seconds`` have gone by. With ``--trace 0`` the last line
of output is a JSON object with the end-to-end metrics. With ``--trace 1``
untraced passes fill the first third of the time and traced passes the
rest; the JSON then holds the per-layer metrics, each per traced pass, and
the tracing overhead. Lines before it name every metric with its unit, the
result of every output check and the run's provenance. A fuller record
(and, when traced, every span) goes to ``.perfbench/results/``.
"""

import os
import sys
import time

_STARTED = time.perf_counter()
# Pinned before numpy loads: a BLAS pool started later keeps its thread count.
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("train", "eval", "synth-io")
SETUP_REPEATS = 3

# the gated metrics of BENCHMARK.json and their units
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; runs in seconds")
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024.0


def _os_threads():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def provenance(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (AttributeError, KeyError, TypeError):
        pass
    a = np.ones((256, 256))
    _ = a @ a  # make sure the BLAS pool exists before counting threads
    threads = _os_threads()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "os_threads": threads,
        "thread_pin": "verified" if threads == 1 else ("unverified" if threads is None else "failed"),
        "machine": platform.machine(),
        "seed": seed,
    }


def _run_all(args) -> int:
    """Each workload in a fresh process; the last line sums them up."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary, sort_keys=True))
    return 0


def _summary(values) -> dict:
    import numpy as np

    q = np.percentile(values, [10, 25, 50, 75, 90]) if values else [float("nan")] * 5
    return {"n": len(values), "mean": float(np.mean(values)) if values else float("nan"),
            **{f"p{p}": float(v) for p, v in zip((10, 25, 50, 75, 90), q)}}


def _line(name: str, value: float, unit: str) -> str:
    return f"{name:<34} {value:>14.6g} {unit}"


def run_workload(args) -> int:
    sys.path.insert(0, SRC)
    import oavl
    import tracing
    import workloads

    if os.path.dirname(os.path.abspath(oavl.__file__)) != os.path.join(SRC, "oavl"):
        print(f"oavl was imported from {oavl.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED
    info = provenance(args.seed)

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work_dir = os.path.join(OUT_DIR, "work", f"{tag}-{os.getpid()}")
    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(work_dir)
    os.makedirs(results_dir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, sizes, work_dir)
        setup_times = []
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            state = workload.setup(rep)
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_times)

        measure_start = time.perf_counter()
        untraced, traced = [], []
        tracer = None
        if args.trace:
            # the untraced reference for the overhead takes a third of the time
            while not untraced or time.perf_counter() - measure_start < args.seconds / 3:
                untraced.append(workload.run_pass(state, len(untraced)))
            tracer = tracing.Tracer().install()
            workload.quiet = tracer.paused
        passes = traced if tracer else untraced
        try:
            while (
                not passes
                or len(untraced) + len(traced) < workload.min_passes
                or time.perf_counter() - measure_start < args.seconds
            ):
                index = len(untraced) + len(traced)
                if tracer is not None:
                    tracer.pass_id = index
                    with tracer.span("bench.pass"):
                        passes.append(workload.run_pass(state, index))
                else:
                    passes.append(workload.run_pass(state, index))
        finally:
            if tracer is not None:
                tracer.uninstall()
        measured_s = time.perf_counter() - measure_start
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    every = untraced + traced
    attempted = sum(p.ops for p in every)
    failed = sum(min(p.failed, p.ops) for p in every)
    checks = {}
    for p in every:
        for name, ok in p.checks.items():
            checks[name] = checks.get(name, True) and ok

    e2e = {"setup_s": setup_s, "peak_rss_mb": _peak_rss_mb()}
    e2e.update(workloads.end_to_end(passes))
    named = [
        ("setup_s", e2e["setup_s"], "s"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
        ("ops_failed_frac", failed / max(attempted, 1), "ratio"),
    ] + workload.named_metrics(passes)

    per_layer = {}
    if tracer is not None:
        per_layer = tracer.per_layer(len(traced))
        untraced_s = statistics.median(p.wall_s for p in untraced)
        traced_s = statistics.median(p.wall_s for p in traced)
        per_layer["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
        tracer.write(os.path.join(results_dir, f"{tag}-spans.jsonl"))

    print(f"# oavl benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} smoke={int(args.smoke)}")
    print(f"# passes: {len(untraced)} untraced, {len(traced)} traced, in {measured_s:.1f} s; "
          f"setup runs (s): {', '.join(f'{t:.3f}' for t in setup_times)}; "
          f"op: {workload.op_name}; items: {workload.items_name}")
    print(f"# provenance: nproc={info['nproc']} cpus_allowed={info['cpus_allowed']} "
          f"python={info['python']} numpy={info['numpy']} "
          f"blas={info['blas'].get('name')} {info['blas'].get('version')} "
          f"thread_env=1 os_threads={info['os_threads']} thread_pin={info['thread_pin']} "
          f"seed={args.seed}")
    for name, value, unit in named:
        print(_line(name, value, unit))
    for name in ("items_per_s", "op_ms_p50", "op_ms_p90"):
        print(_line(name, e2e[name], END_TO_END[name]))
    for name, (value, unit) in per_layer.items():
        print(_line(name, value, unit))
    for name, ok in checks.items():
        print(f"check {name:<28} {'pass' if ok else 'FAIL'}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "provenance": info,
        "setup_runs_s": setup_times,
        "import_s": import_s,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_wall_s": [p.wall_s for p in every],
        "op_ms": _summary([ms for p in passes for ms in p.op_ms]),
        "named_metrics": {name: {"value": value, "unit": unit} for name, value, unit in named},
        "end_to_end": {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()},
        "per_layer": {name: {"value": v, "unit": u} for name, (v, u) in per_layer.items()},
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "checkpoint_sha256": getattr(workload, "checkpoint_sha256", None),
    }
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in per_layer.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(final, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "oavl", "__init__.py")):
        print(f"no oavl source tree at {SRC}: run inside a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
