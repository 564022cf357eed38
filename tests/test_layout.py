"""``src/oavl`` holds only what the pipeline runs.

Every top-level function, class and constant in ``src/oavl/*.py`` needs a
reference from ``src/oavl``; dunder names are exempt. A reference is a name
load, an attribute name, an imported name, or a string constant equal to
the name. Test oracles live under ``tests/``.

``BENCHMARK_ONLY`` names the package's functions that only the benchmark
runs (perfbench's tracer names the functions it wraps as strings). They
leave the package with the next change to the benchmark, so the set may
only shrink.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

BENCHMARK_ONLY = {"bleu4", "read_pgm", "ground_truth_region", "localization_score"}


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id


def _references(tree):
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def _trees(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _referenced(trees):
    return {name for tree in trees.values() for name in _references(tree)}


SRC = _trees(sorted((ROOT / "src" / "oavl").glob("*.py")))


def test_every_top_level_name_in_src_has_a_reference():
    referenced = _referenced(SRC)
    unreferenced = [
        f"{path.name}:{name}"
        for path, tree in SRC.items()
        for name in _definitions(tree)
        if name not in referenced
        and name not in BENCHMARK_ONLY
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unreferenced == []


def test_benchmark_only_names_are_defined_in_src_and_run_by_the_benchmark_alone():
    defined = {name for tree in SRC.values() for name in _definitions(tree)}
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    assert BENCHMARK_ONLY <= defined
    assert BENCHMARK_ONLY <= _referenced(_trees(bench))
    assert BENCHMARK_ONLY.isdisjoint(_referenced(SRC))
