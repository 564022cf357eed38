"""``src/oavl`` holds only what the pipeline and its benchmark run.

Every top-level function, class and constant in ``src/oavl/*.py`` needs a
reference from ``src/oavl`` or from perfbench's non-test files. A reference
is a name load, an attribute name, an imported name, or a string constant
equal to the name: the benchmark's tracer names the functions it wraps as
strings. Test oracles live under ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# nn.branch_trace is the hook through which tests/gradcheck.py reads the relu
# and clamp masks; it stays in nn beside _record_branch, which the ops feed.
ALLOWED = {"branch_trace"}


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


def test_every_top_level_name_in_src_has_a_reference():
    src = sorted((ROOT / "src" / "oavl").glob("*.py"))
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in src + bench}
    referenced = {name for tree in trees.values() for name in _references(tree)}
    unreferenced = [
        f"{path.name}:{name}"
        for path in src
        for name in _definitions(trees[path])
        if name not in referenced and name not in ALLOWED
    ]
    assert unreferenced == []
