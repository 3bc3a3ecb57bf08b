"""Every name a gvlam module imports is read somewhere in that module.

The scan parses each module with `ast`: an imported name counts as read
where it occurs as a loaded name (`os` in `os.sep` is one).  The
package's `__init__` re-exports what its `__all__` lists, so those names
count as read there.
"""

import ast
from pathlib import Path

import pytest

import gvlam

SRC = Path(gvlam.__file__).parent

# Names a module imports only so that a perfbench span (perfbench/
# tracing.py wraps a function at the name one module imports it under)
# finds them, as {module file: {name: reason}}.
SPAN_ONLY = {
    "vequation.py": {
        "subst_parallel": "perfbench traces gvlam.vequation.subst_parallel",
        "extract_plugs": "perfbench traces gvlam.vequation.extract_plugs; "
                         "axiom goals are read in gvlam.theory now",
    },
}


def unused_imports(source: str) -> list:
    """The names source imports and never reads, in order of import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    kept = SPAN_ONLY.get(path.name, {})
    assert [name for name in unused if name not in kept] == []


def test_span_only_names_are_span_targets():
    """Each SPAN_ONLY name is a target perfbench/tracing.py wraps in that
    module, so the list cannot outlive the span it keeps alive."""
    tree = ast.parse((SRC.parents[1] / "perfbench" / "tracing.py")
                     .read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    wrapped = {(module, name) for module, name, *_ in targets}
    for path, names in SPAN_ONLY.items():
        for name in names:
            assert (f"gvlam.{path.removesuffix('.py')}", name) in wrapped


def test_scan_finds_an_unused_import():
    assert unused_imports(
        "from __future__ import annotations\n"
        "import os, re as regex\n"
        "from .a import b, c as d\n"
        "__all__ = ['b']\n"
        "print(os.sep)\n") == ["regex", "d"]
