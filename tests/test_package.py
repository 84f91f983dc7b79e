"""The package's module structure: imports stay at module level, the
modules import each other without a cycle, and no module imports a
private function of another but for two shared helpers."""

from __future__ import annotations

import ast
import graphlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nesypat"
#: Standard-library modules imported inside a function, so that start-up
#: does not load them.
LAZY = {"json", "graphlib", "urllib.request"}


def modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def function_imports(tree: ast.Module):
    """The import statements inside a function or method of ``tree``."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield node


def sibling_imports(tree: ast.Module) -> set[str]:
    """The package modules that ``tree`` imports at module level."""
    inside = set(map(id, function_imports(tree)))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and id(node) not in inside:
            out |= ({node.module} if node.module
                    else {a.name for a in node.names})
    return out


def test_functions_import_only_lazy_stdlib_modules():
    found = []
    for name, tree in modules().items():
        for node in function_imports(tree):
            targets = ([a.name for a in node.names] if isinstance(node, ast.Import)
                       else [node.module] if not node.level else [])
            if not targets or not set(targets) <= LAZY:
                found.append(f"{name}.py:{node.lineno}")
    assert found == []


#: Private functions that siblings share on purpose: the source positions
#: the readers and the command line place diagnostics with.
SHARED = {("errors", "_positions"), ("dsl", "_pattern_positions")}


def test_no_module_imports_a_private_function_of_a_sibling():
    trees = modules()
    private = {(name, node.name) for name, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_")}
    assert SHARED <= private
    found = [f"{name}.py:{node.lineno}: {node.module}.{alias.name}"
             for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names
             if (node.module, alias.name) in private - SHARED]
    assert found == []


def test_module_imports_form_no_cycle():
    graph = {name: sibling_imports(tree) for name, tree in modules().items()}
    assert graph["__init__"]  # the walk sees the package's own imports
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError
