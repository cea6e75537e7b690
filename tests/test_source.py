"""Static checks of the source text: what ``python -O`` may strip, and the
oldest Python the package supports (3.10, see pyproject.toml)."""

from __future__ import annotations

import ast
import functools
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src").rglob("*.py"))
BENCHMARK = [ROOT / "perfbench" / name for name in ("bench.py", "tracing.py", "workloads.py")]
ALL_PYTHON = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
NEWER_THAN_3_10 = {"tomllib", "Self", "StrEnum", "ExceptionGroup", "add_note"}


@functools.cache
def _tree(path: Path) -> ast.Module:
    """The module's syntax tree, parsed with the grammar of Python 3.10."""
    text = path.read_text(encoding="utf-8")
    return ast.parse(text, filename=str(path), feature_version=(3, 10))


def _names(tree: ast.Module):
    """Every name a module binds, loads, imports or reads as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from node.module.split(".")


def test_library_and_benchmark_have_nothing_that_python_O_strips():
    """``python -O`` removes ``assert`` statements and makes ``__debug__``
    False; nothing else changes.  The library and the benchmark's modules use
    neither, so every check they make runs in both modes, and a plain and an
    ``-O`` run print the same output: the golden tests hold in both."""
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in LIBRARY + BENCHMARK
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert LIBRARY and found == []


@pytest.mark.parametrize("path", ALL_PYTHON, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_source_parses_as_python_3_10(path):
    _tree(path)


def test_the_3_10_grammar_check_rejects_except_star():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    if sys.version_info >= (3, 11):
        ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


def test_source_names_nothing_newer_than_python_3_10():
    found = sorted(
        f"{path.relative_to(ROOT)}: {name}"
        for path in LIBRARY
        for name in set(_names(_tree(path))) & NEWER_THAN_3_10
    )
    assert found == []


def _classes(paths):
    """(location, class node) for every class defined in ``paths``."""
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ClassDef):
                yield f"{path.relative_to(ROOT)}:{node.lineno} {node.name}", node


def _assigns(node: ast.ClassDef, name: str):
    """The values assigned to ``name`` in the class body."""
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in stmt.targets
        ):
            yield stmt.value


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Name) and decorator.id == "dataclass":
            return True
    return False


def test_only_the_frozen_base_refuses_assignment_and_deletion():
    """Refusal is written once, in ``graph._Frozen``: no other library class
    defines ``__setattr__`` or ``__delattr__`` (a frozen dataclass's are
    generated, not written)."""
    found = [
        f"{where}.{stmt.name}"
        for where, node in _classes(LIBRARY)
        if node.name != "_Frozen"
        for stmt in node.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name in ("__setattr__", "__delattr__")
    ]
    assert found == []


def test_every_hand_slotted_class_derives_from_the_frozen_base():
    """A class that is not a dataclass and lists slots is a hand-slotted
    value, so it refuses assignment, deletion and copying as ``_Frozen``
    does."""
    slotted = {
        where: node
        for where, node in _classes(LIBRARY)
        if not _is_dataclass(node)
        and any(not isinstance(v, ast.Tuple) or v.elts for v in _assigns(node, "__slots__"))
    }
    found = [
        where
        for where, node in slotted.items()
        if not any(isinstance(b, ast.Name) and b.id == "_Frozen" for b in node.bases)
    ]
    assert len(slotted) >= 4 and found == []
