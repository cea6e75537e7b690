"""The package's public names, pinned: adding or removing one changes this
list, so the change shows in review.  Likewise the library's definitions
that no command reaches."""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import intgraphs

PUBLIC_NAMES = [
    "AlternatingDecomposition",
    "BimodularGraph",
    "CheckReport",
    "Cob0Morphism",
    "CycleClass",
    "DIRECTED",
    "DerivedGraph",
    "DuplicateEdgeIdError",
    "Edge",
    "ExtNat",
    "FiniteGroup",
    "Graph",
    "GraphError",
    "IdentityEdgeId",
    "IncompatibleActionsError",
    "IncompatibleGroupsError",
    "InfiniteCycleSetError",
    "InfinitePathSetError",
    "IntMorphism",
    "InterfaceMismatchError",
    "InvariantViolationError",
    "NotACompositeError",
    "OMEGA",
    "OrbitCapExceededError",
    "Path",
    "PreconditionViolationError",
    "Project",
    "SegmentEdgeId",
    "UNORIENTED",
    "UnknownVertexError",
    "alternating_paths",
    "bimod_compose2",
    "bimod_execute",
    "bimodular",
    "check_associativity",
    "check_faithfulness",
    "check_functoriality",
    "check_trefoil",
    "check_well_defined",
    "cob0",
    "cob0_compose",
    "cob0_enumerate",
    "cob0_identity",
    "cob0_morphism",
    "count_paths",
    "cyclic_group",
    "decompose_segment",
    "derived_graph",
    "direct_product",
    "execute",
    "execution",
    "flatten",
    "functor",
    "functor_bar",
    "fundamental_graph",
    "graph",
    "graphs_equal_flattened",
    "int_compose",
    "int_identity",
    "interaction",
    "interface_measure",
    "klein_four_group",
    "measure",
    "normal_form",
    "prime_cycles",
    "project_execute",
    "project_unit",
    "symmetric_group",
    "trivial_group",
]


def test_public_names_are_pinned():
    assert intgraphs.__all__ == PUBLIC_NAMES == sorted(PUBLIC_NAMES)


LAYER_MODULES = [
    "graph", "execution", "interaction", "cob0", "functor", "bimodular", "formats", "campaigns",
]


@pytest.mark.parametrize("name", LAYER_MODULES)
def test_public_layer_callables_are_plain_functions(name):
    # The benchmark's tracer wraps plain functions only, so a public layer
    # function wrapped in, say, functools.cache would drop out of every
    # traced span without a word; this makes it fail here instead.
    module = importlib.import_module(f"intgraphs.{name}")
    public = [
        (attr, value)
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and getattr(value, "__module__", None) == module.__name__
        and callable(value)
        and not inspect.isclass(value)
    ]
    assert public
    for attr, value in public:
        assert inspect.isfunction(value), f"{module.__name__}.{attr} is not a plain function"


# Top-level definitions of the library that no `intgraphs` command reaches,
# each with the open ROADMAP item that will reach it (or decide it).  An
# entry leaves when its item lands; a change that adds one says why.
UNREACHED = {
    "bimodular._length_two_paths": "item 24: keep bimod_compose2 as a checked property, or delete it",
    "bimodular.bimod_compose2": "item 24: keep it as a checked property, or delete it",
    "bimodular.direct_product": "item 4: bimodular instances from orbit decompositions",
    "bimodular.klein_four_group": "item 4: bimodular instances from orbit decompositions",
    "bimodular.symmetric_group": "item 4: bimodular instances from orbit decompositions",
    "cob0.AlternatingDecomposition": "item 23: functoriality through the alternating decomposition",
    "cob0.NotACompositeError": "item 23: functoriality through the alternating decomposition",
    "cob0.cob0_morphism": "item 24: one name for the Cob0Morphism constructor",
    "cob0.decompose_segment": "item 23: functoriality through the alternating decomposition",
    "formats._parse_group": "item 22: counterexamples that replay with one command",
    "formats.parse_bimodular": "item 22: counterexamples that replay with one command",
    "formats.parse_project": "item 22: counterexamples that replay with one command",
    "graph.count_paths": "item 3(a): explicit budgets for exponential work",
    "interaction.IdentityEdgeId": "item 21: the identity laws of the interaction category",
    "interaction.int_identity": "item 21: the identity laws of the interaction category",
    "interaction.project_execute": "item 8(b): project associativity as a campaign",
    "interaction.project_unit": "item 8(b): project associativity as a campaign",
}


def _definitions() -> dict[str, ast.stmt]:
    """Every top-level function, class and assignment of the library's
    modules, keyed ``module.name``.  The package's ``__init__`` only
    imports (tests/test_source.py checks it)."""
    found = {}
    for path in sorted(Path(intgraphs.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                found[f"{path.stem}.{stmt.name}"] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for node in (n for t in targets for n in ast.walk(t)):
                    if isinstance(node, ast.Name):
                        found[f"{path.stem}.{node.id}"] = stmt
    return found


def _reached(root: str, definitions: dict[str, ast.stmt]) -> set[str]:
    """The definitions reached from ``root`` in a call graph by names
    alone: a definition reaches every definition, in any module, whose
    name it reads as a name or an attribute, annotations included.  So it
    may reach more than runs, never less."""
    by_name: dict[str, list[str]] = {}
    for key in definitions:
        by_name.setdefault(key.split(".")[1], []).append(key)
    reached, todo = set(), [root]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        for node in ast.walk(definitions[key]):
            if isinstance(node, ast.Name):
                todo += by_name.get(node.id, [])
            elif isinstance(node, ast.Attribute):
                todo += by_name.get(node.attr, [])
    return reached


def test_what_no_command_reaches_is_listed_with_the_item_that_will():
    definitions = _definitions()
    unreached = sorted(set(definitions) - _reached("cli.main", definitions))
    assert unreached == sorted(UNREACHED)
    assert all(re.match(r"item \d+(\([a-z]\))?: ", use) for use in UNREACHED.values())


def test_the_names_only_call_graph_follows_names_and_attributes():
    tree = ast.parse(
        "def main():\n    helper()\n"
        "def helper():\n    return TABLE, other.Box\n"
        "TABLE = {}\n"
        "class Box:\n    pass\n"
        "def unused():\n    main()\n"
    )
    definitions = {f"m.{getattr(s, 'name', 'TABLE')}": s for s in tree.body}
    assert _reached("m.main", definitions) == {"m.main", "m.helper", "m.TABLE", "m.Box"}
