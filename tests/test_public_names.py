"""The package's public names, pinned: adding or removing one changes this
list, so the change shows in review."""

from __future__ import annotations

import importlib
import inspect

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
