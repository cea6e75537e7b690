"""
The category of interaction graphs and the project (wager) layer.

A morphism A -> B is a graph living on the tagged disjoint union of A and
B; composition renames the two copies of the shared interface into one
namespace and executes.  Projects pair a graph with a wager (an extended
natural); executing projects adds the wagers plus the prime-cycle count of
the interaction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Iterable

from .graph import (
    DIRECTED,
    Edge,
    ExtNat,
    Graph,
    GraphError,
    _order_key,
    show_items,
)
from .execution import execute, measure

DOM = "dom"
COD = "cod"
_MID = "mid"


class InterfaceMismatchError(GraphError):
    pass


def dom_vertex(label: Any) -> tuple[str, Any]:
    return (DOM, label)


def cod_vertex(label: Any) -> tuple[str, Any]:
    return (COD, label)


@dataclass(frozen=True)
class IdentityEdgeId:
    """Atomic id of one of the two identity arcs over a boundary point."""

    point: Any
    forward: bool

    def __str__(self) -> str:
        return f"id:{self.point}:{'+' if self.forward else '-'}"


@dataclass(frozen=True)
class IntMorphism:
    """A graph on the tagged disjoint union of its domain and codomain."""

    dom: frozenset
    cod: frozenset
    graph: Graph

    def __post_init__(self) -> None:
        expected = {dom_vertex(a) for a in self.dom} | {cod_vertex(b) for b in self.cod}
        if self.graph.vertices != expected:
            raise InterfaceMismatchError(
                "morphism graph must live exactly on the tagged domain and codomain"
            )

    # The two views are built on first use and kept, as Path.flat_id is;
    # they are not fields, so ==, hash and repr ignore them.
    @functools.cached_property
    def _cod_in_mid(self) -> Graph:
        """The graph with the codomain renamed into the middle namespace:
        this morphism's side when it is composed on the left."""
        return self.graph.relabel_vertices({cod_vertex(b): (_MID, b) for b in self.cod})

    @functools.cached_property
    def _dom_in_mid(self) -> Graph:
        """The graph with the domain renamed into the middle namespace:
        this morphism's side when it is composed on the right."""
        return self.graph.relabel_vertices({dom_vertex(a): (_MID, a) for a in self.dom})


def int_identity(points: Iterable[Any]) -> IntMorphism:
    """The identity morphism: two opposite arcs over each point."""
    pts = frozenset(points)
    edges = []
    for a in sorted(pts, key=_order_key):
        edges.append(Edge(IdentityEdgeId(a, True), dom_vertex(a), cod_vertex(a)))
        edges.append(Edge(IdentityEdgeId(a, False), cod_vertex(a), dom_vertex(a)))
    vertices = {dom_vertex(a) for a in pts} | {cod_vertex(a) for a in pts}
    return IntMorphism(pts, pts, Graph(vertices, edges))


def _interface_rename(f: IntMorphism, g: IntMorphism) -> tuple[Graph, Graph]:
    """f's graph with its codomain, and g's with its domain, renamed into one
    middle namespace, outer boundaries still tagged dom/cod.

    Each morphism renames each side once and keeps the result, so
    `int_compose` and `interface_measure` on one pair share the two
    renamed graphs.  Raises InterfaceMismatchError when f's codomain is
    not g's domain.
    """
    if f.cod != g.dom:
        raise InterfaceMismatchError(
            f"codomain {show_items(f.cod)} does not match "
            f"domain {show_items(g.dom)}"
        )
    return f._cod_in_mid, g._dom_in_mid


def int_compose(f: IntMorphism, g: IntMorphism) -> IntMorphism:
    """Composition by the execution formula.

    Raises InterfaceMismatchError on boundary mismatch and
    InfinitePathSetError when the interface path set is infinite.
    """
    left, right = _interface_rename(f, g)
    composed = execute(left, right)
    return IntMorphism(f.dom, g.cod, composed)


def interface_measure(f: IntMorphism, g: IntMorphism, mode: str = DIRECTED) -> ExtNat:
    """Prime-cycle count of the interaction across the shared interface."""
    left, right = _interface_rename(f, g)
    return measure(left, right, mode)


@dataclass(frozen=True)
class Project:
    """A wager together with a graph; the wager absorbs cycle counts as
    projects are executed against each other."""

    wager: ExtNat
    graph: Graph

    def __post_init__(self) -> None:
        if not isinstance(self.wager, ExtNat):
            object.__setattr__(self, "wager", ExtNat(self.wager))


def project_execute(p: Project, q: Project, mode: str = DIRECTED) -> Project:
    """Execute two projects: wagers add together with the prime-cycle count
    of the interaction (omega absorbing); graphs execute.

    Raises InfinitePathSetError when the executed graph is undefined.
    """
    wager = p.wager + q.wager + measure(p.graph, q.graph, mode)
    return Project(wager, execute(p.graph, q.graph))


def project_unit() -> Project:
    """The unit for project execution: zero wager on the empty graph."""
    return Project(ExtNat(0), Graph.empty())
