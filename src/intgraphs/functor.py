"""
The path functor from cobordisms to interaction graphs.

A cobordism's fundamental graph lives on its tagged boundary points: each
matched pair contributes the two directed traversals of that segment, and
circles contribute nothing.  The plain functor therefore forgets circles;
pairing the graph with the circle count as a wager restores injectivity.

The wager arithmetic under composition counts glued circles with the
UNORIENTED prime-cycle measure: one geometric circle created by gluing
corresponds to exactly two directed traversal classes but one unoriented
class.  check_functoriality verifies both the graph equation and this
circle-count equation; check_faithfulness verifies injectivity on whole
hom-sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Any

from .cob0 import SRC, Cob0Morphism, cob0_compose, cob0_enumerate
from .execution import CheckReport
from .graph import DIRECTED, UNORIENTED, Edge, ExtNat, Graph, _order_key
from .interaction import (
    IntMorphism,
    Project,
    cod_vertex,
    dom_vertex,
    int_compose,
    interface_measure,
)


@dataclass(frozen=True)
class SegmentEdgeId:
    """Atomic id for one directed traversal of a cobordism segment."""

    src: Any
    tgt: Any

    def __str__(self) -> str:
        # endpoints are (tag, label) pairs; keep the token whitespace-free
        tok = lambda v: f"{v[0]}.{v[1]}" if isinstance(v, tuple) and len(v) == 2 else str(v)
        return f"seg:{tok(self.src)}>{tok(self.tgt)}"


def _boundary_vertex(point: tuple[str, Any]) -> tuple[str, Any]:
    return dom_vertex(point[1]) if point[0] == SRC else cod_vertex(point[1])


def fundamental_graph(m: Cob0Morphism) -> IntMorphism:
    """The graph of boundary-to-boundary traversals of a cobordism.

    Each matched pair {x, y} yields the two directed edges x -> y and
    y -> x; segments never produce self-loops because their endpoints are
    distinct points.  Circles are invisible here.
    """
    vertices = {dom_vertex(a) for a in m.source} | {cod_vertex(b) for b in m.target}
    # each point keyed once, for the sort within its pair and of the pairs
    ends = []
    for pair in m.pairs:
        (kx, x), (ky, y) = sorted([(_order_key(p), p) for p in pair], key=itemgetter(0))
        ends.append((kx, ky, x, y))
    ends.sort(key=itemgetter(0, 1))
    edges = []
    for _, _, x, y in ends:
        u, v = _boundary_vertex(x), _boundary_vertex(y)
        edges.append(Edge(SegmentEdgeId(u, v), u, v))
        edges.append(Edge(SegmentEdgeId(v, u), v, u))
    return IntMorphism(m.source, m.target, Graph(vertices, edges))


def functor_bar(m: Cob0Morphism) -> Project:
    """The faithful extension: the fundamental graph wagered with the
    circle count."""
    return Project(ExtNat(m.circles), fundamental_graph(m).graph)


def _endpoint_multiset(g: Graph) -> Counter:
    return Counter((e.src, e.tgt) for e in g.edges)


def check_functoriality(m: Cob0Morphism, n: Cob0Morphism) -> CheckReport:
    """Compare the image of the glued cobordism with the composite of the
    images.

    PASS requires (i) equal endpoint-multiset graphs on the outer boundary
    and (ii) the circle-count equation
    circles(m;n) = circles(m) + circles(n) + unoriented cycle count of the
    interface interaction.
    """
    composite = cob0_compose(m, n)
    lhs = fundamental_graph(composite)
    fm = fundamental_graph(m)
    fn = fundamental_graph(n)
    rhs = int_compose(fm, fn)

    graph_ok = (
        lhs.graph.vertices == rhs.graph.vertices
        and _endpoint_multiset(lhs.graph) == _endpoint_multiset(rhs.graph)
    )

    m_unoriented = interface_measure(fm, fn, UNORIENTED)
    m_directed = interface_measure(fm, fn, DIRECTED)
    wager_ok = ExtNat(composite.circles) == ExtNat(m.circles + n.circles) + m_unoriented
    two_to_one = m_directed == m_unoriented + m_unoriented

    details = {
        "circles_composite": composite.circles,
        "circles_operands": m.circles + n.circles,
        "measure_unoriented": str(m_unoriented),
        "measure_directed": str(m_directed),
        "graph_equal": graph_ok,
        "directed_is_twice_unoriented": two_to_one,
    }
    if not graph_ok:
        details["image_of_composite"] = sorted(
            (str(s), str(t)) for s, t in _endpoint_multiset(lhs.graph).elements()
        )
        details["composite_of_images"] = sorted(
            (str(s), str(t)) for s, t in _endpoint_multiset(rhs.graph).elements()
        )
    return CheckReport("functoriality", graph_ok and wager_ok, details)


def _graph_key(g: Graph) -> tuple:
    return (g.vertices, frozenset((e.id, e.src, e.tgt) for e in g.edges))


def check_faithfulness(source, target, max_circles: int) -> CheckReport:
    """Enumerate the hom-set and verify the wagered functor is injective on
    it.

    Also exhibits, whenever max_circles >= 1 and the hom-set is nonempty,
    a witness pair showing the plain (wager-free) functor is NOT injective:
    two morphisms differing only in circles share their graph.
    """
    morphisms = cob0_enumerate(source, target, max_circles)
    images: dict[tuple, Cob0Morphism] = {}
    collisions = []
    graph_only: dict[tuple, Cob0Morphism] = {}
    plain_witness = None
    for m in morphisms:
        proj = functor_bar(m)
        key = (_graph_key(proj.graph), proj.wager)
        if key in images:
            collisions.append((images[key], m))
        else:
            images[key] = m
        gkey = _graph_key(proj.graph)
        if gkey in graph_only and plain_witness is None:
            plain_witness = (graph_only[gkey], m)
        else:
            graph_only.setdefault(gkey, m)

    passed = not collisions
    witness_found = plain_witness is not None
    expected_witness = max_circles >= 1 and bool(morphisms)
    details = {
        "hom_size": len(morphisms),
        "distinct_images": len(images),
        "plain_functor_witness": witness_found,
    }
    if expected_witness and not witness_found:
        passed = False
        details["error"] = "expected a graph-only collision witness"
    if collisions:
        details["first_collision"] = str(collisions[0])
    return CheckReport("faithfulness", passed, details)
