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
from .graph import DIRECTED, UNORIENTED, Edge, ExtNat, Graph, _order_key, show_items
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
    """Atomic id for one directed traversal of a cobordism segment.

    Its str is the token ``seg:<src>><tgt>``.  Derived graphs sort their
    nodes by it, so one id is asked for it many times: it is rendered on
    first use and kept on the instance, outside the fields, as
    `fundamental_graph` keeps a morphism's image.  So ``==``, ``hash``,
    ``repr`` and ``dataclasses.replace`` see only the two endpoints.
    """

    src: Any
    tgt: Any

    def __str__(self) -> str:
        try:
            return self._token
        except AttributeError:
            pass
        # endpoints are (tag, label) pairs; keep the token whitespace-free
        tok = lambda v: f"{v[0]}.{v[1]}" if isinstance(v, tuple) and len(v) == 2 else str(v)
        token = f"seg:{tok(self.src)}>{tok(self.tgt)}"
        object.__setattr__(self, "_token", token)
        return token


def _boundary_vertex(point: tuple[str, Any]) -> tuple[str, Any]:
    return dom_vertex(point[1]) if point[0] == SRC else cod_vertex(point[1])


def fundamental_graph(m: Cob0Morphism) -> IntMorphism:
    """The graph of boundary-to-boundary traversals of a cobordism.

    Each matched pair {x, y} yields the two directed edges x -> y and
    y -> x; segments never produce self-loops because their endpoints are
    distinct points.  Circles are invisible here.

    The image is built once per morphism and kept on it, so a morphism
    met in many functoriality checks keeps one image, and with it the
    image's renamed interface views.
    """
    image = getattr(m, "_fundamental_graph", None)
    if image is not None:
        return image
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
    image = IntMorphism(m.source, m.target, Graph(vertices, edges))
    # Not a field, as with Cob0Morphism._mates: ==, hash, repr and
    # dataclasses.replace see only the matching and the circle count.
    object.__setattr__(m, "_fundamental_graph", image)
    return image


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


def check_faithfulness(source, target, max_circles: int) -> CheckReport:
    """Enumerate the hom-set and verify the wagered functor is injective on
    it.

    Also exhibits, whenever max_circles >= 1 and the hom-set is nonempty,
    a witness that the plain (wager-free) functor is NOT injective: fewer
    distinct graphs than morphisms, so two differing only in circles share
    their graph.
    """
    morphisms = cob0_enumerate(source, target, max_circles)
    images, first_collision = _wagered_images(morphisms)
    witness_found = len({image.graph for image in images}) < len(morphisms)
    details = {
        "hom_size": len(morphisms),
        "distinct_images": len(images),
        "plain_functor_witness": witness_found,
    }
    passed = first_collision is None
    if max_circles >= 1 and morphisms and not witness_found:
        passed = False
        details["error"] = "expected a graph-only collision witness"
    if first_collision is not None:
        details["first_collision"] = "({}, {})".format(*map(_ordered_repr, first_collision))
    return CheckReport("faithfulness", passed, details)


def _wagered_images(morphisms: list[Cob0Morphism]) -> tuple[dict, tuple | None]:
    """Each wagered image with the first morphism that has it, and the
    first two morphisms, in list order, that share an image (None if no
    two do)."""
    images: dict[Project, Cob0Morphism] = {}
    first_collision = None
    for m in morphisms:
        image = functor_bar(m)
        if image not in images:
            images[image] = m
        elif first_collision is None:
            first_collision = (images[image], m)
    return images, first_collision


def _ordered_repr(m: Cob0Morphism) -> str:
    """The repr of m with every set listed in `_order_key` order, so the
    text does not depend on the hash seed."""
    pairs = sorted((sorted(pair, key=_order_key) for pair in m.pairs), key=_order_key)
    return (
        f"Cob0Morphism(source={show_items(m.source)}, target={show_items(m.target)}, "
        f"pairs={pairs!r}, circles={m.circles!r})"
    )
