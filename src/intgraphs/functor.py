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

from dataclasses import dataclass
from operator import itemgetter
from typing import Any

from .cob0 import SRC, TGT, Cob0Morphism, cob0_compose, cob0_enumerate
from .execution import CheckReport
from .graph import (
    DIRECTED,
    UNORIENTED,
    Edge,
    ExtNat,
    Graph,
    _order_key,
    _set_edge_id,
    _set_edge_src,
    _set_edge_tgt,
    _set_edges,
    _set_vertices,
    show_items,
)
from .interaction import (
    COD,
    DOM,
    IntMorphism,
    Project,
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


def fundamental_graph(m: Cob0Morphism) -> IntMorphism:
    """The graph of boundary-to-boundary traversals of a cobordism.

    Each matched pair {x, y} yields the two directed edges x -> y and
    y -> x; segments never produce self-loops because their endpoints are
    distinct points.  Circles are invisible here.  The pairs come in the
    `_order_key` order of their lesser point, the lesser point first.

    The image is built once per morphism and kept on it, so a morphism
    met in many functoriality checks keeps one image, and with it the
    image's renamed interface views.  It is read off the two label
    tables, each pair once, and built past the public checks of
    SegmentEdgeId, Edge, Graph and IntMorphism: the pairs of a matching
    are distinct and cover exactly the tagged boundary, so the edge ids
    are distinct and every endpoint is a vertex of the image.
    """
    image = getattr(m, "_fundamental_graph", None)
    if image is not None:
        return image
    # each pair once, and each point keyed once, for the sort within its
    # pair and of the pairs
    ends = []
    for tag, table in ((SRC, m._src), (TGT, m._tgt)):
        met = set()
        for label, q in table.items():
            if q[0] != tag:
                if tag == TGT:
                    continue  # across the sides: met in the source table
            elif label in met:
                continue  # within one side: met from its other end
            else:
                met.add(q[1])
            p = (tag, label)
            kp, kq = _order_key(p), _order_key(q)
            ends.append((kp, kq, p, q) if kp <= kq else (kq, kp, q, p))
    ends.sort(key=itemgetter(0, 1))
    new = object.__new__
    edges = []
    for _, _, x, y in ends:
        u = (DOM if x[0] == SRC else COD, x[1])
        v = (DOM if y[0] == SRC else COD, y[1])
        for s, t in ((u, v), (v, u)):
            sid = new(SegmentEdgeId)
            fields = sid.__dict__
            fields["src"] = s
            fields["tgt"] = t
            e = new(Edge)
            _set_edge_id(e, sid)
            _set_edge_src(e, s)
            _set_edge_tgt(e, t)
            edges.append(e)
    graph = new(Graph)
    _set_vertices(graph, frozenset([(DOM, a) for a in m.source] + [(COD, b) for b in m.target]))
    _set_edges(graph, tuple(edges))
    image = new(IntMorphism)
    fields = image.__dict__
    fields["dom"] = m.source
    fields["cod"] = m.target
    fields["graph"] = graph
    # Not a field, as the label tables are not: ==, hash and repr do not
    # see it, and dataclasses.replace builds a new image.
    object.__setattr__(m, "_fundamental_graph", image)
    return image


def functor_bar(m: Cob0Morphism) -> Project:
    """The faithful extension: the fundamental graph wagered with the
    circle count."""
    return Project(ExtNat(m.circles), fundamental_graph(m).graph)


def _endpoint_multiset(g: Graph) -> dict[tuple, int]:
    """The (source, target) pairs of g's edges, each with its number of
    edges."""
    counts: dict[tuple, int] = {}
    for e in g.edges:
        ends = (e.src, e.tgt)
        counts[ends] = counts.get(ends, 0) + 1
    return counts


def _endpoint_list(g: Graph) -> list[tuple[str, str]]:
    """g's edges as sorted (str(source), str(target)) pairs."""
    return sorted((str(e.src), str(e.tgt)) for e in g.edges)


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
        details["image_of_composite"] = _endpoint_list(lhs.graph)
        details["composite_of_images"] = _endpoint_list(rhs.graph)
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
