"""
Execution of interaction graphs and the prime-cycle measure.

Executing two graphs plugs them along their shared vertices: the result
lives on the symmetric difference of the vertex sets and has one edge per
boundary-to-boundary alternating path.  Each produced edge carries its
flattened base-edge sequence as its id, so nested executions normalise to
directly comparable graphs.

The two checkers verify, on concrete triples, the identities that make
execution compose well: associativity of execution, and the trefoil
property relating the four prime-cycle counts arising from the two ways
of plugging three graphs together.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Sequence

from .graph import (
    DIRECTED,
    OMEGA,
    DuplicateEdgeIdError,
    ExtNat,
    Graph,
    GraphError,
    InfiniteCycleSetError,
    Path,
    _order_key,
    alternating_paths,
    flatten,
    prime_cycles,
    show_items,
)


class PreconditionViolationError(GraphError):
    pass


def execute(g: Graph, h: Graph) -> Graph:
    """Plug g and h together: vertices are the symmetric difference, edges
    the boundary-to-boundary alternating paths (flattened ids), listed in
    the node order `alternating_paths` gives them.

    Precondition: g and h have disjoint base edge ids, and flattening is
    injective on each operand's own ids, so that every path's flattened id
    is unique.  It is not checked up front; a pair that shares ids but
    still gives distinct flat ids (e: a -> m in g, e: m -> b in h) executes
    normally.  When two paths do get the same flat id, the first flat id
    that repeats, in that order, decides the error.  The shared ids inside
    it are named in a PreconditionViolationError; shared ids elsewhere are
    not.  When it holds no shared id, as when ids of one graph flatten
    alike, such as ``x`` and ``("x",)``, the plain DuplicateEdgeIdError
    names that flat id.

    The result is built by the trusted `Graph._executed`, which checks
    only that flat ids are unique; every path runs between boundary
    vertices, so its edge's endpoints are in the vertex set by
    construction.

    Raises InfinitePathSetError when the path set is infinite.
    """
    return _executed_graph(g, h, alternating_paths(g, h))


def _executed_graph(g: Graph, h: Graph, paths: Sequence[Path]) -> Graph:
    """The graph on the vertices of g or h alone, with one edge per path
    named by its flat id, in path order; two paths with one flat id raise
    as `execute` says.

    Every path must run from a boundary vertex to a boundary vertex, as
    the kernel's boundary-to-boundary paths and the bimodular orbit
    representatives among them do: `Graph._executed` does not check the
    endpoints."""
    try:
        return Graph._executed(g.vertices ^ h.vertices, paths)
    except DuplicateEdgeIdError as exc:
        shared = set(exc.edge_id) & _base_ids(g) & _base_ids(h)
        if not shared:
            raise
        raise PreconditionViolationError(
            f"execute needs disjoint edge ids, but both graphs use {show_items(shared)}"
        ) from exc


def _base_ids(g: Graph) -> set:
    return {base for e in g.edges for base in flatten(e.id)}


def measure(g: Graph, h: Graph, mode: str = DIRECTED) -> ExtNat:
    """Number of prime alternating-cycle classes between g and h in the
    given mode; omega when the cycle set is infinite."""
    try:
        return ExtNat(len(prime_cycles(g, h, mode)))
    except InfiniteCycleSetError:
        return OMEGA


def normal_form(g: Graph) -> tuple[frozenset, tuple]:
    """Display form of a graph: vertex set plus the (flattened id, source,
    target) edges in `_order_key` order.

    The str of such a triple prints each part by repr, so only edges whose
    triples print alike keep input order; compare two forms with
    `_same_form`, not ``==``.
    """
    edges = sorted(((flatten(e.id), e.src, e.tgt) for e in g.edges), key=_order_key)
    return (g.vertices, tuple(edges))


def _same_form(a: tuple[frozenset, tuple], b: tuple[frozenset, tuple]) -> bool:
    """Equal vertex sets and equal edge multisets, whatever the edge order.
    Equal sorted edge tuples settle it; only tuples that differ, perhaps
    just in the order of tied edges, are counted."""
    return a[0] == b[0] and (a[1] == b[1] or Counter(a[1]) == Counter(b[1]))


def graphs_equal_flattened(g: Graph, h: Graph) -> bool:
    """Equality after flattening edge ids (vertices and edge multisets)."""
    return _same_form(normal_form(g), normal_form(h))


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one identity check: verdict plus enough context to see
    why (counts on success, both sides' data on failure)."""

    check: str
    passed: bool
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def render_text(self) -> str:
        lines = [f"{self.check}: {self.verdict}"]
        for key in sorted(self.details):
            lines.append(f"  {key} = {self.details[key]}")
        return "\n".join(lines)

    def render_line(self) -> str:
        parts = [f"check={self.check}", f"verdict={self.verdict}"]
        parts += [f"{k}={self.details[k]}" for k in sorted(self.details)]
        return " ".join(str(p).replace("\n", " ") for p in parts)


def _require_empty_triple_intersection(f: Graph, g: Graph, h: Graph) -> None:
    common = f.vertices & g.vertices & h.vertices
    if common:
        raise PreconditionViolationError(
            f"triple vertex intersection must be empty, got {show_items(common)}"
        )


def check_associativity(f: Graph, g: Graph, h: Graph) -> CheckReport:
    """Compare the flattened normal forms of (f::g)::h and f::(g::h).

    Requires an empty triple vertex intersection; propagates
    InfinitePathSetError when an intermediate path set is infinite.
    """
    _require_empty_triple_intersection(f, g, h)
    left = execute(execute(f, g), h)
    right = execute(f, execute(g, h))
    lform = normal_form(left)
    rform = normal_form(right)
    passed = _same_form(lform, rform)
    details: dict[str, Any] = {
        "vertices": len(left.vertices),
        "edges_left": len(left.edges),
        "edges_right": len(right.edges),
    }
    if not passed:
        details["left_form"] = lform
        details["right_form"] = rform
    return CheckReport("associativity", passed, details)


def check_trefoil(f: Graph, g: Graph, h: Graph, mode: str = DIRECTED) -> CheckReport:
    """Verify |C(f, g::h)| + |C(g, h)| = |C(h, f::g)| + |C(f, g)|.

    Requires an empty triple vertex intersection; raises
    InfiniteCycleSetError / InfinitePathSetError when any of the four cycle
    sets or the two inner executions is infinite.
    """
    _require_empty_triple_intersection(f, g, h)
    gh = execute(g, h)
    fg = execute(f, g)
    # |C(F, G)| now, while `derived_graph` still holds the pair F, G.  An
    # infinite set is counted again last, where the identity reads it, so
    # the first infinite set of the four in the identity's order decides
    # the error.
    try:
        n_f_g: int | None = len(prime_cycles(f, g, mode))
    except InfiniteCycleSetError:
        n_f_g = None
    n_f_gh = len(prime_cycles(f, gh, mode))
    n_g_h = len(prime_cycles(g, h, mode))
    n_h_fg = len(prime_cycles(h, fg, mode))
    if n_f_g is None:
        n_f_g = len(prime_cycles(f, g, mode))
    passed = n_f_gh + n_g_h == n_h_fg + n_f_g
    details = {
        "mode": mode,
        "cycles(F,G::H)": n_f_gh,
        "cycles(G,H)": n_g_h,
        "cycles(H,F::G)": n_h_fg,
        "cycles(F,G)": n_f_g,
        "lhs": n_f_gh + n_g_h,
        "rhs": n_h_fg + n_f_g,
    }
    return CheckReport("trefoil", passed, details)
