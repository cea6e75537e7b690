"""
Bimodular graphs: a finite group per vertex with commuting left/right
actions on each edge set, composed by orbit quotient.

An edge set E(v, v') carries a left action of the group at v and a right
action of the group at v'; the two must commute (the bimodule axiom --
without it the quotient's boundary actions are ill-defined).  Composing
along a middle vertex identifies the pair (e, e') with
(e . b, b^-1 . e') for every b in the middle group, i.e. composite edges
are orbits of pairs, exactly as in a tensor product of bimodules.
Execution generalises this to alternating paths, quotienting by the
product of the interface-junction groups.  Orbits are closed over the
kernel's paths in node order; the first member met names the orbit.  The
quotient graph is built as `execute` builds its result.

All groups are finite with explicit multiplication tables.  The cyclic,
symmetric, Klein four and direct-product constructors each give `_group`
their elements and an operation, and it builds the table.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Callable, Iterable, Mapping

from .graph import (
    Edge,
    EdgeId,
    Graph,
    GraphError,
    Path,
    Vertex,
    _Frozen,
    _order_key,
    alternating_paths,
    derived_graph,
)
from .execution import CheckReport, _executed_graph


class IncompatibleGroupsError(GraphError):
    pass


class IncompatibleActionsError(GraphError):
    pass


class OrbitCapExceededError(GraphError):
    """An exhaustive orbit computation would pass ``_ORBIT_CAP`` elements."""


_ORBIT_CAP = 500_000


class FiniteGroup(_Frozen):
    """A finite group given by its multiplication table.

    Group axioms (closure, identity, inverses, associativity) are checked
    at construction.  ``_others`` holds the elements other than the
    identity, in element order.  The slots refuse assignment and deletion,
    since `cyclic_group` shares its instances; the constructor fills them
    through the slots' own setters.  Copies and pickles go through the
    constructor.
    """

    __slots__ = ("name", "elements", "table", "identity", "inverses", "_others")

    def __init__(self, name: str, elements: Iterable[str], table: Mapping[tuple[str, str], str]):
        elements = tuple(elements)
        table = dict(table)
        if len(set(elements)) != len(elements):
            raise ValueError("group elements must be distinct")
        els = set(elements)
        for a, b in itertools.product(elements, repeat=2):
            if table.get((a, b)) not in els:
                raise ValueError(f"multiplication table incomplete or not closed at ({a}, {b})")
        identity = None
        for e in elements:
            if all(table[(e, a)] == a and table[(a, e)] == a for a in elements):
                identity = e
                break
        if identity is None:
            raise ValueError("group has no identity element")
        inverses = {}
        for a in elements:
            inv = [b for b in elements if table[(a, b)] == identity]
            if len(inv) != 1 or table[(inv[0], a)] != identity:
                raise ValueError(f"element {a} has no unique inverse")
            inverses[a] = inv[0]
        for a, b, c in itertools.product(elements, repeat=3):
            if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                raise ValueError(f"multiplication is not associative at ({a}, {b}, {c})")
        _set_group_name(self, name)
        _set_group_elements(self, elements)
        _set_group_table(self, table)
        _set_group_identity(self, identity)
        _set_group_inverses(self, inverses)
        _set_group_others(self, tuple(a for a in elements if a != identity))

    def mul(self, a: str, b: str) -> str:
        return self.table[(a, b)]

    def inv(self, a: str) -> str:
        return self.inverses[a]

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_trivial(self) -> bool:
        return self.order == 1

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return (
            set(self.elements) == set(other.elements)
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((frozenset(self.elements), frozenset(self.table.items())))

    def __reduce__(self):
        return type(self), (self.name, self.elements, self.table)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order {self.order})"


_set_group_name = FiniteGroup.name.__set__
_set_group_elements = FiniteGroup.elements.__set__
_set_group_table = FiniteGroup.table.__set__
_set_group_identity = FiniteGroup.identity.__set__
_set_group_inverses = FiniteGroup.inverses.__set__
_set_group_others = FiniteGroup._others.__set__


def trivial_group() -> FiniteGroup:
    return cyclic_group(1)


def cyclic_group(k: int) -> FiniteGroup:
    """The cyclic group of order k, elements "0".."k-1" under addition mod k.

    Each order is built and checked once; every call with that order returns
    the same shared instance, which no code mutates.
    """
    if k < 1:
        raise ValueError("cyclic group order must be >= 1")
    return _cyclic_group(k)


@functools.cache
def _cyclic_group(k: int) -> FiniteGroup:
    return _group(f"cyclic:{k}", range(k), lambda a, b: (a + b) % k)


def symmetric_group(n: int) -> FiniteGroup:
    """Permutations of 0..n-1, each named by its image string."""
    if n < 1:
        raise ValueError("symmetric group degree must be >= 1")
    perms = itertools.permutations(range(n))
    compose = lambda p, q: tuple(p[i] for i in q)  # apply q first, then p
    return _group(f"sym:{n}", perms, compose, lambda p: "".join(map(str, p)))


def klein_four_group() -> FiniteGroup:
    # Indexing by bit pairs makes the group law exclusive-or.
    return _group("klein", range(4), operator.xor, "eabc".__getitem__)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    pairs = itertools.product(g.elements, h.elements)
    mul = lambda x, y: (g.mul(x[0], y[0]), h.mul(x[1], y[1]))
    return _group(f"({g.name})x({h.name})", pairs, mul, lambda x: f"{x[0]}|{x[1]}")


def _group(name: str, values: Iterable, op: Callable, label: Callable = str) -> FiniteGroup:
    """The group ``name`` of ``values`` under ``op``: each value is named by
    its ``label``, and the elements keep the order of ``values``."""
    values = list(values)
    table = {(label(a), label(b)): label(op(a, b)) for a in values for b in values}
    return FiniteGroup(name, map(label, values), table)


Perm = dict[EdgeId, EdgeId]
ActionTable = dict[str, Perm]


def _edge_sets_of(graph: Graph) -> dict[tuple[Vertex, Vertex], tuple[EdgeId, ...]]:
    """The ids of the edges from v to w, for each pair (v, w) that has one,
    in edge order."""
    sets: dict[tuple[Vertex, Vertex], list[EdgeId]] = {}
    for e in graph.edges:
        sets.setdefault((e.src, e.tgt), []).append(e.id)
    return {pair: tuple(ids) for pair, ids in sets.items()}


def _action(
    group: FiniteGroup,
    ids: tuple[EdgeId, ...],
    given: Mapping[str, Perm],
    right: bool,
    pair: tuple[Vertex, Vertex],
) -> ActionTable:
    """One side's action of ``group`` on the edge set ``ids`` from vertex
    ``pair``: the ``given`` permutations, checked, and the identity for every
    element not given; then the homomorphism law, which for a left action
    reads (ab).x = a.(b.x) and for a right one x.(ab) = (x.a).b."""
    side = "right" if right else "left"
    id_set = set(ids)
    for g, perm in given.items():
        if g not in group.elements:
            raise IncompatibleActionsError(
                f"{side} action on edge set {pair!r} names {g!r}, not an element of {group!r}"
            )
        if perm.keys() != id_set or set(perm.values()) != id_set:
            raise IncompatibleActionsError(
                f"{side} action of {g!r} is not a permutation of edge set {pair!r}"
            )
    unit = dict(zip(ids, ids))
    table: ActionTable = {g: dict(given.get(g, unit)) for g in group.elements}
    if table[group.identity] != unit:
        raise IncompatibleActionsError(f"identity must act trivially on edge set {pair!r}")
    # With the identity acting trivially, a pair holding it obeys the law;
    # ids compare as the dicts compare them, same object or equal.
    for a, b in itertools.product(group._others, repeat=2):
        ab = table[group.mul(a, b)]
        first, then = (table[a], table[b]) if right else (table[b], table[a])
        for eid in ids:
            x, y = ab[eid], then[first[eid]]
            if x is not y and x != y:
                raise IncompatibleActionsError(
                    f"{side} action is not a homomorphism at ({a}, {b}) on edge set {pair!r}"
                )
    return table


class BimodularGraph(_Frozen):
    """A graph with a group per vertex and commuting left/right actions on
    every edge set.

    ``left[(v, w)][g]`` permutes the ids of the edges from v to w (g drawn
    from the group at v); ``right[(v, w)][h]`` likewise with h from the
    group at w.  Missing entries default to the identity permutation.
    ``_action`` checks each side's table on each edge set, and the
    constructor then checks that the two sides commute.  The slots refuse
    assignment and deletion; the constructor fills them through the slots'
    own setters.  Copies and pickles go through the constructor.
    """

    __slots__ = ("graph", "groups", "left", "right", "_edges")

    def __init__(
        self,
        graph: Graph,
        groups: Mapping[Vertex, FiniteGroup] | None = None,
        left: Mapping[tuple[Vertex, Vertex], ActionTable] | None = None,
        right: Mapping[tuple[Vertex, Vertex], ActionTable] | None = None,
    ):
        given = dict(groups or {})
        for v in given:
            if v not in graph.vertices:
                raise IncompatibleGroupsError(f"group assigned to unknown vertex {v!r}")
        trivial = trivial_group()
        vertex_groups = {v: given.get(v, trivial) for v in graph.vertices}
        edge_sets = _edge_sets_of(graph)

        left, right = left or {}, right or {}
        for tables in (left, right):
            for pair, table in tables.items():
                if table and pair not in edge_sets:
                    raise IncompatibleActionsError(
                        f"action given for vertex pair {pair!r} with no edges"
                    )
        left_tables: dict = {}
        right_tables: dict = {}
        for pair, ids in edge_sets.items():
            lgroup, rgroup = vertex_groups[pair[0]], vertex_groups[pair[1]]
            lact = _action(lgroup, ids, left.get(pair, {}), False, pair)
            ract = _action(rgroup, ids, right.get(pair, {}), True, pair)
            left_tables[pair], right_tables[pair] = lact, ract
            # an identity on either side commutes with everything
            for g in lgroup._others:
                lg = lact[g]
                for h in rgroup._others:
                    rh = ract[h]
                    for eid in ids:
                        x, y = lg[rh[eid]], rh[lg[eid]]
                        if x is not y and x != y:
                            raise IncompatibleActionsError(
                                f"left action of {g!r} and right action of {h!r} do "
                                f"not commute on edge set {pair!r}"
                            )
        _set_bimod_graph(self, graph)
        _set_bimod_groups(self, vertex_groups)
        _set_bimod_left(self, left_tables)
        _set_bimod_right(self, right_tables)
        _set_bimod_edges(self, {e.id: e for e in graph.edges})

    def __repr__(self) -> str:
        return f"BimodularGraph({self.graph!r})"


_set_bimod_graph = BimodularGraph.graph.__set__
_set_bimod_groups = BimodularGraph.groups.__set__
_set_bimod_left = BimodularGraph.left.__set__
_set_bimod_right = BimodularGraph.right.__set__
_set_bimod_edges = BimodularGraph._edges.__set__


def _check_compatible(f: BimodularGraph, g: BimodularGraph) -> None:
    """The groups at each shared vertex must agree.  Edge ids may be
    shared: an id used by both operands names two edges, one per side,
    each acted on by its own side's tables."""
    differ = [v for v in f.graph.vertices & g.graph.vertices if f.groups[v] != g.groups[v]]
    if differ:
        v = min(differ, key=_order_key)  # the least, whatever the set order
        raise IncompatibleGroupsError(
            f"groups at shared vertex {v!r} differ: {f.groups[v]!r} vs {g.groups[v]!r}"
        )


def bimod_compose2(f: BimodularGraph, g: BimodularGraph) -> BimodularGraph:
    """Compose along length-2 paths, identifying (e, e') with
    (e . b, b^-1 . e') for b in the middle vertex's group.

    Composite edges are the orbits; boundary actions descend to them.
    """
    return _quotient_graph(f, g, _length_two_paths)


def _length_two_paths(f: Graph, g: Graph) -> list[Path]:
    """The arcs of the derived graph from an initial node of f to a final
    node of g, in node order."""
    dg = derived_graph(f, g)
    return [
        Path((dg.nodes[i], dg.nodes[j]))
        for i, (side, _) in enumerate(dg.nodes)
        if side == 0 and dg.is_initial[i]
        for j in dg.succ[i]
        if dg.is_final[j]
    ]


_Operands = tuple[BimodularGraph, BimodularGraph]
Steps = tuple[tuple[int, Edge], ...]


def _moved(bgs: _Operands, step: tuple[int, Edge], x: str, right: bool) -> tuple[int, Edge]:
    """``step`` moved by x under its side's right action, or its left
    action when not ``right``."""
    s, e = step
    bg = bgs[s]
    return s, bg._edges[(bg.right if right else bg.left)[(e.src, e.tgt)][x][e.id]]


def _act_at_junction(bgs: _Operands, steps: Steps, i: int, b: str) -> Steps:
    """Apply b at junction i (between steps i-1 and i): the incoming edge
    moves by the right action, the outgoing one by the inverse left action."""
    s_in, e_in = steps[i - 1]
    b_inv = bgs[s_in].groups[e_in.tgt].inv(b)
    return (
        steps[: i - 1]
        + (_moved(bgs, steps[i - 1], b, True), _moved(bgs, steps[i], b_inv, False))
        + steps[i + 1:]
    )


def _orbits(bgs: _Operands, starts: Iterable[Path]) -> tuple[dict[Steps, tuple], list[Path]]:
    """The junction-group orbits through ``starts``: a map from each
    member's steps to its orbit's edge id, and the representatives in order
    of arrival.  The starts come in node order and hold every member of
    each orbit (a junction move keeps vertices and sides), so the first
    member met is the least; its flat id is the orbit's id, and its
    junction groups are every member's."""
    orbit_of: dict[Steps, tuple] = {}
    reps: list[Path] = []
    for path in starts:
        start = path.steps
        if start in orbit_of:
            continue
        reps.append(path)
        key = orbit_of[start] = path.flat_id
        # the identity moves nothing
        junctions = [
            (i, bgs[s].groups[e.tgt]._others) for i, (s, e) in enumerate(start[:-1], start=1)
        ]
        size = 1
        queue = [start]
        while queue:
            cur = queue.pop()
            for i, others in junctions:
                for b in others:
                    img = _act_at_junction(bgs, cur, i, b)
                    if img not in orbit_of:
                        if size >= _ORBIT_CAP:
                            raise OrbitCapExceededError(
                                f"path orbit exceeded {_ORBIT_CAP} elements"
                            )
                        orbit_of[img] = key
                        size += 1
                        queue.append(img)
    return orbit_of, reps


def _quotient_graph(
    f: BimodularGraph, g: BimodularGraph, starts: Callable[[Graph, Graph], list[Path]]
) -> BimodularGraph:
    """The paths ``starts(f.graph, g.graph)`` quotiented by the junction
    groups: the executed graph of one representative per orbit, with the
    boundary actions descending to the orbits through them.  The groups
    are checked before any path is listed."""
    _check_compatible(f, g)
    bgs = (f, g)
    orbit_of, reps = _orbits(bgs, starts(f.graph, g.graph))
    result_graph = _executed_graph(f.graph, g.graph, reps)
    groups = {v: (f.groups if v in f.groups else g.groups)[v] for v in result_graph.vertices}
    left: dict = {}
    right: dict = {}
    for path in reps:
        key, rep = path.flat_id, path.steps
        first, last = rep[0], rep[-1]
        pair = (first[1].src, last[1].tgt)
        # the constructor gives the identity its trivial permutation
        for a in groups[pair[0]]._others:
            img = orbit_of[(_moved(bgs, first, a, False),) + rep[1:]]
            left.setdefault(pair, {}).setdefault(a, {})[key] = img
        for c in groups[pair[1]]._others:
            img = orbit_of[rep[:-1] + (_moved(bgs, last, c, True),)]
            right.setdefault(pair, {}).setdefault(c, {})[key] = img
    return BimodularGraph(result_graph, groups, left, right)


def bimod_execute(f: BimodularGraph, g: BimodularGraph) -> BimodularGraph:
    """Execution of bimodular graphs: alternating paths quotiented by the
    junction groups, with the boundary actions descending to orbits.

    With all groups trivial this equals `execute` of the underlying graphs
    on every input, errors included, and an edge id used by both operands
    names two edges, as there.  Raises InfinitePathSetError via the same
    detector as plain execution.
    """
    return _quotient_graph(f, g, alternating_paths)


def check_well_defined(f: BimodularGraph, g: BimodularGraph) -> CheckReport:
    """Verify the path quotient is representative-independent: acting by
    every tuple of junction-group elements on every path lands in the
    path's own computed orbit."""
    _check_compatible(f, g)
    bgs = (f, g)
    paths = alternating_paths(f.graph, g.graph)
    orbit_of, _ = _orbits(bgs, paths)
    checked = violations = 0
    for p in paths:
        junctions = [bgs[s].groups[e.tgt] for s, e in p.steps[:-1]]
        total = math.prod(grp.order for grp in junctions)
        if total > _ORBIT_CAP:
            raise OrbitCapExceededError(
                f"junction-group product {total} exceeds {_ORBIT_CAP}; too large "
                "for an exhaustive check"
            )
        for assignment in itertools.product(*(grp.elements for grp in junctions)):
            cur = p.steps
            for i, b in enumerate(assignment, start=1):
                cur = _act_at_junction(bgs, cur, i, b)
            checked += 1
            violations += orbit_of[cur] != orbit_of[p.steps]
    details = {"paths": len(paths), "applications": checked, "violations": violations}
    return CheckReport("bimod-well-defined", not violations, details)
