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

All groups are finite with explicit multiplication tables; cyclic and
small permutation groups are provided as builders.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Mapping

from .graph import (
    Edge,
    EdgeId,
    Graph,
    GraphError,
    Path,
    Vertex,
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


class FiniteGroup:
    """A finite group given by its multiplication table.

    Group axioms (closure, identity, inverses, associativity) are checked
    at construction.
    """

    __slots__ = ("name", "elements", "table", "identity", "inverses")

    def __init__(self, name: str, elements: Iterable[str], table: Mapping[tuple[str, str], str]):
        self.name = name
        self.elements = tuple(elements)
        self.table = dict(table)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("group elements must be distinct")
        els = set(self.elements)
        for a, b in itertools.product(self.elements, repeat=2):
            if self.table.get((a, b)) not in els:
                raise ValueError(f"multiplication table incomplete or not closed at ({a}, {b})")
        identity = None
        for e in self.elements:
            if all(self.table[(e, a)] == a and self.table[(a, e)] == a for a in self.elements):
                identity = e
                break
        if identity is None:
            raise ValueError("group has no identity element")
        self.identity = identity
        inverses = {}
        for a in self.elements:
            inv = [b for b in self.elements if self.table[(a, b)] == identity]
            if len(inv) != 1 or self.table[(inv[0], a)] != identity:
                raise ValueError(f"element {a} has no unique inverse")
            inverses[a] = inv[0]
        self.inverses = inverses
        for a, b, c in itertools.product(self.elements, repeat=3):
            if self.table[(self.table[(a, b)], c)] != self.table[(a, self.table[(b, c)])]:
                raise ValueError(f"multiplication is not associative at ({a}, {b}, {c})")

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
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return (
            set(self.elements) == set(other.elements)
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((frozenset(self.elements), frozenset(self.table.items())))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order {self.order})"


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
    elements = [str(i) for i in range(k)]
    table = {
        (str(i), str(j)): str((i + j) % k) for i in range(k) for j in range(k)
    }
    return FiniteGroup(f"cyclic:{k}", elements, table)


def symmetric_group(n: int) -> FiniteGroup:
    """Permutations of 0..n-1, each named by its image string."""
    if n < 1:
        raise ValueError("symmetric group degree must be >= 1")
    perms = list(itertools.permutations(range(n)))
    name = lambda p: "".join(map(str, p))
    table = {}
    for p, q in itertools.product(perms, repeat=2):
        composed = tuple(p[q[i]] for i in range(n))  # apply q first, then p
        table[(name(p), name(q))] = name(composed)
    return FiniteGroup(f"sym:{n}", [name(p) for p in perms], table)


def klein_four_group() -> FiniteGroup:
    # Indexing by bit pairs makes the group law exclusive-or.
    elements = ["e", "a", "b", "c"]
    idx = {x: i for i, x in enumerate(elements)}
    table = {
        (x, y): elements[idx[x] ^ idx[y]] for x in elements for y in elements
    }
    return FiniteGroup("klein", elements, table)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    elements = [f"{a}|{b}" for a in g.elements for b in h.elements]
    table = {}
    for a1, b1 in itertools.product(g.elements, h.elements):
        for a2, b2 in itertools.product(g.elements, h.elements):
            table[(f"{a1}|{b1}", f"{a2}|{b2}")] = f"{g.mul(a1, a2)}|{h.mul(b1, b2)}"
    return FiniteGroup(f"({g.name})x({h.name})", elements, table)


Perm = dict[EdgeId, EdgeId]
ActionTable = dict[str, Perm]


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
    for a, b in itertools.product(group.elements, repeat=2):
        ab = table[group.mul(a, b)]
        first, then = (table[a], table[b]) if right else (table[b], table[a])
        for eid in ids:
            if ab[eid] != then[first[eid]]:
                raise IncompatibleActionsError(
                    f"{side} action is not a homomorphism at ({a}, {b}) on edge set {pair!r}"
                )
    return table


class BimodularGraph:
    """A graph with a group per vertex and commuting left/right actions on
    every edge set.

    ``left[(v, w)][g]`` permutes the ids of the edges from v to w (g drawn
    from the group at v); ``right[(v, w)][h]`` likewise with h from the
    group at w.  Missing entries default to the identity permutation.
    ``_action`` checks each side's table on each edge set, and the
    constructor then checks that the two sides commute.
    """

    __slots__ = ("graph", "groups", "left", "right", "_edge_sets")

    def __init__(
        self,
        graph: Graph,
        groups: Mapping[Vertex, FiniteGroup] | None = None,
        left: Mapping[tuple[Vertex, Vertex], ActionTable] | None = None,
        right: Mapping[tuple[Vertex, Vertex], ActionTable] | None = None,
    ):
        self.graph = graph
        given = dict(groups or {})
        for v in given:
            if v not in graph.vertices:
                raise IncompatibleGroupsError(f"group assigned to unknown vertex {v!r}")
        self.groups = {v: given.get(v, trivial_group()) for v in graph.vertices}

        edge_sets: dict[tuple[Vertex, Vertex], list[EdgeId]] = {}
        for e in graph.edges:
            edge_sets.setdefault((e.src, e.tgt), []).append(e.id)
        self._edge_sets = {pair: tuple(ids) for pair, ids in edge_sets.items()}

        left, right = left or {}, right or {}
        for tables in (left, right):
            for pair, table in tables.items():
                if table and pair not in edge_sets:
                    raise IncompatibleActionsError(
                        f"action given for vertex pair {pair!r} with no edges"
                    )
        self.left, self.right = {}, {}
        for pair, ids in self._edge_sets.items():
            lact = _action(self.groups[pair[0]], ids, left.get(pair, {}), False, pair)
            ract = _action(self.groups[pair[1]], ids, right.get(pair, {}), True, pair)
            self.left[pair], self.right[pair] = lact, ract
            for (g, lg), (h, rh) in itertools.product(lact.items(), ract.items()):
                for eid in ids:
                    if lg[rh[eid]] != rh[lg[eid]]:
                        raise IncompatibleActionsError(
                            f"left action of {g!r} and right action of {h!r} do "
                            f"not commute on edge set {pair!r}"
                        )

    def edge_set(self, v: Vertex, w: Vertex) -> tuple[EdgeId, ...]:
        return self._edge_sets.get((v, w), ())

    def all_groups_trivial(self) -> bool:
        return all(grp.is_trivial() for grp in self.groups.values())

    def __repr__(self) -> str:
        return f"BimodularGraph({self.graph!r})"


def _check_compatible(f: BimodularGraph, g: BimodularGraph) -> None:
    """The groups at each shared vertex must agree.  Edge ids may be
    shared: an id used by both operands names two edges, one per side,
    each acted on by its own side's tables."""
    for v in f.graph.vertices & g.graph.vertices:
        if f.groups[v] != g.groups[v]:
            raise IncompatibleGroupsError(
                f"groups at shared vertex {v!r} differ: "
                f"{f.groups[v]!r} vs {g.groups[v]!r}"
            )


def bimod_compose2(f: BimodularGraph, g: BimodularGraph) -> BimodularGraph:
    """Compose along length-2 paths, identifying (e, e') with
    (e . b, b^-1 . e') for b in the middle vertex's group.

    The length-2 paths are the arcs of the derived graph from an initial
    node of f to a final node of g, read in node order.  Composite edges
    are the orbits; boundary actions descend to them.
    """
    _check_compatible(f, g)
    dg = derived_graph(f.graph, g.graph)
    starts = [
        Path((dg.nodes[i], dg.nodes[j]))
        for i, (side, _) in enumerate(dg.nodes)
        if side == 0 and dg.is_initial[i]
        for j in dg.succ[i]
        if dg.is_final[j]
    ]
    return _quotient_graph((f, g), *_orbits((f, g), starts))


Steps = tuple[tuple[int, Edge], ...]


def _act_at_junction(
    bgs: tuple[BimodularGraph, BimodularGraph], steps: Steps, i: int, b: str
) -> Steps:
    """Apply b at junction i (between steps i-1 and i): the incoming edge
    moves by the right action, the outgoing one by the inverse left action."""
    s_in, e_in = steps[i - 1]
    s_out, e_out = steps[i]
    bg_in, bg_out = bgs[s_in], bgs[s_out]
    group = bg_in.groups[e_in.tgt]
    new_in_id = bg_in.right[(e_in.src, e_in.tgt)][b][e_in.id]
    new_out_id = bg_out.left[(e_out.src, e_out.tgt)][group.inv(b)][e_out.id]
    return (
        steps[: i - 1]
        + ((s_in, bg_in.graph.edge(new_in_id)), (s_out, bg_out.graph.edge(new_out_id)))
        + steps[i + 1:]
    )


def _path_orbit(bgs: tuple[BimodularGraph, BimodularGraph], start: Steps) -> frozenset:
    """Closure of one alternating path under all junction-group moves."""
    seen = {start}
    queue = [start]
    while queue:
        cur = queue.pop()
        for i in range(1, len(cur)):
            group = bgs[cur[i - 1][0]].groups[cur[i - 1][1].tgt]
            for b in group.elements:
                img = _act_at_junction(bgs, cur, i, b)
                if img not in seen:
                    if len(seen) >= _ORBIT_CAP:
                        raise OrbitCapExceededError(
                            f"path orbit exceeded {_ORBIT_CAP} elements"
                        )
                    seen.add(img)
                    queue.append(img)
    return frozenset(seen)


def _orbits(
    bgs: tuple[BimodularGraph, BimodularGraph], starts: Iterable[Path]
) -> tuple[dict[Steps, tuple], list[Path]]:
    """The junction-group orbits through ``starts``: a map from each
    member's steps to its orbit's edge id, and the representatives in order
    of arrival.  The starts come in node order and hold every member of
    each orbit (a junction move keeps vertices and sides), so the first
    member met is the least; its flat id is the orbit's id."""
    orbit_of: dict[Steps, tuple] = {}
    reps: list[Path] = []
    for path in starts:
        if path.steps in orbit_of:
            continue
        reps.append(path)
        for member in _path_orbit(bgs, path.steps):
            orbit_of[member] = path.flat_id
    return orbit_of, reps


def _quotient_graph(
    bgs: tuple[BimodularGraph, BimodularGraph],
    orbit_of: dict[Steps, tuple],
    reps: list[Path],
) -> BimodularGraph:
    """The executed graph of the representatives, one edge per orbit, with
    the boundary actions descending to the orbits through them."""
    f, g = bgs
    result_graph = _executed_graph(f.graph, g.graph, reps)
    groups = {
        v: (f.groups[v] if v in f.graph.vertices else g.groups[v])
        for v in result_graph.vertices
    }

    left: dict = {}
    right: dict = {}
    for path in reps:
        key, rep = path.flat_id, path.steps
        s0, e0 = rep[0]
        sn, en = rep[-1]
        pair = (e0.src, en.tgt)
        for a in groups[e0.src].elements:
            new_first = bgs[s0].graph.edge(bgs[s0].left[(e0.src, e0.tgt)][a][e0.id])
            img = orbit_of[((s0, new_first),) + rep[1:]]
            left.setdefault(pair, {}).setdefault(a, {})[key] = img
        for c in groups[en.tgt].elements:
            new_last = bgs[sn].graph.edge(bgs[sn].right[(en.src, en.tgt)][c][en.id])
            img = orbit_of[rep[:-1] + ((sn, new_last),)]
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
    _check_compatible(f, g)
    return _quotient_graph((f, g), *_orbits((f, g), alternating_paths(f.graph, g.graph)))


def check_well_defined(f: BimodularGraph, g: BimodularGraph) -> CheckReport:
    """Verify the path quotient is representative-independent: acting by
    every tuple of junction-group elements on every path lands in the
    path's own computed orbit."""
    _check_compatible(f, g)
    bgs = (f, g)
    paths = alternating_paths(f.graph, g.graph)
    orbit_of, _ = _orbits(bgs, paths)
    checked = 0
    violations = []
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
            if orbit_of[cur] != orbit_of[p.steps]:
                violations.append((p.steps, assignment))
    details = {
        "paths": len(paths),
        "applications": checked,
        "violations": len(violations),
    }
    return CheckReport("bimod-well-defined", not violations, details)
