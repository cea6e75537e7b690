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
product of the interface-junction groups.

All groups are finite with explicit multiplication tables; cyclic and
small permutation groups are provided as builders.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Mapping

from .graph import (
    Edge,
    EdgeId,
    Graph,
    GraphError,
    Path,
    Vertex,
    _node_order,
    _order_key,
    alternating_paths,
    flatten,
)
from .execution import CheckReport


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


class BimodularGraph:
    """A graph with a group per vertex and commuting left/right actions on
    every edge set.

    ``left[(v, w)][g]`` permutes the ids of the edges from v to w (g drawn
    from the group at v); ``right[(v, w)][h]`` likewise with h from the
    group at w.  Missing entries default to the identity permutation; the
    action and commutation axioms are validated on the completed tables.
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

        edge_sets: dict[tuple[Vertex, Vertex], tuple[EdgeId, ...]] = {}
        for e in graph.edges:
            edge_sets.setdefault((e.src, e.tgt), ())
            edge_sets[(e.src, e.tgt)] += (e.id,)
        self._edge_sets = edge_sets

        self.left = self._complete(left or {}, side="left")
        self.right = self._complete(right or {}, side="right")
        self._validate()

    def edge_set(self, v: Vertex, w: Vertex) -> tuple[EdgeId, ...]:
        return self._edge_sets.get((v, w), ())

    def _complete(self, given: Mapping, side: str) -> dict:
        out: dict[tuple[Vertex, Vertex], ActionTable] = {}
        for (v, w), ids in self._edge_sets.items():
            acting = self.groups[v if side == "left" else w]
            table = dict(given.get((v, w), {}))
            full: ActionTable = {}
            for g in acting.elements:
                perm = dict(table.get(g, {eid: eid for eid in ids}))
                full[g] = perm
            out[(v, w)] = full
        for key in given:
            if key not in self._edge_sets and given[key]:
                raise IncompatibleActionsError(
                    f"action given for vertex pair {key!r} with no edges"
                )
        return out

    def _validate(self) -> None:
        for (v, w), ids in self._edge_sets.items():
            id_set = set(ids)
            lgrp = self.groups[v]
            rgrp = self.groups[w]
            lact = self.left[(v, w)]
            ract = self.right[(v, w)]
            for g, perm in list(lact.items()) + list(ract.items()):
                if set(perm) != id_set or set(perm.values()) != id_set:
                    raise IncompatibleActionsError(
                        f"action of {g!r} on edges {v!r}->{w!r} is not a "
                        f"permutation of that edge set"
                    )
            for eid in ids:
                if lact[lgrp.identity][eid] != eid or ract[rgrp.identity][eid] != eid:
                    raise IncompatibleActionsError(
                        f"identity must act trivially on {eid!r}"
                    )
            for g1, g2 in itertools.product(lgrp.elements, repeat=2):
                prod = lgrp.mul(g1, g2)
                for eid in ids:
                    if lact[prod][eid] != lact[g1][lact[g2][eid]]:
                        raise IncompatibleActionsError(
                            f"left action is not a homomorphism at ({g1}, {g2}) "
                            f"on edges {v!r}->{w!r}"
                        )
            for h1, h2 in itertools.product(rgrp.elements, repeat=2):
                prod = rgrp.mul(h1, h2)
                for eid in ids:
                    if ract[prod][eid] != ract[h2][ract[h1][eid]]:
                        raise IncompatibleActionsError(
                            f"right action is not a homomorphism at ({h1}, {h2}) "
                            f"on edges {v!r}->{w!r}"
                        )
            for g, h in itertools.product(lgrp.elements, rgrp.elements):
                for eid in ids:
                    if lact[g][ract[h][eid]] != ract[h][lact[g][eid]]:
                        raise IncompatibleActionsError(
                            f"left action of {g!r} and right action of {h!r} do "
                            f"not commute on edges {v!r}->{w!r}"
                        )

    def all_groups_trivial(self) -> bool:
        return all(grp.is_trivial() for grp in self.groups.values())

    def __repr__(self) -> str:
        return f"BimodularGraph({self.graph!r})"


def _check_compatible(f: BimodularGraph, g: BimodularGraph) -> None:
    for v in f.graph.vertices & g.graph.vertices:
        if f.groups[v] != g.groups[v]:
            raise IncompatibleGroupsError(
                f"groups at shared vertex {v!r} differ: "
                f"{f.groups[v]!r} vs {g.groups[v]!r}"
            )
    shared_ids = f.graph.edge_ids & g.graph.edge_ids
    for eid in shared_ids:
        ef, eg = f.graph.edge(eid), g.graph.edge(eid)
        if (ef.src, ef.tgt) != (eg.src, eg.tgt):
            raise IncompatibleActionsError(f"shared edge {eid!r} has different endpoints")
        key = (ef.src, ef.tgt)
        if f.left[key] != g.left[key] or f.right[key] != g.right[key]:
            raise IncompatibleActionsError(
                f"actions on shared edge set {key!r} differ"
            )


def bimod_compose2(f: BimodularGraph, g: BimodularGraph) -> BimodularGraph:
    """Compose along length-2 paths, identifying (e, e') with
    (e . b, b^-1 . e') for b in the middle vertex's group.

    Composite edges are the orbits; boundary actions descend to them.
    """
    _check_compatible(f, g)
    boundary = f.graph.vertices ^ g.graph.vertices
    bgs = (f, g)
    starts = [
        ((0, f.graph.edge(e_id)), (1, g.graph.edge(e2_id)))
        for (v, mid), f_ids in f._edge_sets.items()
        for (mid2, w), g_ids in g._edge_sets.items()
        if mid2 == mid and v in boundary and w in boundary
        for e_id, e2_id in itertools.product(f_ids, g_ids)
    ]
    orbit_of, rep_of = _orbits(bgs, starts)
    return _quotient_graph(bgs, orbit_of, rep_of)


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


def _flat_id(steps: Steps) -> tuple:
    return flatten(tuple(e.id for _, e in steps))


def _orbits(
    bgs: tuple[BimodularGraph, BimodularGraph], starts: Iterable[Steps]
) -> tuple[dict[Steps, tuple], dict[tuple, Steps]]:
    """The junction-group orbits through the given paths: a map from each
    member's steps to its orbit's edge id, and from each orbit id to its
    least member, its nodes compared in `_node_order`."""
    orbit_of: dict[Steps, tuple] = {}
    rep_of: dict[tuple, Steps] = {}
    for steps in starts:
        if steps in orbit_of:
            continue
        orbit = _path_orbit(bgs, steps)
        rep = min(orbit, key=lambda member: list(map(_node_order, member)))
        key = _flat_id(rep)
        rep_of[key] = rep
        for member in orbit:
            orbit_of[member] = key
    return orbit_of, rep_of


def _path_quotient(
    f: BimodularGraph, g: BimodularGraph
) -> tuple[list[Path], dict[Steps, tuple], dict[tuple, Steps]]:
    """Orbits of the alternating paths between the underlying graphs.

    Returns the paths, a map from each path's steps to its orbit's edge id,
    and a map from each orbit id to its canonical representative.
    """
    _check_compatible(f, g)
    paths = alternating_paths(f.graph, g.graph)
    orbit_of, rep_of = _orbits((f, g), [p.steps for p in paths])
    return paths, orbit_of, rep_of


def _quotient_graph(
    bgs: tuple[BimodularGraph, BimodularGraph],
    orbit_of: dict[Steps, tuple],
    rep_of: dict[tuple, Steps],
) -> BimodularGraph:
    """One boundary edge per orbit, with the boundary actions descending to
    the orbits through their representatives."""
    f, g = bgs
    boundary = f.graph.vertices ^ g.graph.vertices

    edges = []
    for key, rep in sorted(rep_of.items(), key=lambda kv: _order_key(kv[0])):
        edges.append(Edge(key, rep[0][1].src, rep[-1][1].tgt))
    result_graph = Graph(boundary, edges)
    groups = {
        v: (f.groups[v] if v in f.graph.vertices else g.groups[v]) for v in boundary
    }

    left: dict = {}
    right: dict = {}
    for key, rep in rep_of.items():
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

    With all groups trivial this degenerates to plain execution of the
    underlying graphs.  Raises InfinitePathSetError via the same detector
    as plain execution.
    """
    _, orbit_of, rep_of = _path_quotient(f, g)
    return _quotient_graph((f, g), orbit_of, rep_of)


def check_well_defined(f: BimodularGraph, g: BimodularGraph) -> CheckReport:
    """Verify the path quotient is representative-independent: acting by
    every tuple of junction-group elements on every path lands in the
    path's own computed orbit."""
    paths, orbit_of, _ = _path_quotient(f, g)
    bgs = (f, g)
    checked = 0
    violations = []
    for p in paths:
        junctions = [
            bgs[p.steps[i - 1][0]].groups[p.steps[i - 1][1].tgt]
            for i in range(1, len(p.steps))
        ]
        total = 1
        for grp in junctions:
            total *= grp.order
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
