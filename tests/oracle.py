"""Brute-force oracles for alternating-path and prime-cycle finiteness,
and for gluing cobordisms.

Deliberately independent of the library's derived-graph analysis: the path
oracle runs a breadth-first search over (tip edge, visited set)
configurations with a pigeonhole rule for infiniteness, and the cycle
oracle enumerates simple alternating cycles directly, declaring the cycle
set infinite as soon as some edge lies on two distinct simple cycles.
Both work straight off the two graphs' edge lists.  The gluing oracle
takes connected components of the union of the two matchings instead of
chasing chains.  The rotation oracle computes every rotation's node keys in
full instead of comparing derived-graph node numbers.  The bimodular oracle
applies every tuple of junction elements to a path at once and takes the
orbits as union-find components, instead of closing orbits move by move.
The reversal oracle matches one cycle against another read backwards at
every rotation, step by step.  The erased endpoint form is the one in which
the identity laws of interaction morphisms hold.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque

from intgraphs.cob0 import SRC, TGT, Cob0Morphism
from intgraphs.graph import Graph, flatten
from intgraphs.interaction import IdentityEdgeId, IntMorphism

INFINITE = "infinite"
FINITE = "finite"

_CONFIG_CAP = 2_000_000


def _steps(g: Graph, h: Graph):
    nodes = [(0, e) for e in g.edges] + [(1, e) for e in h.edges]
    nodes.sort(key=lambda n: (str(n[1].id), n[0]))
    succ = {
        node: tuple(
            m for m in nodes if m[0] != node[0] and m[1].src == node[1].tgt
        )
        for node in nodes
    }
    return nodes, succ


def oracle_paths(g: Graph, h: Graph):
    """Return (verdict, walks) where verdict is "finite" or "infinite".

    When finite, walks is the frozenset of all boundary-to-boundary
    alternating paths, each a tuple of (side, edge id) steps.  When
    infinite, walks is None.
    """
    nodes, succ = _steps(g, h)
    boundary = g.vertices ^ h.vertices
    starts = [n for n in nodes if n[1].src in boundary]
    finals = {n for n in nodes if n[1].tgt in boundary}

    # Phase A: repeat-free walks as (tip, visited) configurations.  A step
    # into an already-visited node exhibits a cycle reachable from a
    # boundary source; the path set is infinite iff such a node can still
    # reach a boundary sink (phase B).
    parents: dict[tuple, tuple | None] = {}
    queue: deque[tuple] = deque()
    for n in starts:
        cfg = (n, frozenset([n]))
        if cfg not in parents:
            parents[cfg] = None
            queue.append(cfg)
    pump_seeds: set = set()
    while queue:
        cfg = queue.popleft()
        tip, visited = cfg
        for m in succ[tip]:
            if m in visited:
                pump_seeds.add(m)
                continue
            nxt = (m, visited | {m})
            if nxt not in parents:
                if len(parents) >= _CONFIG_CAP:
                    raise RuntimeError("path oracle exceeded configuration cap")
                parents[nxt] = cfg
                queue.append(nxt)

    if pump_seeds:
        seen = set(pump_seeds)
        stack = list(pump_seeds)
        while stack:
            n = stack.pop()
            if n in finals:
                return INFINITE, None
            for m in succ[n]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)

    walks = set()
    for cfg in parents:
        if cfg[0] not in finals:
            continue
        walk = []
        cur: tuple | None = cfg
        while cur is not None:
            walk.append((cur[0][0], cur[0][1].id))
            cur = parents[cur]
        walks.add(tuple(reversed(walk)))
    # Pigeonhole guard: more distinct paths than node subsets would force a
    # repeated configuration on a cycle.  Unreachable after phase B, kept
    # as a belt-and-braces check.
    if len(walks) > 4 ** len(nodes):
        return INFINITE, None
    return FINITE, frozenset(walks)


def _canonical(cycle: tuple) -> tuple:
    rotations = (cycle[i:] + cycle[:i] for i in range(len(cycle)))
    return min(rotations, key=lambda rot: tuple((str(e), s) for s, e in rot))


def oracle_cycles(g: Graph, h: Graph):
    """Return (verdict, cycles): all prime alternating cycles, canonically
    rotated as tuples of (side, edge id), or ("infinite", None).

    The cycle set is infinite exactly when some edge lies on two distinct
    simple alternating cycles; in the finite case the prime cycles are
    exactly the simple ones.
    """
    nodes, succ = _steps(g, h)
    order = {n: i for i, n in enumerate(nodes)}
    per_node_count: dict = {n: 0 for n in nodes}
    cycles = []
    expansions = 0

    for root in nodes:
        # Simple cycles whose least node (in the fixed order) is root.
        stack = [(root, [root], {root})]
        while stack:
            tip, walk, visited = stack.pop()
            for m in succ[tip]:
                if m == root:
                    cycle = tuple(walk)
                    cycles.append(cycle)
                    for n in cycle:
                        per_node_count[n] += 1
                        if per_node_count[n] >= 2:
                            return INFINITE, None
                    continue
                if order[m] < order[root] or m in visited:
                    continue
                expansions += 1
                if expansions > _CONFIG_CAP:
                    raise RuntimeError("cycle oracle exceeded expansion cap")
                stack.append((m, walk + [m], visited | {m}))

    canon = frozenset(
        _canonical(tuple((s, e.id) for s, e in cycle)) for cycle in cycles
    )
    return FINITE, canon


def oracle_cob0_compose(m: Cob0Morphism, n: Cob0Morphism):
    """Return (pairs, circles) of the glued cobordism m;n.

    Builds one undirected graph on A + B + C (m: A -> B, n: B -> C) whose
    edges are the pairs of both matchings.  A component holding outer
    points (of A or C) becomes a pair of the composite; a component with
    none becomes a circle.
    """
    place = ({SRC: "A", TGT: "B"}, {SRC: "B", TGT: "C"})
    adj: dict = {}
    for side, mor in enumerate((m, n)):
        for pair in mor.pairs:
            p, q = ((place[side][tag], label) for tag, label in pair)
            adj.setdefault(p, []).append(q)
            adj.setdefault(q, []).append(p)
    back = {"A": SRC, "C": TGT}
    pairs = set()
    circles = m.circles + n.circles
    seen: set = set()
    for start in adj:
        if start in seen:
            continue
        component = {start}
        stack = [start]
        while stack:
            for other in adj[stack.pop()]:
                if other not in component:
                    component.add(other)
                    stack.append(other)
        seen |= component
        outer = frozenset((back[where], label) for where, label in component if where != "B")
        if outer:
            pairs.add(outer)
        else:
            circles += 1
    return frozenset(pairs), circles


def reverses(a, b) -> bool:
    """Brute force: after some rotation, each step of b traverses an
    opposite edge (same side, swapped endpoints) of the corresponding step
    of a read backwards."""
    back = tuple(reversed(a))
    return len(a) == len(b) and any(
        all(
            sb == sa and eb.src == ea.tgt and eb.tgt == ea.src
            for (sa, ea), (sb, eb) in zip(back, b[k:] + b[:k])
        )
        for k in range(len(b))
    )


def erased_endpoints(m: IntMorphism) -> Counter:
    """The multiset of (flattened id, source, target) over m's edges, with
    identity arcs erased from the flattened ids."""
    return Counter(
        (tuple(x for x in flatten(e.id) if not isinstance(x, IdentityEdgeId)), e.src, e.tgt)
        for e in m.graph.edges
    )


def rotation_by_full_keys(seq):
    """The least rotation in node order, each rotation's keys computed on
    their own and in full: str of the id, side, type name, repr."""
    key = lambda node: (str(node[1].id), node[0], type(node[1].id).__name__, repr(node[1].id))
    rotations = (seq[i:] + seq[:i] for i in range(len(seq)))
    return min(rotations, key=lambda rot: tuple(key(n) for n in rot))


def oracle_bimod_quotient(f, g, length_two: bool = False):
    """Return (paths, edges, left, right, violations) of the bimodular
    quotient of f and g, or None when its path set is infinite.

    The paths are `oracle_paths`'s, or with ``length_two`` every f-edge
    leaving the boundary joined to every g-edge from its target into the
    boundary.  Each tuple of junction elements acts on a path at once: an
    edge moves by the right action of the next junction's element and the
    left action of the inverse of the previous junction's.  The orbits are
    the union-find components of the paths under these moves, each named by
    the flat id of its least member by (str(id), side) per step.

    ``paths`` lists the quotiented paths as tuples of (side, edge id) steps,
    and ``edges`` is the frozenset of (id, src, tgt).  ``left`` and ``right``
    map each (src, tgt) to element -> {id: image id}, the image of an orbit
    being the orbit of its representative's image.  ``violations`` lists the
    (id, "left" | "right", element) whose image orbit differs between
    members of the orbit, or is no path at all.
    """
    bgs = (f, g)
    boundary = f.graph.vertices ^ g.graph.vertices
    if length_two:
        paths = [
            ((0, e.id), (1, e2.id))
            for e in f.graph.edges
            if e.src in boundary
            for e2 in g.graph.edges
            if e2.src == e.tgt and e2.tgt in boundary
        ]
    else:
        verdict, walks = oracle_paths(f.graph, g.graph)
        if verdict == INFINITE:
            return None
        paths = list(walks)

    by_id = [{e.id: e for e in bg.graph.edges} for bg in bgs]

    def ends(step):
        edge = by_id[step[0]][step[1]]
        return edge.src, edge.tgt

    def move(step, before=None, after=None):
        """The step's edge acted on by ``before`` on the left and ``after``
        on the right, each an element or None."""
        side, eid = step
        pair = ends(step)
        if before is not None:
            eid = bgs[side].left[pair][before][eid]
        if after is not None:
            eid = bgs[side].right[pair][after][eid]
        return side, eid

    parent = {p: p for p in paths}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for p in paths:
        junctions = [bgs[s].groups[ends((s, eid))[1]] for s, eid in p[:-1]]
        for bs in itertools.product(*(grp.elements for grp in junctions)):
            inverses = [None] + [grp.inv(b) for grp, b in zip(junctions, bs)]
            image = tuple(
                move(step, inverses[k], bs[k] if k < len(bs) else None)
                for k, step in enumerate(p)
            )
            parent.setdefault(image, image)
            parent[find(image)] = find(p)

    members: dict = {}
    for p in paths:
        members.setdefault(find(p), []).append(p)
    least = lambda path: tuple((str(eid), side) for side, eid in path)
    orbit_id = {}
    reps = {}
    for orbit in members.values():
        rep = min(orbit, key=least)
        key = flatten(tuple(eid for _, eid in rep))
        reps[key] = rep
        for p in orbit:
            orbit_id[p] = key

    edges = set()
    left: dict = {}
    right: dict = {}
    violations = []
    for key, rep in reps.items():
        v, w = ends(rep[0])[0], ends(rep[-1])[1]
        edges.add((key, v, w))
        orbit = members[find(rep)]
        boundary_moves = (
            ("left", left, bgs[rep[0][0]].groups[v],
             lambda p, a: (move(p[0], before=a),) + p[1:]),
            ("right", right, bgs[rep[-1][0]].groups[w],
             lambda p, c: p[:-1] + (move(p[-1], after=c),)),
        )
        for name, table, group, act in boundary_moves:
            for a in group.elements:
                images = {orbit_id.get(act(p, a)) for p in orbit}
                if len(images) != 1 or None in images:
                    violations.append((key, name, a))
                table.setdefault((v, w), {}).setdefault(a, {})[key] = orbit_id.get(act(rep, a))
    return paths, frozenset(edges), left, right, violations
