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
full instead of comparing derived-graph node numbers.
"""

from __future__ import annotations

from collections import deque

from intgraphs.cob0 import SRC, TGT, Cob0Morphism
from intgraphs.graph import Graph

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


def rotation_by_full_keys(seq):
    """The least rotation in node order, each rotation's keys computed on
    their own and in full: str of the id, side, type name, repr."""
    key = lambda node: (str(node[1].id), node[0], type(node[1].id).__name__, repr(node[1].id))
    rotations = (seq[i:] + seq[:i] for i in range(len(seq)))
    return min(rotations, key=lambda rot: tuple(key(n) for n in rot))
