"""
Directed multigraphs and alternating-path machinery.

Two graphs interact along their shared vertices: an alternating path is an
edge sequence whose consecutive edges compose head-to-tail and strictly
alternate between the two graphs.  Everything in this module is organised
around one derived structure (`derived_graph`): the graph whose nodes are
the edges of the interacting pair, tagged 0/1 by side, with an arc e -> e'
exactly when e' may follow e in an alternating path.  Walks in the derived
graph are the alternating paths, so path finiteness becomes
reachability-plus-acyclicity and cycle finiteness becomes a condition on
strongly connected components.

`derived_graph` compiles the pair once into int arrays: node i is one
(side, Edge), numbered in node order (`_node_order`), so sorted successor
lists are ascending int lists, and paths and cycles are ordered, and
cycles canonicalised, by comparing node numbers.  One iterative Tarjan
pass over those arrays (Tarjan 1972) answers both finiteness questions.
From the initial nodes it gives reachability, and folding co-reachability
over its components in reverse topological order gives the live nodes:
the path set is infinite iff a live component is nontrivial
(`alternating_paths`, `count_paths`).  Over all nodes it gives the cycle
classes: the cycle set is finite iff every nontrivial component is a
single simple cycle (`prime_cycles`).  The derived graph keeps what each
pass found, so later questions about the same pair run neither again.

Vertices and edge ids are arbitrary hashable values.  Tuple ids are
treated as composite (sequences of base ids); `flatten` computes the flat
normal form that makes results of nested executions comparable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

Vertex = Hashable
EdgeId = Hashable

DIRECTED = "directed"
UNORIENTED = "unoriented"
MODES = (DIRECTED, UNORIENTED)


class GraphError(ValueError):
    """Base error for graph construction and interaction failures."""


class DuplicateEdgeIdError(GraphError):
    """Two edges of one graph share an id, kept as ``edge_id``."""

    def __init__(self, edge_id: EdgeId):
        super().__init__(f"duplicate edge id {edge_id!r}")
        self.edge_id = edge_id

    def __reduce__(self):
        # rebuilt from the id, not from the message in ``args``
        return type(self), (self.edge_id,)


class UnknownVertexError(GraphError):
    pass


class InvariantViolationError(GraphError):
    """A value was built that breaks a structural invariant of its type,
    such as a path whose edges do not compose.  Raised rather than
    asserted, so the checks also hold under ``python -O``."""


class InfinitePathSetError(GraphError):
    """The boundary-to-boundary alternating paths form an infinite set.

    ``witness`` is a pumpable cycle of derived nodes (side, Edge), each
    reachable from a boundary source and co-reachable from a boundary sink.
    """

    def __init__(self, witness: Sequence[tuple[int, "Edge"]]):
        self.witness = tuple(witness)
        ids = " ".join(repr(edge.id) for _, edge in self.witness)
        super().__init__(f"infinite alternating path set (pumpable cycle: {ids})")

    def __reduce__(self):
        return type(self), (self.witness,)


class InfiniteCycleSetError(GraphError):
    """The prime alternating cycles form an infinite set.

    ``node`` is a derived node admitting two distinct continuations
    (``branches``) inside a single strongly connected component.
    """

    def __init__(self, node: tuple[int, "Edge"], branches: Sequence[tuple[int, "Edge"]]):
        self.node = node
        self.branches = tuple(branches)
        ids = ", ".join(repr(edge.id) for _, edge in self.branches)
        super().__init__(
            f"infinite prime cycle set (edge {node[1].id!r} re-enters its "
            f"component via {ids})"
        )

    def __reduce__(self):
        return type(self), (self.node, self.branches)


@dataclass(frozen=True, slots=True)
class Edge:
    id: EdgeId
    src: Vertex
    tgt: Vertex


# The slots' own setters, with which the trusted builds fill a frozen
# value past its ``__setattr__``.
_set_edge_id, _set_edge_src, _set_edge_tgt = Edge.id.__set__, Edge.src.__set__, Edge.tgt.__set__


class _Frozen:
    """Base of the hand-slotted values: they refuse assignment and
    deletion, and copies and pickles rebuild them through the constructor
    from the public slots, in slot order.  Each class fills its own slots
    past ``__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name: str, val: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, s) for s in self.__slots__ if s[0] != "_")


class Graph(_Frozen):
    """Immutable directed multigraph with identified edges.

    Parallel edges and self-loops are permitted; edge ids must be unique
    and endpoints must belong to the vertex set.  The builders fill the
    two slots through the slots' own setters.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Edge | tuple] = ()):
        vs = frozenset(vertices)
        out: dict[EdgeId, Edge] = {}  # by id, in input order
        for item in edges:
            e = item if isinstance(item, Edge) else Edge(*item)
            if e.id in out:
                raise DuplicateEdgeIdError(e.id)
            if e.src not in vs:
                raise UnknownVertexError(f"edge {e.id!r}: unknown source vertex {e.src!r}")
            if e.tgt not in vs:
                raise UnknownVertexError(f"edge {e.id!r}: unknown target vertex {e.tgt!r}")
            out[e.id] = e
        _set_vertices(self, vs)
        _set_edges(self, tuple(out.values()))

    @classmethod
    def _executed(cls, vertices: frozenset, paths: Sequence[Path]) -> Graph:
        """The graph on ``vertices`` with one edge per path, named by its
        flat id, from its source to its target, in path order.  The caller
        guarantees that every endpoint is in ``vertices``, so only the ids
        are checked: the first flat id that repeats, in path order, raises
        DuplicateEdgeIdError, as ``Graph(...)`` would."""
        new = object.__new__
        out: dict[EdgeId, Edge] = {}
        for p in paths:
            steps, flat_id = p.steps, p.flat_id
            e = new(Edge)
            _set_edge_id(e, flat_id)
            _set_edge_src(e, steps[0][1].src)
            _set_edge_tgt(e, steps[-1][1].tgt)
            out[flat_id] = e
        if len(out) < len(paths):
            seen: set = set()
            for p in paths:
                if p.flat_id in seen:
                    raise DuplicateEdgeIdError(p.flat_id)
                seen.add(p.flat_id)
        graph = new(cls)
        _set_vertices(graph, vertices)
        _set_edges(graph, tuple(out.values()))
        return graph

    @classmethod
    def empty(cls) -> Graph:
        return cls(frozenset(), ())

    def relabel_vertices(self, mapping: dict[Vertex, Vertex]) -> Graph:
        """Rename vertices through ``mapping`` (identity where missing).

        Edge ids are untouched.  The mapping must not merge vertices.
        """
        send = lambda v: mapping.get(v, v)
        images = {send(v) for v in self.vertices}
        if len(images) != len(self.vertices):
            raise GraphError("vertex relabelling merges distinct vertices")
        return Graph(images, [Edge(e.id, send(e.src), send(e.tgt)) for e in self.edges])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and set(self.edges) == set(other.edges)

    def __hash__(self) -> int:
        return hash((self.vertices, frozenset(self.edges)))

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


_set_vertices, _set_edges = Graph.vertices.__set__, Graph.edges.__set__


@functools.total_ordering
class ExtNat(_Frozen):
    """A natural number extended with an absorbing infinity (omega).

    Addition never overflows: omega + anything = omega.  Instances are
    immutable and totally ordered, omega greatest.  A finite value equals,
    and hashes like, its plain int; every value is above a negative int.
    Bools are rejected, not read as 0/1.
    """

    __slots__ = ("value",)

    def __init__(self, value: int | None):
        if value is not None and (type(value) is bool or not isinstance(value, int) or value < 0):
            raise ValueError(f"extended natural must be >= 0 or omega, got {value!r}")
        object.__setattr__(self, "value", value)

    @property
    def is_omega(self) -> bool:
        return self.value is None

    def _coerce(self, other: Any) -> "ExtNat":
        if isinstance(other, ExtNat):
            return other
        if isinstance(other, int) and type(other) is not bool:
            return ExtNat(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Any) -> "ExtNat":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_omega or o.is_omega:
            return OMEGA
        return ExtNat(self.value + o.value)

    __radd__ = __add__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int) and other < 0:
            return False
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.value == o.value

    def __lt__(self, other: Any) -> bool:
        if isinstance(other, int) and other < 0:
            return False
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_omega:
            return False
        if o.is_omega:
            return True
        return self.value < o.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __int__(self) -> int:
        if self.is_omega:
            raise ValueError("omega is not a finite natural")
        return self.value  # type: ignore[return-value]

    def __str__(self) -> str:
        return "omega" if self.is_omega else str(self.value)

    def __repr__(self) -> str:
        return "OMEGA" if self.is_omega else f"ExtNat({self.value})"


OMEGA = ExtNat(None)


def flatten(obj: Any) -> tuple:
    """Flatten a nested id sequence into a flat tuple of base ids.

    Tuples and lists recurse; everything else is atomic.  Idempotent:
    flatten(flatten(x)) == flatten(x).
    """
    if not isinstance(obj, (tuple, list)):
        return (obj,)
    out: list = []
    for item in obj:
        if isinstance(item, (tuple, list)):
            out.extend(flatten(item))
        else:
            out.append(item)
    return tuple(out)


def _compare_type_then_repr(a: Any, b: Any) -> int:
    ka = (type(a).__name__, repr(a))
    kb = (type(b).__name__, repr(b))
    return (ka > kb) - (ka < kb)


# The tie-break of `_order_key`, computed only when compared: tuple
# comparison reaches it only when everything before it ties, so the common
# case never calls repr.
_tie_break = functools.cmp_to_key(_compare_type_then_repr)


def _order_key(x: Any) -> tuple:
    """The one order in which ids and points are presented: by str, then
    type name, then repr.  With str first, values that print apart keep
    their str order; ``1`` comes before ``"1"`` (type name int < str)."""
    return (str(x), _tie_break(x))


def show_items(items: Iterable) -> str:
    """An error message's list of items: each by repr, so ``1`` and
    ``"1"`` read apart, in `_order_key` order, so the text does not depend
    on set iteration order."""
    return "[" + ", ".join(map(repr, sorted(items, key=_order_key))) + "]"


def _check_junction(a: tuple[int, Edge], b: tuple[int, Edge]) -> None:
    """The chain rule for one junction, a step ``a`` followed by a step
    ``b``: a's target meets b's source, being equal to it or the same
    object, as `derived_graph`'s dict lookup joins them (a shared NaN
    vertex meets), and the sides differ.  Raises InvariantViolationError
    otherwise."""
    sa, ea = a
    sb, eb = b
    if ea.tgt != eb.src and ea.tgt is not eb.src:
        raise InvariantViolationError(f"edges {ea.id!r}, {eb.id!r} do not compose")
    if sa == sb:
        raise InvariantViolationError(f"edges {ea.id!r}, {eb.id!r} do not alternate")


@dataclass(frozen=True, slots=True)
class Path:
    """An alternating path: edges tagged 0/1 by owning graph.

    Every junction, a step and the step after it, must compose and
    alternate (`_check_junction`).  ``Path(steps)`` reads any iterable of
    (side, edge) steps once, keeps them as a tuple of pairs, and checks
    every junction (InvariantViolationError).  The paths of
    `alternating_paths` are built by `_checked`, which checks nothing:
    a path's junctions are arcs of the derived graph between live nodes,
    and its walk checks each such arc once, when it first expands the
    arc's source, so every junction of an emitted path was checked
    before the path was built.
    ``flat_id``, the flattened base-edge-id sequence, is the path's
    identity under execution; equality, hash and repr ignore it.
    """

    steps: tuple[tuple[int, Edge], ...]
    flat_id: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(map(tuple, self.steps)))
        if not self.steps:
            raise InvariantViolationError("a path has at least one edge")
        for a, b in zip(self.steps, self.steps[1:]):
            _check_junction(a, b)
        object.__setattr__(self, "flat_id", flatten([e.id for _, e in self.steps]))

    @classmethod
    def _checked(cls, steps: tuple[tuple[int, Edge], ...], flat_id: tuple) -> Path:
        """A path whose junctions the caller has checked, with the flat id
        the caller computed; nothing is checked or computed here."""
        path = object.__new__(cls)
        _set_steps(path, steps)
        _set_flat_id(path, flat_id)
        return path

    @property
    def source(self) -> Vertex:
        return self.steps[0][1].src

    @property
    def target(self) -> Vertex:
        return self.steps[-1][1].tgt

    def __len__(self) -> int:
        return len(self.steps)


_set_steps, _set_flat_id = Path.steps.__set__, Path.flat_id.__set__


DerivedNode = tuple[int, Edge]


def _node_order(node: DerivedNode) -> tuple:
    """A derived node's key in node order: its edge id's str, then its side,
    then the type-aware tie-break of `_order_key`."""
    side, edge = node
    return (str(edge.id), side, _tie_break(edge.id))


@dataclass(frozen=True, slots=True)
class DerivedGraph:
    """Edges-as-nodes view of an interacting pair, compiled to int arrays.

    Node ``i`` is ``nodes[i]``, a (side, Edge) with side 0 for the first
    graph and 1 for the second, numbered in `_node_order`.  ``succ[i]``
    lists, ascending, the nodes that may follow node i in an alternating
    path.  Initial nodes have their source in the boundary (symmetric
    difference of the vertex sets), final nodes their target.  Initial
    nodes have no incoming arcs and final nodes no outgoing arcs, so
    boundary-to-boundary walks are exactly the maximal finite alternating
    paths.

    Two results are kept once computed, in private fields that ``==``
    and ``repr`` ignore: ``_live``, the live order and flags of
    `_live_order`, and ``_cycles``, the sorted cycles (node-number lists)
    of `_cycle_list`.  So the paths, the path count and both modes of the
    cycle classes of one pair share one pass each.  An infinite outcome
    is not kept: each call raises again.

    ``succ`` lists are shared: every node with no arcs gets one list,
    ``no_arcs``, and the nodes of one side with one target share the list
    of the other side's nodes leaving that target.  `derived_graph` also
    hands its last result to a later call on the same two graphs.  So do
    not mutate any of the arrays, nor the kept results.
    """

    nodes: tuple[DerivedNode, ...]
    succ: list[list[int]]
    is_initial: list[bool]
    is_final: list[bool]
    _live: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _cycles: list | None = field(default=None, init=False, repr=False, compare=False)


_set_live, _set_cycles = DerivedGraph._live.__set__, DerivedGraph._cycles.__set__


# The last pair built and its derived graph: (g, h, dg).
_last_derived: tuple = (None, None, None)


def derived_graph(g: Graph, h: Graph) -> DerivedGraph:
    """The derived graph of the pair (g, h).

    A call on the same two graph objects as the call before returns the
    same `DerivedGraph` again; a `Graph` refuses assignment, so the two
    objects name what was built.  The key is identity, not equality:
    equal graphs may list tied edges in another order and number their
    nodes differently, and hashing the content would cost more than the
    build.  Threads that race here at worst build once more.
    """
    global _last_derived
    last = _last_derived
    if last[0] is g and last[1] is h:
        return last[2]
    boundary = g.vertices ^ h.vertices
    nodes = sorted(
        [(0, e) for e in g.edges] + [(1, e) for e in h.edges], key=_node_order
    )
    # by_source[side][v]: the nodes of that side leaving v, ascending
    by_source: tuple[dict[Vertex, list[int]], ...] = ({}, {})
    for i, (side, edge) in enumerate(nodes):
        leaving = by_source[side].get(edge.src)
        if leaving is None:
            by_source[side][edge.src] = [i]
        else:
            leaving.append(i)
    no_arcs: list[int] = []
    dg = DerivedGraph(
        tuple(nodes),
        [by_source[1 - side].get(edge.tgt, no_arcs) for side, edge in nodes],
        [edge.src in boundary for _, edge in nodes],
        [edge.tgt in boundary for _, edge in nodes],
    )
    # one assignment, so a reader never sees a key without its result
    _last_derived = (g, h, dg)
    return dg


def _sccs(succ: list[list[int]], roots: Iterable[int]) -> tuple[list[list[int]], list[int]]:
    """Strongly connected components of the nodes reachable from ``roots``
    (Tarjan 1972, iterative).

    Components come in completion order, which is reverse topological:
    each after every component it has an arc into.  Also returns each
    node's component number, -1 for nodes not reached.
    """
    index = [-1] * len(succ)
    low = [0] * len(succ)
    comp = [-1] * len(succ)
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work: list[tuple[int, Iterator[int]]] = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                # a reached node without a component is still on the stack
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    c = len(sccs)
                    members = []
                    while True:
                        w = stack.pop()
                        comp[w] = c
                        members.append(w)
                        if w == v:
                            break
                    sccs.append(members)
    return sccs, comp


def _cycle_from(start: int, comp: list[int], succ: list[list[int]]) -> list[int]:
    """Follow the first arc inside start's (nontrivial) component until a
    node repeats; return the closed walk from that node's first visit."""
    c = comp[start]
    seen: dict[int, int] = {}
    walk: list[int] = []
    v = start
    while v not in seen:
        seen[v] = len(walk)
        walk.append(v)
        v = next(w for w in succ[v] if comp[w] == c)
    return walk[seen[v]:]


def _live_order(dg: DerivedGraph) -> tuple[list[int], list[bool]]:
    """The live nodes (reachable from an initial node and co-reaching a
    final one), in reverse topological order, and a live flag per node.

    One Tarjan pass from the initial nodes gives reachability and the
    components; co-reachability is then folded over the components in
    completion order.  Raises InfinitePathSetError when a live component
    is nontrivial, i.e. when the path set is infinite.  The result is
    kept on ``dg``; an infinite set is found again on each call.
    """
    kept = dg._live
    if kept is not None:
        return kept
    succ, final = dg.succ, dg.is_final
    sccs, comp = _sccs(succ, [i for i, flag in enumerate(dg.is_initial) if flag])
    live = [False] * len(succ)
    is_live = live.__getitem__
    order: list[int] = []
    for members in sccs:
        if len(members) == 1:
            v = members[0]
            if final[v] or any(map(is_live, succ[v])):
                live[v] = True
                order.append(v)
        elif any(final[v] or any(map(is_live, succ[v])) for v in members):
            cycle = _cycle_from(min(members), comp, succ)
            raise InfinitePathSetError([dg.nodes[v] for v in cycle])
    _set_live(dg, (order, live))
    return order, live


def alternating_paths(g: Graph, h: Graph) -> list[Path]:
    """All alternating paths with source AND target in the boundary
    (symmetric difference of the vertex sets) -- equivalently, the finite
    maximal alternating paths, in node order: compared step by step by the
    derived graph's node numbers, as `prime_cycles` orders cycles.  So the
    order does not depend on the order in which either graph lists its
    edges.

    Raises InfinitePathSetError when some derived cycle is both reachable
    from a boundary source and co-reachable from a boundary sink, i.e. when
    the path set is infinite.
    """
    dg = derived_graph(g, h)
    _, live = _live_order(dg)
    nodes, succ, final = dg.nodes, dg.succ, dg.is_final
    # per node, once: a path's flat id is a concatenation; an atomic id,
    # which `flatten` would wrap, is wrapped here
    flat_ids = [
        flatten(edge.id) if isinstance(edge.id, (tuple, list)) else (edge.id,)
        for _, edge in nodes
    ]
    steps1 = [(node,) for node in nodes]
    # Depth-first over the live DAG from a virtual root whose children are
    # the initial nodes, in ascending order.  Successor lists ascend too,
    # and no path is a prefix of another (final nodes have no outgoing
    # arcs), so paths are emitted in node order.  prefix[d] is the walk's
    # first d nodes as (steps, flat id).  Each emitted path is recorded as
    # (steps of its prefix, last node, flat id).  Every junction of a path
    # is an arc between two live nodes, and every live arc leaves a node
    # that the walk expands, so the arcs are checked instead of the
    # junctions: each live out-arc of a node once, when the walk first
    # expands the node, before it extends any prefix along them.
    found: list[tuple[tuple, int, tuple]] = []
    prefix: list[tuple[tuple, tuple]] = [((), ())]
    branches: list[Iterator[int]] = [(i for i, flag in enumerate(dg.is_initial) if flag)]
    expanded = [False] * len(nodes)
    while branches:
        steps, flat = prefix[-1]
        for w in branches[-1]:
            if not live[w]:
                continue
            if final[w]:
                found.append((steps, w, flat + flat_ids[w]))
            else:
                if not expanded[w]:
                    expanded[w] = True
                    node = nodes[w]
                    for u in succ[w]:
                        if live[u]:
                            _check_junction(node, nodes[u])
                prefix.append((steps + steps1[w], flat + flat_ids[w]))
                branches.append(iter(succ[w]))
                break
        else:
            prefix.pop()
            branches.pop()
    # The steps are built apart from the flat ids: they die with the paths,
    # while the flat ids live on as the ids of an executed graph, and the
    # two mixed in the allocator's pools would keep freed pools from reuse.
    # Each record is replaced by its path, so records go as paths come.
    paths: list = found
    checked = Path._checked
    for i, (steps, w, flat) in enumerate(found):
        paths[i] = checked(steps + steps1[w], flat)
    return paths


def count_paths(g: Graph, h: Graph) -> int:
    """Number of boundary-to-boundary alternating paths, counted without
    enumerating them: a sum over the live derived nodes in reverse
    topological order, O(V + E).

    Raises InfinitePathSetError exactly when `alternating_paths` does.
    """
    dg = derived_graph(g, h)
    order, _ = _live_order(dg)
    succ, final = dg.succ, dg.is_final
    count = [0] * len(succ)
    for v in order:
        count[v] = 1 if final[v] else sum(count[w] for w in succ[v])
    return sum(count[v] for v in order if dg.is_initial[v])


def _canonical_rotation(seq: Sequence, key: Callable[[Any], tuple] = _node_order) -> Sequence:
    """The least rotation of ``seq`` by its items' keys, in node order by
    default; ties go to the first least index.

    Booth's least-rotation algorithm (Booth 1980): a failure function over
    the keys taken twice, so it makes O(len(seq)) key comparisons.
    """
    keys = [key(n) for n in seq]
    keys += keys
    # fail[d]: the failure function of the first d + 1 keys from k
    fail = [-1] * len(keys)
    k = 0  # the least rotation's start so far
    for j in range(1, len(keys)):
        kj = keys[j]
        i = fail[j - k - 1]
        while i != -1 and kj != keys[k + i + 1]:
            if kj < keys[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if i == -1 and kj != keys[k]:
            if kj < keys[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return seq[k:] + seq[:k]


def _is_periodic(seq: tuple[DerivedNode, ...]) -> bool:
    n = len(seq)
    for d in range(1, n):
        if n % d == 0 and seq == seq[d:] + seq[:d]:
            return True
    return False


@dataclass(frozen=True, slots=True)
class CycleClass:
    """An equivalence class of prime alternating cycles.

    ``steps`` is the canonical representative: the lexicographically least
    rotation of the (side, Edge) sequence in `_node_order`.  It must
    chain and alternate cyclically: every junction, the last step followed
    by the first included, passes `_check_junction`, as in a `Path`.  In
    unoriented mode the class also absorbs the edgewise reversal, which
    `prime_cycles` finds by one lookup per step; the representative is
    then the least canonical form over the merged classes.  Its steps
    are kept as in a `Path`.
    """

    steps: tuple[tuple[int, Edge], ...]
    mode: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(map(tuple, self.steps)))
        if self.mode not in MODES:
            raise InvariantViolationError(f"unknown cycle mode {self.mode!r}")
        if not self.steps:
            raise InvariantViolationError("a path has at least one edge")
        for a, b in zip(self.steps, self.steps[1:] + self.steps[:1]):
            _check_junction(a, b)
        if self.steps != _canonical_rotation(self.steps):
            raise InvariantViolationError("not canonical")
        if _is_periodic(self.steps):
            raise InvariantViolationError("cycle is a proper power")

    @property
    def edge_ids(self) -> tuple[EdgeId, ...]:
        return tuple(e.id for _, e in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


def prime_cycles(g: Graph, h: Graph, mode: str = DIRECTED) -> list[CycleClass]:
    """All prime alternating-cycle classes between g and h.

    The class set is finite exactly when every strongly connected component
    of the derived graph is trivial or a single simple cycle; otherwise
    InfiniteCycleSetError is raised.  Directed mode counts classes up to
    rotation, unoriented mode additionally identifies edgewise reversals.
    Vertices meet when they are equal or the same object, as in
    `derived_graph`.  A cycle's reversal partner is found by one lookup per
    step, of the opposite node (same side, swapped endpoints).  The lookup
    is exact: in the finite regime no two cycle nodes share side and
    endpoints, since such a twin would share a predecessor with its node
    and give that predecessor two continuations inside the component.
    When every step's lookup hits, the opposite nodes close backwards into
    one whole cycle, the partner.
    """
    if mode not in MODES:
        raise ValueError(f"unknown cycle mode {mode!r}")
    dg = derived_graph(g, h)
    nodes = dg.nodes
    representatives = [tuple(nodes[v] for v in cycle) for cycle in _cycle_list(dg)]
    if mode == DIRECTED:
        return [CycleClass(seq, DIRECTED) for seq in representatives]

    # Keep the first cycle of each reversal pair: the representatives are
    # sorted, so it is the least canonical form of the pair.
    owner = {(side, e.src, e.tgt): i for i, seq in enumerate(representatives) for side, e in seq}
    merged: list[CycleClass] = []
    for i, seq in enumerate(representatives):
        partner = [owner.get((side, e.tgt, e.src)) for side, e in seq]
        if None in partner or partner[0] >= i:
            merged.append(CycleClass(seq, UNORIENTED))
    return merged


def _cycle_list(dg: DerivedGraph) -> list[list[int]]:
    """The prime cycles of ``dg`` as node-number lists, each its least
    rotation, sorted; both modes of `prime_cycles` read them.  Raises
    InfiniteCycleSetError when a nontrivial component is not one simple
    cycle.  The result is kept on ``dg``; an infinite set is found again
    on each call."""
    kept = dg._cycles
    if kept is not None:
        return kept
    nodes, succ = dg.nodes, dg.succ
    sccs, comp = _sccs(succ, range(len(succ)))
    cycles: list[list[int]] = []
    for c, members in enumerate(sccs):
        if len(members) == 1:
            # No self-arcs can exist (an arc needs opposite sides), so a
            # singleton component is trivial.
            continue
        for v in members:
            inside = [w for w in succ[v] if comp[w] == c]
            if len(inside) > 1:
                raise InfiniteCycleSetError(nodes[v], [nodes[w] for w in inside])
        # Node numbers follow node order, so the cycle's least rotation
        # starts at its least node, and sorting the number lists sorts the
        # cycles.  Only nodes tied in full (ids alike in str, type name and
        # repr, such as two NaNs) are numbered by input order, one after
        # another; when the least node ties with the next, the keys choose.
        least = min(members)
        cycle = _cycle_from(least, comp, succ)
        if least + 1 < len(nodes) and _node_order(nodes[least]) == _node_order(nodes[least + 1]):
            cycle = _canonical_rotation(cycle, lambda v: _node_order(nodes[v]))
        cycles.append(cycle)
    cycles.sort()
    _set_cycles(dg, cycles)
    return cycles
