from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from intgraphs.campaigns import random_pair, random_triple, trial_rng
from intgraphs.execution import execute, graphs_equal_flattened, measure, normal_form
from intgraphs.functor import SegmentEdgeId
from intgraphs.graph import (
    DIRECTED,
    UNORIENTED,
    Graph,
    GraphError,
    InfiniteCycleSetError,
    InfinitePathSetError,
    alternating_paths,
    flatten,
    prime_cycles,
    show_items,
)
from intgraphs.interaction import IdentityEdgeId, Project, project_execute, project_unit

from oracle import FINITE, oracle_cycles, oracle_paths, reverses, rotation_by_full_keys

nested_ids = st.recursive(
    st.text(alphabet="abcdef", min_size=1, max_size=3),
    lambda children: st.tuples(children, children) | st.lists(children, max_size=3).map(tuple),
    max_leaves=12,
)


@given(nested_ids)
def test_flatten_idempotent(x):
    assert flatten(flatten(x)) == flatten(x)


@given(st.lists(nested_ids, max_size=5))
def test_flatten_concatenates(parts):
    assert flatten(parts) == tuple(y for part in parts for y in flatten(part))


MIXED_VERTICES = ["x", 1, "1"]
mixed_edges = st.lists(
    st.tuples(
        st.sampled_from([1, "1", 2, "2", (1, "2"), ("1", 2)]),
        st.sampled_from(MIXED_VERTICES),
        st.sampled_from(MIXED_VERTICES),
    ),
    max_size=6,
    unique_by=lambda edge: edge[0],
)


@given(mixed_edges, st.randoms())
def test_flattened_equality_ignores_edge_order(edges, rnd):
    shuffled = list(edges)
    rnd.shuffle(shuffled)
    assert graphs_equal_flattened(Graph(MIXED_VERTICES, edges), Graph(MIXED_VERTICES, shuffled))


@given(mixed_edges, mixed_edges)
def test_flattened_equality_is_edge_multiset_equality(a, b):
    flat = lambda edges: sorted(repr((flatten(i), s, t)) for i, s, t in edges)
    assert graphs_equal_flattened(
        Graph(MIXED_VERTICES, a), Graph(MIXED_VERTICES, b)
    ) == (flat(a) == flat(b))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_execute_is_symmetric(seed):
    g, h = random_pair(trial_rng(seed, 0), max_vertices=5, max_edges=6)
    try:
        left = execute(g, h)
        right = execute(h, g)
    except InfinitePathSetError:
        return
    assert graphs_equal_flattened(left, right)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_empty_graph_is_unit_for_execute(seed):
    g, _ = random_pair(trial_rng(seed, 1), max_vertices=5, max_edges=6)
    assert graphs_equal_flattened(execute(g, Graph.empty()), g)
    assert graphs_equal_flattened(execute(Graph.empty(), g), g)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_path_count_matches_oracle(seed):
    g, h = random_pair(trial_rng(seed, 2), max_vertices=5, max_edges=6)
    verdict, walks = oracle_paths(g, h)
    try:
        paths = execute(g, h).edges
    except InfinitePathSetError:
        assert verdict != FINITE
        return
    assert verdict == FINITE
    assert len(paths) == len(walks)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_measure_mode_relation(seed):
    g, h = random_pair(trial_rng(seed, 3), max_vertices=5, max_edges=6)
    directed = measure(g, h, DIRECTED)
    unoriented = measure(g, h, UNORIENTED)
    assert unoriented <= directed
    if directed.is_omega:
        assert unoriented.is_omega
        return
    classes = prime_cycles(g, h, DIRECTED)
    # a directed class merges with at most one partner: its edgewise
    # reversal, when that reversal exists as a cycle and is distinct
    paired = 0
    for i, c in enumerate(classes):
        partners = [
            d for j, d in enumerate(classes) if j != i and reverses(c.steps, d.steps)
        ]
        assert len(partners) <= 1
        if partners:
            paired += 1
        else:
            # unpaired classes each form their own unoriented class
            pass
    assert paired % 2 == 0
    assert int(directed) - paired // 2 == int(unoriented)
    # when every class pairs with a distinct partner, the count halves
    if paired == len(classes) and not any(reverses(c.steps, c.steps) for c in classes):
        assert int(directed) == 2 * int(unoriented)


def random_pair_with_long_cycles(rng, max_vertices: int = 5, max_edges: int = 6):
    """A `random_pair` plus 1-3 disjoint alternating cycles of length 4, 6
    or 8 on fresh vertices, each together with its edgewise reversal about
    half the time.  `random_pair` alone gives a finite cycle set with a
    cycle of length >= 4 in about 3 of 2000 draws."""
    f, g = random_pair(rng, max_vertices, max_edges)
    added: tuple[list, list] = ([], [])
    for c in range(rng.randint(1, 3)):
        n = rng.choice((4, 6, 8))
        with_reversal = rng.random() < 0.5
        for j in range(n):
            side, u, v = j % 2, ("c", c, j), ("c", c, (j + 1) % n)
            added[side].append((f"{'fg'[side]}c{c}.{j}", u, v))
            if with_reversal:
                added[side].append((f"{'fg'[side]}r{c}.{j}", v, u))
    fresh = {v for side in added for _, u, w in side for v in (u, w)}
    return tuple(
        Graph(graph.vertices | fresh, list(graph.edges) + edges)
        for graph, edges in zip((f, g), added)
    )


def _reversal_pairs(f: Graph, g: Graph, cycles) -> int:
    """Brute force: the unordered pairs of distinct cycles, as tuples of
    (side, edge id), of which one, under some rotation, runs through the
    other's edges backwards, each step on the same side with swapped
    endpoints."""
    by_id = [{e.id: e for e in graph.edges} for graph in (f, g)]

    def ends(step):
        edge = by_id[step[0]][step[1]]
        return edge.src, edge.tgt

    def reverses(c, d):
        back = c[::-1]
        return len(c) == len(d) and any(
            all(x[0] == y[0] and ends(x) == ends(y)[::-1] for x, y in zip(back, d[k:] + d[:k]))
            for k in range(len(d))
        )

    return sum(reverses(c, d) for c, d in itertools.combinations(cycles, 2))


def test_long_cycles_match_oracle():
    trials, long_and_finite, with_pairs = 300, 0, 0
    for index in range(trials):
        f, g = random_pair_with_long_cycles(trial_rng(7, index))
        verdict, cycles = oracle_cycles(f, g)
        if verdict != FINITE:
            with pytest.raises(InfiniteCycleSetError):
                prime_cycles(f, g, DIRECTED)
            continue
        directed = prime_cycles(f, g, DIRECTED)
        assert frozenset(tuple((s, e.id) for s, e in c.steps) for c in directed) == cycles
        pairs = _reversal_pairs(f, g, cycles)
        assert len(prime_cycles(f, g, UNORIENTED)) == len(cycles) - pairs
        long_and_finite += any(len(c) >= 4 for c in cycles)
        with_pairs += pairs > 0
    # 216 of the 300 draws are finite, each with a cycle of length >= 4,
    # and 139 of them merge a reversal pair
    assert long_and_finite >= 200 and with_pairs >= 100


# ids that tie on str in pairs, so only the type-aware tie-break orders them
tied_ids = [0, "0", 1, "1", 2, "2", 3, "3", 4, "4"]


@st.composite
def alternating_cycles(draw):
    """F and G whose edges form disjoint alternating cycles of length 2, 4
    or 6, each on its own vertices.  Each graph's ids are drawn from
    ``tied_ids`` in a drawn order, so 0 comes before "0" in some inputs and
    after it in others."""
    lengths = draw(st.lists(st.sampled_from([2, 4, 6]), min_size=1, max_size=3))
    ends: tuple[list, list] = ([], [])
    for c, n in enumerate(lengths):
        for j in range(n):
            ends[j % 2].append((("v", c, j), ("v", c, (j + 1) % n)))
    vertices = {v for side in ends for edge in side for v in edge}
    return tuple(
        Graph(vertices, [(i, s, t) for i, (s, t) in zip(draw(st.permutations(tied_ids)), side)])
        for side in ends
    )


@given(alternating_cycles())
@settings(max_examples=60, deadline=None)
def test_cycle_classes_are_canonical_and_prime(pair):
    for cls in prime_cycles(*pair, DIRECTED):
        n = len(cls.steps)
        assert cls.steps == rotation_by_full_keys(cls.steps)
        for d in range(1, n):
            if n % d == 0:
                assert cls.steps != cls.steps[d:] + cls.steps[:d]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_project_unit_is_two_sided(seed):
    g, _ = random_pair(trial_rng(seed, 5), max_vertices=4, max_edges=5)
    p = Project(seed % 7, g)
    left = project_execute(project_unit(), p)
    right = project_execute(p, project_unit())
    assert left.wager == right.wager == p.wager
    assert graphs_equal_flattened(left.graph, p.graph)
    assert graphs_equal_flattened(right.graph, p.graph)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_project_wager_associative(seed):
    f, g, h = random_triple(trial_rng(seed, 6), max_vertices=6, max_edges=5)
    p = Project(1, f)
    q = Project(2, g)
    r = Project(3, h)
    try:
        left = project_execute(project_execute(p, q), r)
        right = project_execute(p, project_execute(q, r))
    except InfinitePathSetError:
        return
    if left.wager.is_omega or right.wager.is_omega:
        assert left.wager == right.wager
        return
    assert left.wager == right.wager
    assert graphs_equal_flattened(left.graph, right.graph)


# Ids of mixed types that print alike: 1 and "1", tuples of them, and the
# two id types whose own __str__ prints labels 1 and "1" alike.
labels = st.sampled_from([1, "1", 2, "2"])
mixed_ids = st.one_of(
    labels,
    st.tuples(labels, labels),
    st.builds(IdentityEdgeId, labels, st.booleans()),
    st.builds(SegmentEdgeId, st.tuples(st.just("d"), labels), st.tuples(st.just("c"), labels)),
)


@st.composite
def interacting_pairs(draw):
    """F and G glued from gadgets, each on its own middle vertices, so that
    every path and cycle set is finite: a 2-path a -> m (F), m -> c (G); a
    2-cycle x -> y (F), y -> x (G); and two 2-cycles that are each other's
    reversal.  Ids come from ``mixed_ids``, so different gadgets tie on str."""
    kinds = draw(st.lists(st.sampled_from([1, 2, 3]), max_size=5))
    sizes = [2 if kind == 3 else 1 for kind in kinds]
    ids = st.lists(mixed_ids, unique=True, min_size=sum(sizes), max_size=sum(sizes))
    f_ids, g_ids = iter(draw(ids)), iter(draw(ids))
    f_edges, g_edges, middle = [], [], set()
    for i, kind in enumerate(kinds):
        if kind == 1:
            m = ("m", i)
            f_edges.append((next(f_ids), "a", m))
            g_edges.append((next(g_ids), m, "c"))
            middle.add(m)
            continue
        x, y = ("x", i), ("y", i)
        f_edges.append((next(f_ids), x, y))
        g_edges.append((next(g_ids), y, x))
        if kind == 3:
            f_edges.append((next(f_ids), y, x))
            g_edges.append((next(g_ids), x, y))
        middle |= {x, y}
    return Graph(middle | {"a"}, f_edges), Graph(middle | {"c"}, g_edges)


def _results(f, g):
    cycles = lambda mode: [c.edge_ids for c in prime_cycles(f, g, mode)]
    try:
        executed = normal_form(execute(f, g))
    except GraphError as exc:  # two paths whose flat ids collide
        executed = type(exc)
    return (
        cycles(DIRECTED),
        cycles(UNORIENTED),
        [p.flat_id for p in alternating_paths(f, g)],
        executed,
    )


def _permuted(data, graph):
    return Graph(graph.vertices, data.draw(st.permutations(graph.edges)))


@given(interacting_pairs(), st.data())
@settings(max_examples=300, deadline=None)
def test_results_do_not_depend_on_edge_order(pair, data):
    f, g = pair
    assert _results(_permuted(data, f), _permuted(data, g)) == _results(f, g)


@given(st.lists(mixed_ids, unique=True, max_size=6), st.data())
def test_show_items_does_not_depend_on_item_order(items, data):
    assert show_items(data.draw(st.permutations(items))) == show_items(items)
