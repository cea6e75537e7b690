from __future__ import annotations

from hypothesis import given, settings, strategies as st

from intgraphs.campaigns import random_pair, random_triple, trial_rng
from intgraphs.execution import execute, graphs_equal_flattened, measure
from intgraphs.graph import (
    DIRECTED,
    UNORIENTED,
    Graph,
    InfiniteCycleSetError,
    InfinitePathSetError,
    _is_reversal,
    flatten,
    prime_cycles,
)
from intgraphs.interaction import Project, project_execute, project_unit

from oracle import FINITE, oracle_paths

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
            d for j, d in enumerate(classes) if j != i and _is_reversal(c.steps, d.steps)
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
    if paired == len(classes) and not any(c.is_own_reversal() for c in classes):
        assert int(directed) == 2 * int(unoriented)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_cycle_classes_are_canonical_and_prime(seed):
    g, h = random_pair(trial_rng(seed, 4), max_vertices=5, max_edges=6)
    try:
        classes = prime_cycles(g, h, DIRECTED)
    except InfiniteCycleSetError:
        return
    for cls in classes:
        n = len(cls.steps)
        rotations = [cls.steps[i:] + cls.steps[:i] for i in range(n)]
        key = lambda seq: tuple((str(e.id), s) for s, e in seq)
        assert cls.steps == min(rotations, key=key)
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
