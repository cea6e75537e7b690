"""The derived-graph kernel's invariants, checked on random pairs against
facts computed here straight from the two graphs' edge lists, and the path
counter."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import time

import pytest
from hypothesis import given, settings, strategies as st

from intgraphs import graph
from intgraphs.campaigns import random_pair, trial_rng
from intgraphs.execution import execute
from intgraphs.graph import (
    DIRECTED,
    DerivedGraph,
    Edge,
    Graph,
    InfiniteCycleSetError,
    InfinitePathSetError,
    InvariantViolationError,
    Path,
    alternating_paths,
    count_paths,
    derived_graph,
    flatten,
    prime_cycles,
)

seeds = st.integers(min_value=0, max_value=10_000)


def _arcs(g: Graph, h: Graph) -> dict:
    nodes = [(0, e) for e in g.edges] + [(1, e) for e in h.edges]
    return {
        n: [m for m in nodes if m[0] != n[0] and m[1].src == n[1].tgt] for n in nodes
    }


def _reach(arcs: dict, seeds) -> set:
    seen = set(seeds)
    stack = list(seen)
    while stack:
        for m in arcs[stack.pop()]:
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen


def _live(g: Graph, h: Graph) -> set:
    arcs = _arcs(g, h)
    boundary = g.vertices ^ h.vertices
    reach = _reach(arcs, [n for n in arcs if n[1].src in boundary])
    back: dict = {n: [] for n in arcs}
    for n, succs in arcs.items():
        for m in succs:
            back[m].append(n)
    coreach = _reach(back, [n for n in arcs if n[1].tgt in boundary])
    return reach & coreach


def _pair(seed: int, salt: int, max_edges: int = 6) -> tuple[Graph, Graph]:
    return random_pair(trial_rng(seed, salt), max_vertices=5, max_edges=max_edges)


def diamond_chain(width: int, k: int) -> tuple[Graph, Graph]:
    """Vertices v0..v(k+1) in a row, ``width`` parallel edges per step,
    steps alternating between the two graphs: width**(k+1) paths."""
    sides: tuple[list, list] = ([], [])
    for step in range(k + 1):
        for i in range(width):
            sides[step % 2].append((f"e{step}_{i}", f"v{step}", f"v{step + 1}"))
    return tuple(
        Graph({v for _, s, t in edges for v in (s, t)}, edges) for edges in sides
    )


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_infinite_path_witness_is_a_live_closed_walk(seed):
    # denser pairs: about one in seven has an infinite path set
    g, h = _pair(seed, 7, max_edges=10)
    try:
        alternating_paths(g, h)
    except InfinitePathSetError as err:
        witness = err.witness
        arcs = _arcs(g, h)
        assert witness
        for a, b in zip(witness, witness[1:] + witness[:1]):
            assert b in arcs[a]
        assert set(witness) <= _live(g, h)


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_infinite_cycle_branches_stay_in_one_component(seed):
    g, h = _pair(seed, 8)
    try:
        prime_cycles(g, h, DIRECTED)
    except InfiniteCycleSetError as err:
        arcs = _arcs(g, h)
        branches = err.branches
        assert len(branches) >= 2 and len(set(branches)) == len(branches)
        for b in branches:
            assert b in arcs[err.node]
            # b and node are mutually reachable
            assert err.node in _reach(arcs, [b])


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_paths_carry_their_flat_ids_and_come_sorted(seed):
    g, h = _pair(seed, 9)
    try:
        _assert_paths_checked_with_flat_ids_and_sorted(g, h)
    except InfinitePathSetError:
        return


def test_paths_through_a_shared_nan_vertex_pass_the_public_check():
    # nan != nan: the steps meet only as the same object
    nan = float("nan")
    g = Graph({"a", nan}, [("e1", "a", nan), ("e2", "a", nan)])
    h = Graph({nan, "b"}, [("f", nan, "b")])
    assert len(_assert_paths_checked_with_flat_ids_and_sorted(g, h)) == 2


def _assert_paths_checked_with_flat_ids_and_sorted(g: Graph, h: Graph) -> list[Path]:
    paths = alternating_paths(g, h)
    for p in paths:
        assert p.flat_id == flatten(tuple(e.id for _, e in p.steps))
        # the walk checked each junction once; the full check agrees
        assert Path(p.steps) == p
    # node order: each path's node-number sequence exceeds the previous one's
    number = {node: i for i, node in enumerate(derived_graph(g, h).nodes)}
    keys = [[number[step] for step in p.steps] for p in paths]
    for previous, key in zip(keys, keys[1:]):
        assert previous < key
    return paths


@pytest.mark.parametrize(
    "second, broken",
    [
        ((0, Edge("f", "b", "c")), "do not alternate"),  # composes, same side
        ((1, Edge("f", "x", "c")), "do not compose"),  # alternates, a -> b then x -> c
    ],
)
@pytest.mark.parametrize("run", [alternating_paths, execute])
def test_the_walk_checks_the_junctions_of_its_arcs(monkeypatch, run, second, broken):
    # a derived graph whose one live arc breaks the chain rule: the walk
    # must refuse it, not trust the arcs
    first = (0, Edge("e", "a", "b"))
    bad = DerivedGraph((first, second), [[1], []], [True, False], [False, True])
    monkeypatch.setattr(graph, "derived_graph", lambda g, h: bad)
    g = Graph({"a", "b"}, [first[1]])
    h = Graph({"x", "b", "c"}, [second[1]])
    with pytest.raises(InvariantViolationError, match=f"^edges 'e', 'f' {broken}$"):
        run(g, h)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_count_paths_matches_enumeration(seed):
    g, h = _pair(seed, 10)
    try:
        expected = len(alternating_paths(g, h))
    except InfinitePathSetError:
        with pytest.raises(InfinitePathSetError):
            count_paths(g, h)
        return
    assert count_paths(g, h) == expected


def test_count_paths_on_nested_ids():
    g = Graph({"a", "b"}, [((("x",), "y"), "a", "b"), ("z", "a", "b")])
    h = Graph({"b", "c"}, [(("w", ("v",)), "b", "c")])
    assert count_paths(g, h) == len(alternating_paths(g, h)) == 2


def test_count_paths_does_not_enumerate():
    g, h = diamond_chain(2, 40)
    start = time.perf_counter()
    assert count_paths(g, h) == 2 ** 41
    assert time.perf_counter() - start < 1.0


def test_count_paths_agrees_with_enumeration_on_a_small_chain():
    g, h = diamond_chain(3, 5)
    assert count_paths(g, h) == len(alternating_paths(g, h)) == 3 ** 6


def test_count_paths_raises_on_a_pumpable_cycle():
    g = Graph({"a", "b", "c"}, [("e", "a", "b"), ("g", "c", "b")])
    h = Graph({"b", "c", "y"}, [("f", "b", "c"), ("z", "b", "y")])
    with pytest.raises(InfinitePathSetError):
        count_paths(g, h)


@pytest.mark.parametrize(
    "clone", [lambda err: pickle.loads(pickle.dumps(err)), copy.copy], ids=["pickle", "copy"]
)
def test_infinite_set_errors_pickle_and_copy(clone):
    g = Graph({"a", "b", "c"}, [("e", "a", "b"), ("g", "c", "b")])
    h = Graph({"b", "c", "y"}, [("f", "b", "c"), ("z", "b", "y")])
    with pytest.raises(InfinitePathSetError) as paths:
        count_paths(g, h)
    twin = clone(paths.value)
    assert type(twin) is InfinitePathSetError
    assert (str(twin), twin.witness) == (str(paths.value), paths.value.witness)

    g = Graph({"a", "b"}, [("e", "a", "b"), ("f", "b", "a"), ("e2", "a", "b")])
    h = Graph({"a", "b"}, [("x", "b", "a"), ("y", "a", "b")])
    with pytest.raises(InfiniteCycleSetError) as cycles:
        prime_cycles(g, h)
    twin = clone(cycles.value)
    assert type(twin) is InfiniteCycleSetError
    assert (str(twin), twin.node, twin.branches) == (
        str(cycles.value), cycles.value.node, cycles.value.branches
    )


def test_kernel_values_hold_only_their_fields():
    g = Graph({"s", "b", "p", "q"}, [((("x",), "y"), "s", "b"), ("z", "p", "q")])
    h = Graph({"b", "c", "p", "q"}, [(("w", ("v",)), "b", "c"), ("u", "q", "p")])
    [path] = alternating_paths(g, h)
    public = Path(path.steps)
    other = dataclasses.replace(public, steps=path.steps[:1])
    [cycle] = prime_cycles(g, h)
    for value in (g.edges[0], path, public, other, derived_graph(g, h), cycle):
        assert not hasattr(value, "__dict__")
    assert Graph.__slots__ == ("vertices", "edges")
    assert path.flat_id == public.flat_id == ("x", "y", "w", "v")
    assert other.flat_id == ("x", "y")
