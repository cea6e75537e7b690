"""The derived-graph kernel's invariants, checked on random pairs against
facts computed here straight from the two graphs' edge lists, and the path
counter."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings, strategies as st

from intgraphs.campaigns import random_pair, trial_rng
from intgraphs.graph import (
    DIRECTED,
    Graph,
    InfiniteCycleSetError,
    InfinitePathSetError,
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
        paths = alternating_paths(g, h)
    except InfinitePathSetError:
        return
    for p in paths:
        assert p.flat_id == flatten(tuple(e.id for e in p.edges))
    # node order: each path's node-number sequence exceeds the previous one's
    number = {node: i for i, node in enumerate(derived_graph(g, h).nodes)}
    keys = [[number[step] for step in p.steps] for p in paths]
    for previous, key in zip(keys, keys[1:]):
        assert previous < key


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
