"""The derived-graph kernel's invariants, checked on random pairs against
facts computed here straight from the two graphs' edge lists, the path
counter, and the reuse of the last derived graph and of the results kept
on it."""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import intgraphs
from intgraphs import graph
from intgraphs.bimodular import BimodularGraph, OrbitCapExceededError, bimod_execute
from intgraphs.campaigns import random_bimodular_pair, random_pair, trial_rng
from intgraphs.cob0 import SRC, TGT, cob0_morphism
from intgraphs.execution import PreconditionViolationError, execute, graphs_equal_flattened, measure
from intgraphs.formats import render_graph
from intgraphs.functor import check_functoriality
from intgraphs.graph import (
    DIRECTED,
    UNORIENTED,
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


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_the_walk_checks_each_live_arc_once_not_each_junction(monkeypatch, k):
    # 2**(k+1) paths of k junctions each, but 2 x 2 live arcs at each of
    # the k shared vertices
    arcs = []
    check = graph._check_junction
    monkeypatch.setattr(graph, "_check_junction", lambda a, b: arcs.append((a, b)) or check(a, b))
    paths = alternating_paths(*diamond_chain(2, k))
    assert len(paths) == 2 ** (k + 1)
    assert len(arcs) == len(set(arcs)) == 4 * k
    assert set(arcs) == {junction for p in paths for junction in zip(p.steps, p.steps[1:])}


@pytest.mark.parametrize(
    "last, broken",
    [
        ((1, Edge("g", "c", "d")), "do not alternate"),  # composes, same side
        ((0, Edge("g", "x", "d")), "do not compose"),  # alternates, b -> c then x -> d
    ],
)
@pytest.mark.parametrize("run", [alternating_paths, execute])
def test_a_broken_arc_in_the_last_layer_is_refused(monkeypatch, run, last, broken):
    # a -> b -> c -> d in three steps, the first two junctions sound
    first, middle = (0, Edge("e", "a", "b")), (1, Edge("f", "b", "c"))
    bad = DerivedGraph(
        (first, middle, last), [[1], [2], []], [True, False, False], [False, False, True]
    )
    monkeypatch.setattr(graph, "derived_graph", lambda g, h: bad)
    sides = ([first[1]], [middle[1]])
    sides[last[0]].append(last[1])
    g = Graph({"a", "b", "c", "x", "d"}, sides[0])
    h = Graph({"b", "c", "d"}, sides[1])
    with pytest.raises(InvariantViolationError, match=f"^edges 'f', 'g' {broken}$"):
        run(g, h)


@pytest.mark.parametrize("run", [alternating_paths, execute])
def test_a_broken_arc_into_a_dead_node_is_not_checked(monkeypatch, run):
    # node 2 is neither final nor on the way to a final node, so no path
    # takes the arc into it, which neither composes nor alternates
    first, last = (0, Edge("e", "a", "b")), (1, Edge("f", "b", "c"))
    dead = (0, Edge("g", "x", "y"))
    bad = DerivedGraph(
        (first, last, dead), [[1, 2], [], []], [True, False, False], [False, True, False]
    )
    monkeypatch.setattr(graph, "derived_graph", lambda g, h: bad)
    g = Graph({"a", "b", "x", "y"}, [first[1], dead[1]])
    h = Graph({"b", "c"}, [last[1]])
    result = run(g, h)
    if run is execute:
        assert [(e.id, e.src, e.tgt) for e in result.edges] == [(("e", "f"), "a", "c")]
    else:
        assert [p.steps for p in result] == [(first, last)]


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


def _memo_pair() -> tuple[Graph, Graph]:
    # tied ids (both named "e") and a 2-cycle, so the node order and the
    # arcs both depend on which edges each graph holds
    g = Graph({"a", "b", "c"}, [("e", "a", "b"), ("f", "c", "b"), ("k", "b", "c")])
    h = Graph({"b", "c", "d"}, [("e", "b", "c"), ("g", "c", "d"), ("m", "c", "b")])
    return g, h


def _copies(g: Graph, h: Graph) -> tuple[Graph, Graph]:
    """Equal copies of g and h, which no memo can hold."""
    return Graph(set(g.vertices), list(g.edges)), Graph(set(h.vertices), list(h.edges))


def _fresh(g: Graph, h: Graph) -> DerivedGraph:
    """The derived graph of copies of g and h."""
    return derived_graph(*_copies(g, h))


def _builds(monkeypatch) -> list:
    """Record every derived graph that `derived_graph` builds from now on."""
    built: list = []
    make = graph.DerivedGraph

    def build(*arrays):
        built.append(make(*arrays))
        return built[-1]

    monkeypatch.setattr(graph, "DerivedGraph", build)
    return built


def test_a_repeated_pair_gets_its_derived_graph_again(monkeypatch):
    g, h = _memo_pair()
    built = _builds(monkeypatch)
    first = derived_graph(g, h)
    assert derived_graph(g, h) is first
    assert built == [first]
    assert first == _fresh(g, h)


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("clone", [copy.copy, lambda g: Graph(g.vertices, g.edges)])
def test_an_equal_copy_gets_a_fresh_build(side, clone):
    pair = list(_memo_pair())
    first = derived_graph(*pair)
    pair[side] = clone(pair[side])
    again = derived_graph(*pair)
    assert again is not first
    assert again == first  # all four arrays


@pytest.mark.parametrize("slot", ["edges", "vertices"])
@pytest.mark.parametrize("side", [0, 1])
def test_a_reassigned_slot_gets_a_fresh_build(side, slot):
    pair = list(_memo_pair())
    first = derived_graph(*pair)
    changed = pair[side]
    if slot == "edges":
        changed.edges = changed.edges[1:]
    else:
        # the other graph's vertices too: none is a boundary vertex now
        changed.vertices = changed.vertices | pair[1 - side].vertices
    again = derived_graph(*pair)
    assert again is not first
    assert again == _fresh(*pair) != first


def test_alternating_pairs_are_each_built_correctly(monkeypatch):
    g, h = _memo_pair()
    forward, backward = _fresh(g, h), _fresh(h, g)
    assert forward != backward
    built = _builds(monkeypatch)
    assert [derived_graph(g, h), derived_graph(h, g), derived_graph(g, h)] == [
        forward, backward, forward
    ]
    assert len(built) == 3


def test_one_functoriality_check_builds_one_derived_graph(monkeypatch):
    cup = cob0_morphism([], [1, 2], [[(TGT, 1), (TGT, 2)]])
    cap = cob0_morphism([1, 2], [], [[(SRC, 1), (SRC, 2)]])
    built = _builds(monkeypatch)
    report = check_functoriality(cup, cap)
    assert report.passed and report.details["measure_unoriented"] == "1"
    assert len(built) == 1


def _scc_passes(monkeypatch) -> list:
    """Record every Tarjan pass the kernel runs from now on."""
    passes: list = []
    real = graph._sccs

    def counted(succ, roots):
        passes.append(succ)
        return real(succ, roots)

    monkeypatch.setattr(graph, "_sccs", counted)
    return passes


def test_one_functoriality_check_makes_two_scc_passes(monkeypatch):
    # one from the initial nodes for the paths of int_compose, one over
    # all nodes for both cycle measures
    cup = cob0_morphism([], [1, 2], [[(TGT, 1), (TGT, 2)]])
    cap = cob0_morphism([1, 2], [], [[(SRC, 1), (SRC, 2)]])
    passes = _scc_passes(monkeypatch)
    assert check_functoriality(cup, cap).passed
    assert len(passes) == 2


def test_both_measures_of_one_pair_share_one_cycle_pass(monkeypatch):
    g, h = _memo_pair()
    passes = _scc_passes(monkeypatch)
    assert (measure(g, h, UNORIENTED), measure(g, h, DIRECTED)) == (1, 2)
    assert len(passes) == 1


def test_a_second_path_enumeration_of_one_pair_makes_no_scc_pass(monkeypatch):
    g, h = diamond_chain(2, 3)
    first = alternating_paths(g, h)
    passes = _scc_passes(monkeypatch)
    assert alternating_paths(g, h) == first
    assert count_paths(g, h) == len(first) == 16
    assert passes == []


def test_prime_cycles_hands_out_a_new_list_each_call():
    g, h = _memo_pair()
    expected = prime_cycles(*_copies(g, h), DIRECTED)
    first = prime_cycles(g, h, DIRECTED)
    assert first == expected and len(first) == 2
    first.clear()
    again = prime_cycles(g, h, DIRECTED)
    assert again is not first
    assert again == expected


@given(seeds, st.sampled_from([(DIRECTED, UNORIENTED), (UNORIENTED, DIRECTED)]))
@settings(max_examples=100, deadline=None)
def test_kept_results_give_what_a_fresh_pair_gives(seed, modes):
    # dense pairs: some with cycles, some with infinite sets
    g, h = _pair(seed, 11, max_edges=10)

    def outcome(call, *args):
        try:
            return call(*args)
        except (InfinitePathSetError, InfiniteCycleSetError) as err:
            return type(err), str(err)

    fresh = {mode: outcome(prime_cycles, *_copies(g, h), mode) for mode in modes}
    fresh_count = outcome(count_paths, *_copies(g, h))
    assert [outcome(prime_cycles, g, h, mode) for mode in modes * 2] == [
        fresh[mode] for mode in modes * 2
    ]
    paths = outcome(alternating_paths, g, h)
    if isinstance(paths, list):
        paths.clear()
    assert outcome(count_paths, g, h) == fresh_count


def test_an_infinite_set_raises_alike_each_time():
    g = Graph({"a", "b", "c"}, [("e", "a", "b"), ("g", "c", "b")])
    h = Graph({"b", "c", "y"}, [("f", "b", "c"), ("z", "b", "y")])
    errors = []
    for run in (alternating_paths, count_paths, alternating_paths):
        with pytest.raises(InfinitePathSetError) as err:
            run(g, h)
        errors.append((str(err.value), err.value.witness))
    assert errors == [errors[0]] * 3

    g = Graph({"a", "b"}, [("e", "a", "b"), ("f", "b", "a"), ("e2", "a", "b")])
    h = Graph({"a", "b"}, [("x", "b", "a"), ("y", "a", "b")])
    errors = []
    for mode in (DIRECTED, UNORIENTED, DIRECTED):
        with pytest.raises(InfiniteCycleSetError) as err:
            prime_cycles(g, h, mode)
        errors.append((str(err.value), err.value.node, err.value.branches))
    assert errors == [errors[0]] * 3


def test_bimodular_then_plain_execution_of_one_pair_builds_once(monkeypatch):
    g, h = diamond_chain(2, 3)
    built = _builds(monkeypatch)
    quotient = bimod_execute(BimodularGraph(g), BimodularGraph(h))
    plain = execute(g, h)
    assert graphs_equal_flattened(quotient.graph, plain)
    assert len(plain.edges) == 16
    assert len(built) == 1


def _executed_graphs():
    """Executed graphs of every kind the trusted build makes: random pairs
    at campaign defaults, diamond chains of 2^1 to 2^12 paths, the
    quotients of random bimodular pairs, and a NaN boundary vertex."""
    for index in range(300):
        try:
            yield execute(*random_pair(trial_rng(42, index)))
        except InfinitePathSetError:
            pass
    for k in range(12):
        yield execute(*diamond_chain(2, k))
    for index in range(300):
        try:
            yield bimod_execute(*random_bimodular_pair(trial_rng(42, index))).graph
        except (InfinitePathSetError, PreconditionViolationError, OrbitCapExceededError):
            pass
    nan = float("nan")
    yield execute(Graph({nan, "m"}, [("e", nan, "m")]), Graph({"m", "b"}, [("f", "m", "b")]))


def test_trusted_executed_graphs_equal_their_public_rebuild():
    sizes = []
    for result in _executed_graphs():
        rebuilt = Graph(result.vertices, [(e.id, e.src, e.tgt) for e in result.edges])
        assert rebuilt.vertices == result.vertices
        assert rebuilt.edges == result.edges
        assert render_graph("R", rebuilt) == render_graph("R", result)
        sizes.append(len(result.edges))
    assert max(sizes) == 2**12
    assert len(sizes) > 300


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_public_graph_still_checks_endpoints(flags):
    snippet = """
from intgraphs.graph import Graph, UnknownVertexError
for edge in [("e", "z", "a"), ("e", "a", "z")]:
    try:
        Graph({"a"}, [edge])
    except UnknownVertexError as exc:
        print(exc)
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(intgraphs.__file__)))
    run = subprocess.run(
        [sys.executable, *flags, "-c", snippet],
        env=env, capture_output=True, text=True, check=True,
    )
    assert run.stdout == (
        "edge 'e': unknown source vertex 'z'\nedge 'e': unknown target vertex 'z'\n"
    )
