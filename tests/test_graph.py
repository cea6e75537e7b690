from __future__ import annotations

import pytest

from intgraphs.graph import (
    DIRECTED,
    OMEGA,
    UNORIENTED,
    DuplicateEdgeIdError,
    Edge,
    ExtNat,
    Graph,
    InfiniteCycleSetError,
    InfinitePathSetError,
    InvariantViolationError,
    Path,
    UnknownVertexError,
    alternating_paths,
    derived_graph,
    flatten,
    prime_cycles,
)

from oracle import FINITE, INFINITE, oracle_cycles, oracle_paths


def g(vertices, edges=()):
    return Graph(vertices, edges)


class TestGraphConstruction:
    def test_minimal_graph(self):
        graph = g({"a", "b"}, [("e", "a", "b")])
        assert graph.vertices == {"a", "b"}
        assert graph.edges == (Edge("e", "a", "b"),)

    def test_unknown_vertex_rejected(self):
        with pytest.raises(UnknownVertexError):
            g({"a"}, [("e", "a", "b")])

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(DuplicateEdgeIdError):
            g({"a", "b"}, [("e", "a", "b"), ("e", "b", "a")])

    def test_self_loops_and_parallel_edges_allowed(self):
        graph = g({"a"}, [("e", "a", "a"), ("f", "a", "a")])
        assert len(graph.edges) == 2

    def test_equality_ignores_edge_order(self):
        g1 = g({"a", "b"}, [("e", "a", "b"), ("f", "b", "a")])
        g2 = g({"a", "b"}, [("f", "b", "a"), ("e", "a", "b")])
        assert g1 == g2
        assert hash(g1) == hash(g2)

    def test_relabel_rejects_merging(self):
        graph = g({"a", "b"})
        with pytest.raises(ValueError):
            graph.relabel_vertices({"a": "b"})


class TestExtNat:
    def test_addition(self):
        assert ExtNat(2) + ExtNat(3) == ExtNat(5)
        assert ExtNat(2) + 3 == 5
        assert ExtNat(1) + OMEGA == OMEGA
        assert OMEGA + OMEGA == OMEGA

    def test_order(self):
        assert ExtNat(1) < ExtNat(2) < OMEGA
        assert not OMEGA < OMEGA
        assert OMEGA <= OMEGA

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ExtNat(-1)

    def test_str(self):
        assert str(OMEGA) == "omega"
        assert str(ExtNat(4)) == "4"


class TestFlatten:
    def test_concatenation(self):
        assert flatten([["e", "f"], ["g"]]) == ("e", "f", "g")

    def test_singleton(self):
        assert flatten([["e"]]) == ("e",)

    def test_idempotent(self):
        nested = (("a", ("b", "c")), "d", ((),))
        assert flatten(flatten(nested)) == flatten(nested)


class TestDerivedGraph:
    def test_chain(self):
        G = g({"a", "b"}, [("e", "a", "b")])
        H = g({"b", "c"}, [("f", "b", "c")])
        dg = derived_graph(G, H)
        e = (0, G.edge("e"))
        f = (1, H.edge("f"))
        assert dg.arcs[e] == (f,)
        assert dg.arcs[f] == ()
        assert dg.initial == {e}
        assert dg.final == {f}

    def test_empty_second_graph(self):
        G = g({"a", "b"}, [("e", "a", "b")])
        H = Graph.empty()
        dg = derived_graph(G, H)
        e = (0, G.edge("e"))
        assert dg.arcs[e] == ()
        assert dg.initial == dg.final == {e}

    def test_two_cycle_has_no_boundary_nodes(self):
        G = g({"a", "b"}, [("e", "a", "b")])
        H = g({"a", "b"}, [("f", "b", "a")])
        dg = derived_graph(G, H)
        e = (0, G.edge("e"))
        f = (1, H.edge("f"))
        assert dg.arcs[e] == (f,)
        assert dg.arcs[f] == (e,)
        assert dg.initial == frozenset()
        assert dg.final == frozenset()


class TestAlternatingPaths:
    def test_single_composition(self):
        G = g({"a", "b"}, [("e", "a", "b")])
        H = g({"b", "c"}, [("f", "b", "c")])
        paths = alternating_paths(G, H)
        assert [(p.flat_id, p.source, p.target) for p in paths] == [
            (("e", "f"), "a", "c")
        ]

    def test_no_interaction(self):
        G = g({"a", "b"}, [("e", "a", "b")])
        paths = alternating_paths(G, Graph.empty())
        assert [(p.flat_id, p.source, p.target) for p in paths] == [
            (("e",), "a", "b")
        ]

    def test_empty_boundary_means_no_paths(self):
        G = g({"a", "b"}, [("e1", "a", "b"), ("e2", "b", "a")])
        H = g({"a", "b"}, [("f1", "b", "a"), ("f2", "a", "b")])
        assert alternating_paths(G, H) == []

    def test_infinite_path_set_detected(self):
        # e enters a two-edge alternating cycle that can still exit to y.
        G = g({"a", "b", "c"}, [("e", "a", "b"), ("g", "c", "b")])
        H = g({"b", "c", "y"}, [("f", "b", "c"), ("z", "b", "y")])
        with pytest.raises(InfinitePathSetError) as err:
            alternating_paths(G, H)
        witness_ids = {edge.id for _, edge in err.value.witness}
        assert witness_ids == {"f", "g"}

    def test_infinite_path_witness_tells_int_and_str_ids_apart(self):
        G = g({"a", "b", "c"}, [("e", "a", "b"), (1, "c", "b")])
        H = g({"b", "c", "y"}, [("1", "b", "c"), ("z", "b", "y")])
        with pytest.raises(InfinitePathSetError) as err:
            alternating_paths(G, H)
        assert str(err.value) in {
            f"infinite alternating path set (pumpable cycle: {ids})"
            for ids in ("1 '1'", "'1' 1")
        }

    def test_paths_carry_alternation_invariant(self):
        G = g({"a", "b", "c"}, [("e1", "a", "b"), ("e2", "b", "c")])
        H = g({"b", "c", "d"}, [("f1", "b", "c"), ("f2", "c", "d")])
        for p in alternating_paths(G, H):
            sides = p.sides
            assert all(x != y for x, y in zip(sides, sides[1:]))

    def test_matches_oracle_on_hand_instances(self):
        cases = [
            (g({"a", "b"}, [("e", "a", "b")]), g({"b", "c"}, [("f", "b", "c")])),
            (g({"a", "b"}, [("e", "a", "b")]), Graph.empty()),
            (
                g({"a", "b", "c"}, [("e1", "a", "b"), ("e2", "b", "c")]),
                g({"b", "c", "d"}, [("f1", "b", "c"), ("f2", "c", "d")]),
            ),
            (
                g({"a", "b"}, [("e1", "a", "b"), ("e2", "b", "a")]),
                g({"a", "b"}, [("f1", "b", "a"), ("f2", "a", "b")]),
            ),
        ]
        for G, H in cases:
            verdict, walks = oracle_paths(G, H)
            assert verdict == FINITE
            got = {tuple((s, e.id) for s, e in p.steps) for p in alternating_paths(G, H)}
            assert got == walks

    def test_oracle_agrees_on_infinite_instance(self):
        G = g({"a", "b", "c"}, [("e", "a", "b"), ("g", "c", "b")])
        H = g({"b", "c", "y"}, [("f", "b", "c"), ("z", "b", "y")])
        verdict, _ = oracle_paths(G, H)
        assert verdict == INFINITE


class TestPrimeCycles:
    def test_single_two_cycle(self):
        G = g({"a", "b"}, [("e", "a", "b")])
        H = g({"a", "b"}, [("f", "b", "a")])
        for mode in (DIRECTED, UNORIENTED):
            classes = prime_cycles(G, H, mode)
            assert len(classes) == 1
            assert classes[0].edge_ids == ("e", "f")

    def test_parallel_interaction_is_infinite(self):
        G = g({"a", "b"}, [("e", "a", "b")])
        H = g({"a", "b"}, [("f1", "b", "a"), ("f2", "b", "a")])
        with pytest.raises(InfiniteCycleSetError):
            prime_cycles(G, H, DIRECTED)

    def test_infinite_cycle_message_tells_int_and_str_ids_apart(self):
        G = g({"a", "b"}, [(2, "a", "b")])
        H = g({"a", "b"}, [(1, "b", "a"), ("1", "b", "a")])
        with pytest.raises(InfiniteCycleSetError) as err:
            prime_cycles(G, H, DIRECTED)
        assert str(err.value) == (
            "infinite prime cycle set (edge 2 re-enters its component via 1, '1')"
        )

    def test_disjoint_graphs_have_no_cycles(self):
        G = g({"a", "b"}, [("e", "a", "b")])
        H = g({"c", "d"}, [("f", "c", "d")])
        assert prime_cycles(G, H, DIRECTED) == []
        assert prime_cycles(G, H, UNORIENTED) == []

    def test_reversal_pairs_merge_in_unoriented_mode(self):
        # Two directed traversals of one geometric circle.
        G = g({"a", "b"}, [("e1", "a", "b"), ("e2", "b", "a")])
        H = g({"a", "b"}, [("f1", "b", "a"), ("f2", "a", "b")])
        assert len(prime_cycles(G, H, DIRECTED)) == 2
        assert len(prime_cycles(G, H, UNORIENTED)) == 1

    def test_self_loop_cycle_is_its_own_reversal(self):
        G = g({"a"}, [("e", "a", "a")])
        H = g({"a"}, [("f", "a", "a")])
        directed = prime_cycles(G, H, DIRECTED)
        unoriented = prime_cycles(G, H, UNORIENTED)
        assert len(directed) == len(unoriented) == 1
        assert directed[0].is_own_reversal()

    def test_canonical_form_is_rotation_invariant(self):
        G = g({"a", "b", "c", "d"}, [("e1", "a", "b"), ("e2", "c", "d")])
        H = g({"a", "b", "c", "d"}, [("f1", "b", "c"), ("f2", "d", "a")])
        (cls,) = prime_cycles(G, H, DIRECTED)
        canonical = lambda seq: min(
            (seq[i:] + seq[:i] for i in range(len(seq))),
            key=lambda rot: tuple((str(e.id), s) for s, e in rot),
        )
        for k in range(len(cls.steps)):
            rotated = cls.steps[k:] + cls.steps[:k]
            assert canonical(rotated) == cls.steps

    def test_matches_oracle_on_hand_instances(self):
        cases = [
            (g({"a", "b"}, [("e", "a", "b")]), g({"a", "b"}, [("f", "b", "a")])),
            (
                g({"a", "b"}, [("e1", "a", "b"), ("e2", "b", "a")]),
                g({"a", "b"}, [("f1", "b", "a"), ("f2", "a", "b")]),
            ),
            (g({"a", "b"}, [("e", "a", "b")]), g({"c", "d"}, [("f", "c", "d")])),
        ]
        for G, H in cases:
            verdict, cycles = oracle_cycles(G, H)
            assert verdict == FINITE
            got = frozenset(
                tuple((s, e.id) for s, e in c.steps) for c in prime_cycles(G, H, DIRECTED)
            )
            assert got == cycles

    def test_oracle_flags_infinite_cycle_set(self):
        G = g({"a", "b"}, [("e", "a", "b")])
        H = g({"a", "b"}, [("f1", "b", "a"), ("f2", "b", "a")])
        verdict, _ = oracle_cycles(G, H)
        assert verdict == INFINITE


class TestPathInvariants:
    def test_noncomposable_rejected(self):
        e = Edge("e", "a", "b")
        f = Edge("f", "c", "d")
        with pytest.raises(InvariantViolationError):
            Path(((0, e), (1, f)))

    def test_nonalternating_rejected(self):
        e = Edge("e", "a", "b")
        f = Edge("f", "b", "c")
        with pytest.raises(InvariantViolationError):
            Path(((0, e), (0, f)))
