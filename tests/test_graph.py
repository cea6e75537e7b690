from __future__ import annotations

import copy
import itertools
import operator
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from intgraphs.graph import (
    DIRECTED,
    OMEGA,
    UNORIENTED,
    CycleClass,
    DuplicateEdgeIdError,
    Edge,
    ExtNat,
    Graph,
    InfiniteCycleSetError,
    InfinitePathSetError,
    InvariantViolationError,
    Path,
    UnknownVertexError,
    _canonical_rotation,
    _node_order,
    alternating_paths,
    derived_graph,
    flatten,
    prime_cycles,
)
from intgraphs.interaction import Project

from oracle import (
    FINITE,
    INFINITE,
    oracle_cycles,
    oracle_paths,
    reverses,
    rotation_by_full_keys,
)


def g(vertices, edges=()):
    return Graph(vertices, edges)


def edge(graph, edge_id):
    return {e.id: e for e in graph.edges}[edge_id]


class TestGraphConstruction:
    def test_minimal_graph(self):
        graph = g({"a", "b"}, [("e", "a", "b")])
        assert graph.vertices == {"a", "b"}
        assert graph.edges == (Edge("e", "a", "b"),)

    def test_unknown_vertex_rejected(self):
        with pytest.raises(UnknownVertexError):
            g({"a"}, [("e", "a", "b")])

    def test_unknown_source_vertex_rejected(self):
        with pytest.raises(UnknownVertexError, match="unknown source vertex 'z'"):
            g({"a"}, [("e", "z", "a")])

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

    def test_equality_with_another_type_is_left_to_it(self):
        graph = g({"a"})
        assert graph.__eq__(frozenset({"a"})) is NotImplemented
        assert graph != frozenset({"a"})

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

    def test_repr(self):
        assert repr(OMEGA) == "OMEGA"
        assert repr(ExtNat(4)) == "ExtNat(4)"

    def test_immutable(self):
        with pytest.raises(AttributeError, match="immutable"):
            OMEGA.value = 1
        with pytest.raises(AttributeError, match="immutable"):
            del OMEGA.value
        assert OMEGA.is_omega

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_values_and_projects_copy_and_pickle(self, clone):
        for value in (ExtNat(2), OMEGA):
            again = clone(value)
            assert type(again) is ExtNat and again == value
            assert again.is_omega is value.is_omega
            with pytest.raises(AttributeError, match="ExtNat is immutable"):
                again.value = 3
            with pytest.raises(AttributeError, match="ExtNat is immutable"):
                del again.value
        project = Project(OMEGA, Graph.empty())
        again = clone(project)
        assert again == project and again.wager.is_omega
        with pytest.raises(AttributeError):
            again.wager = ExtNat(0)
        with pytest.raises(AttributeError):
            del again.graph
        with pytest.raises(AttributeError, match="immutable"):
            del again.wager.value

    def test_int(self):
        assert int(ExtNat(3)) == 3
        with pytest.raises(ValueError, match="omega is not a finite natural"):
            int(OMEGA)

    def test_order_against_a_non_number_names_both_types(self):
        for compare in (
            lambda: ExtNat(1) > "a",
            lambda: ExtNat(1) >= "a",
            lambda: ExtNat(1) <= "a",
            lambda: OMEGA < "a",
        ):
            with pytest.raises(TypeError, match="'ExtNat' and 'str'"):
                compare()
        assert ExtNat(2) > 1 and ExtNat(2) >= 2 and OMEGA >= OMEGA and not ExtNat(3) <= 2

    def test_hashes_like_its_int(self):
        assert hash(ExtNat(1)) == hash(1)
        assert 1 in {ExtNat(1)} and ExtNat(1) in {1}
        assert {ExtNat(2): "two"}[2] == "two"

    @pytest.mark.parametrize(
        "op, expected",
        [
            (operator.eq, False),
            (operator.ne, True),
            (operator.lt, False),
            (operator.le, False),
            (operator.gt, True),
            (operator.ge, True),
        ],
    )
    def test_every_value_is_above_a_negative_int(self, op, expected):
        for x in (ExtNat(0), ExtNat(1), OMEGA):
            for n in (-1, -3):
                assert op(x, n) is expected
                # reflected: n < x is x > n, and so on
                assert op(n, x) is (expected if op in (operator.eq, operator.ne) else not expected)

    def test_adding_a_negative_int_raises(self):
        with pytest.raises(ValueError, match=">= 0"):
            ExtNat(1) + -1
        with pytest.raises(ValueError, match=">= 0"):
            -1 + ExtNat(1)

    def test_bool_rejected(self):
        for flag in (True, False):
            with pytest.raises(ValueError):
                ExtNat(flag)
        assert ExtNat(1) != True  # noqa: E712
        with pytest.raises(TypeError):
            ExtNat(1) + True


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
        e = (0, edge(G, "e"))
        f = (1, edge(H, "f"))
        assert dg.nodes == (e, f)
        assert dg.succ == [[1], []]
        assert dg.is_initial == [True, False]
        assert dg.is_final == [False, True]

    def test_empty_second_graph(self):
        G = g({"a", "b"}, [("e", "a", "b")])
        H = Graph.empty()
        dg = derived_graph(G, H)
        e = (0, edge(G, "e"))
        assert dg.nodes == (e,)
        assert dg.succ == [[]]
        assert dg.is_initial == dg.is_final == [True]

    def test_two_cycle_has_no_boundary_nodes(self):
        G = g({"a", "b"}, [("e", "a", "b")])
        H = g({"a", "b"}, [("f", "b", "a")])
        dg = derived_graph(G, H)
        e = (0, edge(G, "e"))
        f = (1, edge(H, "f"))
        assert dg.nodes == (e, f)
        assert dg.succ == [[1], [0]]
        assert dg.is_initial == dg.is_final == [False, False]


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
        # a -e1-> b -f1-> c -e2-> d -f2-> x, and a -e1-> b -f3-> d -e3-> y
        G = g({"a", "b", "c", "d", "y"}, [("e1", "a", "b"), ("e2", "c", "d"), ("e3", "d", "y")])
        H = g({"b", "c", "d", "x"}, [("f1", "b", "c"), ("f2", "d", "x"), ("f3", "b", "d")])
        paths = alternating_paths(G, H)
        assert sorted(p.flat_id for p in paths) == [("e1", "f1", "e2", "f2"), ("e1", "f3", "e3")]
        for p in paths:
            sides = [side for side, _ in p.steps]
            assert len(sides) == len(p.steps) >= 3
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


class TestOrderOfIdsThatPrintAlike:
    """Ids 1 and "1" print alike; 1 comes first (type name int < str),
    whatever order the graphs list their edges in."""

    F_EDGES = [(1, "a", "b"), ("1", "c", "d")]

    def test_prime_cycles(self):
        H = g("abcd", [(2, "b", "a"), ("2", "d", "c")])
        for edges in (self.F_EDGES, self.F_EDGES[::-1]):
            for mode in (DIRECTED, UNORIENTED):
                classes = prime_cycles(g("abcd", edges), H, mode)
                assert [c.edge_ids for c in classes] == [(1, 2), ("1", "2")]

    def test_alternating_paths(self):
        H = g("bdxy", [(2, "b", "x"), ("2", "d", "y")])
        for edges in (self.F_EDGES, self.F_EDGES[::-1]):
            paths = alternating_paths(g("abcd", edges), H)
            assert [p.flat_id for p in paths] == [(1, 2), ("1", "2")]


class TestFullyTiedIds:
    """Two NaN ids agree in str, type name and repr but are unequal, so
    their nodes tie in node order and are numbered by input order.  The
    cycle through both starts where the keys say, at the NaN followed by
    "x", whatever order F lists its edges in."""

    H = g("abcd", [("y", "b", "c"), ("x", "d", "a")])

    def _check(self, edges, start):
        for mode in (DIRECTED, UNORIENTED):
            classes = prime_cycles(g("abcdpq", edges), self.H, mode)
            assert len(classes) == 1
            assert [str(i) for i in classes[0].edge_ids] == ["nan", "x", "nan", "y"]
            assert classes[0].steps[0][1].id is start

    def test_both_edge_orders(self):
        n1, n2 = float("nan"), float("nan")
        edges = [(n1, "a", "b"), (n2, "c", "d")]
        for order in (edges, edges[::-1]):
            self._check(order, n2)

    def test_a_tied_node_outside_the_cycle(self):
        # the NaN on p -> q is on no cycle but may be numbered between the two
        n1, n2, n3 = float("nan"), float("nan"), float("nan")
        edges = [(n1, "a", "b"), (n3, "p", "q"), (n2, "c", "d")]
        for order in itertools.permutations(edges):
            self._check(list(order), n2)


class TestPrimeCycles:
    def test_classes_come_in_node_order(self):
        # "e" leads from the a-b cycle to the c-d cycle, so the c-d
        # component is completed first
        G = g("xyzw", [("a", "x", "y"), ("c", "z", "w")])
        H = g("xyzw", [("b", "y", "x"), ("d", "w", "z"), ("e", "y", "z")])
        classes = prime_cycles(G, H)
        assert [c.edge_ids for c in classes] == [("a", "b"), ("c", "d")]

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

    def test_unknown_mode_rejected(self):
        G = g({"a", "b"}, [("e", "a", "b")])
        with pytest.raises(ValueError, match="unknown cycle mode 'bogus'"):
            prime_cycles(G, G, "bogus")

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
        assert reverses(directed[0].steps, directed[0].steps)

    def test_one_reversed_step_does_not_make_a_reversal(self):
        # Only e1 has an opposite edge on a cycle: r, on the 2-cycle r k.
        # Neither cycle is the other's reversal, so both stay apart.
        G = g("abcd", [("e1", "a", "b"), ("e3", "c", "d"), ("r", "b", "a")])
        H = g("abcd", [("f1", "b", "c"), ("f2", "d", "a"), ("k", "a", "b")])
        directed = prime_cycles(G, H, DIRECTED)
        unoriented = prime_cycles(G, H, UNORIENTED)
        expected = [("e1", "f1", "e3", "f2"), ("k", "r")]
        assert [c.edge_ids for c in directed] == [c.edge_ids for c in unoriented] == expected
        assert not reverses(directed[0].steps, directed[0].steps)

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

    def test_empty_path_rejected(self):
        with pytest.raises(InvariantViolationError, match="^a path has at least one edge$"):
            Path(())

    def test_one_step_path_accepted(self):
        e = Edge("e", "a", "b")
        path = Path(((0, e),))
        assert (path.source, path.target, len(path)) == ("a", "b", 1)

    @staticmethod
    def _chain(n):
        return [(i % 2, Edge(f"e{i}", f"v{i}", f"v{i + 1}")) for i in range(n)]

    def test_long_path_names_its_noncomposing_pair(self):
        steps = self._chain(9)
        steps[5] = (1, Edge("e5", "elsewhere", "v6"))
        with pytest.raises(InvariantViolationError) as err:
            Path(tuple(steps))
        assert str(err.value) == "edges 'e4', 'e5' do not compose"

    def test_long_path_names_its_nonalternating_pair(self):
        steps = self._chain(9)
        steps[5] = (0, steps[5][1])
        with pytest.raises(InvariantViolationError) as err:
            Path(tuple(steps))
        assert str(err.value) == "edges 'e4', 'e5' do not alternate"

    def test_first_bad_pair_raises_and_compose_is_tested_first(self):
        steps = self._chain(9)
        steps[3] = (1, Edge("e3", "elsewhere", "v4"))  # composes with nothing before
        steps[7] = (0, steps[7][1])  # a later pair that does not alternate
        with pytest.raises(InvariantViolationError) as err:
            Path(tuple(steps))
        assert str(err.value) == "edges 'e2', 'e3' do not compose"
        steps[3] = (0, Edge("e3", "elsewhere", "v4"))  # breaks both rules
        with pytest.raises(InvariantViolationError) as err:
            Path(tuple(steps))
        assert str(err.value) == "edges 'e2', 'e3' do not compose"


class TestCycleClassInvariants:
    E = Edge("e", "a", "b")
    F = Edge("f", "b", "a")

    def test_a_valid_cycle_is_accepted(self):
        cycle = CycleClass(((0, self.E), (1, self.F)), DIRECTED)
        assert cycle.edge_ids == ("e", "f")
        assert len(cycle) == 2

    @pytest.mark.parametrize(
        "steps, mode, message",
        [
            (((0, E), (1, F)), "sideways", "unknown cycle mode 'sideways'"),
            ((), DIRECTED, "a path has at least one edge"),
            (((0, E), (1, Edge("f", "c", "a"))), DIRECTED, "edges 'e', 'f' do not compose"),
            (((0, E), (1, Edge("f", "b", "c"))), DIRECTED, "edges 'f', 'e' do not compose"),
            (((0, E), (0, F)), DIRECTED, "edges 'e', 'f' do not alternate"),
            (((0, E),), DIRECTED, "edges 'e', 'e' do not compose"),
            (((1, F), (0, E)), DIRECTED, "not canonical"),
            (((0, E), (1, F), (0, E), (1, F)), UNORIENTED, "cycle is a proper power"),
        ],
        ids=["mode", "empty", "chain", "chain-back", "alternate", "one-step", "rotation", "power"],
    )
    def test_invalid_cycles_are_rejected(self, steps, mode, message):
        with pytest.raises(InvariantViolationError) as err:
            CycleClass(steps, mode)
        assert str(err.value) == message


# ids 1 and "1" reach the type-aware tie-break; a repeated id with other
# endpoints gives an equal node key, so rotations tie
_derived_nodes = st.tuples(
    st.integers(0, 1),
    st.builds(
        Edge, st.sampled_from([1, "1", "a", "b"]), st.sampled_from("xy"), st.sampled_from("xy")
    ),
)


class TestCanonicalRotation:
    @given(st.lists(_derived_nodes, min_size=1, max_size=8).map(tuple))
    def test_equals_the_rotation_by_full_keys(self, seq):
        assert _canonical_rotation(seq) == rotation_by_full_keys(seq)

    def test_ties_go_to_the_first_least_index(self):
        # a repeated node is a genuine tie: (a, b, a, b) equals its rotation by 2
        a, b = (0, Edge("a", "x", "y")), (1, Edge("b", "y", "x"))
        assert _canonical_rotation((b, a, b, a)) == (a, b, a, b)
        assert _canonical_rotation((a, b, a, b)) == (a, b, a, b)
        # c is a with its endpoints swapped: an equal key, so the tied
        # rotations differ and show which one is taken
        c = (0, Edge("a", "y", "x"))
        assert _node_order(a) == _node_order(c)
        assert _canonical_rotation((a, b, c, b)) == (a, b, c, b)
        assert _canonical_rotation((c, b, a, b)) == (c, b, a, b)
        assert _canonical_rotation((b, c, b, a)) == (c, b, a, b)

    @given(
        st.one_of(
            st.lists(st.integers(0, 2), min_size=1, max_size=12),
            # periodic: a short word repeated, so several rotations tie
            st.tuples(
                st.lists(st.integers(0, 2), min_size=1, max_size=4), st.integers(1, 5)
            ).map(lambda word_times: word_times[0] * word_times[1]),
        )
    )
    def test_picks_the_rotation_the_brute_force_picks(self, keys):
        # each item carries its index, so a tied rotation that starts at
        # another index reads apart
        seq = tuple(enumerate(keys))
        start = min(range(len(keys)), key=lambda i: keys[i:] + keys[:i])
        assert _canonical_rotation(seq, operator.itemgetter(1)) == seq[start:] + seq[:start]

    @pytest.mark.parametrize(
        "family",
        [
            lambda n: [0] * n,
            lambda n: [0, 1] * (n // 2),
            lambda n: [0] * (n - 1) + [1],
            lambda n: [1] + [0] * (n - 1),
            lambda n: ([0] * 9 + [1]) * (n // 10),
            lambda n: random.Random(n).choices(range(3), k=n),
        ],
        ids=["constant", "period-2", "last-greatest", "first-greatest", "period-10", "random"],
    )
    def test_makes_a_linear_number_of_key_comparisons(self, family):
        comparisons = 0

        class Key:
            __slots__ = ("value",)

            def __init__(self, value):
                self.value = value

            def _compare(self, op, other):
                nonlocal comparisons
                comparisons += 1
                return op(self.value, other.value)

            __eq__ = lambda self, other: self._compare(operator.eq, other)
            __ne__ = lambda self, other: self._compare(operator.ne, other)
            __lt__ = lambda self, other: self._compare(operator.lt, other)
            __gt__ = lambda self, other: self._compare(operator.gt, other)

        for n in (500, 1000):
            comparisons = 0
            _canonical_rotation(family(n), Key)
            assert comparisons <= 8 * n
