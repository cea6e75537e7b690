from __future__ import annotations

import pickle

import pytest

from intgraphs import execution
from intgraphs.execution import (
    PreconditionViolationError,
    check_associativity,
    check_trefoil,
    execute,
    graphs_equal_flattened,
    measure,
    normal_form,
)
from intgraphs.graph import (
    DIRECTED,
    OMEGA,
    UNORIENTED,
    DuplicateEdgeIdError,
    Graph,
    InfiniteCycleSetError,
    InfinitePathSetError,
    alternating_paths,
)


def g(vertices, edges=()):
    return Graph(vertices, edges)


class TestExecute:
    def test_single_composition(self):
        G = g({"a", "b"}, [("e", "a", "b")])
        H = g({"b", "c"}, [("f", "b", "c")])
        result = execute(G, H)
        assert result.vertices == {"a", "c"}
        assert [(e.id, e.src, e.tgt) for e in result.edges] == [(("e", "f"), "a", "c")]

    def test_disjoint_vertex_sets_give_disjoint_union(self):
        G = g({"a", "b"}, [("e", "a", "b")])
        H = g({"c", "d"}, [("f", "c", "d")])
        result = execute(G, H)
        assert result.vertices == {"a", "b", "c", "d"}
        assert {(e.id, e.src, e.tgt) for e in result.edges} == {
            (("e",), "a", "b"),
            (("f",), "c", "d"),
        }

    def test_full_overlap_gives_empty_graph(self):
        G = g({"a", "b"}, [("e", "a", "b")])
        H = g({"a", "b"}, [("f", "b", "a")])
        result = execute(G, H)
        assert result.vertices == frozenset()
        assert result.edges == ()

    def test_empty_graph_is_a_unit(self):
        G = g({"a", "b"}, [("e", "a", "b"), ("f", "b", "a")])
        assert graphs_equal_flattened(execute(G, Graph.empty()), G)
        assert graphs_equal_flattened(execute(Graph.empty(), G), G)

    def test_symmetric_in_its_arguments(self):
        G = g({"a", "b", "c"}, [("e1", "a", "b"), ("e2", "b", "c")])
        H = g({"b", "c", "d"}, [("f1", "b", "c"), ("f2", "c", "d")])
        assert graphs_equal_flattened(execute(G, H), execute(H, G))

    def test_shared_edge_ids_are_a_precondition_violation(self):
        G = g({"a", "b"}, [("e", "a", "b")])
        H = g({"c", "d"}, [("e", "c", "d")])
        with pytest.raises(PreconditionViolationError, match="disjoint edge ids.*'e'"):
            execute(G, H)

    def test_only_shared_ids_in_the_repeated_flat_id_are_named(self):
        # z is in both graphs too, but its pair executes to z.z: x -> y
        G = g({"a", "b", "x", "m"}, [("e", "a", "b"), ("z", "x", "m")])
        H = g({"c", "d", "m", "y"}, [("e", "c", "d"), ("z", "m", "y")])
        with pytest.raises(PreconditionViolationError) as err:
            execute(G, H)
        assert str(err.value) == "execute needs disjoint edge ids, but both graphs use ['e']"

    def test_repeat_of_one_graph_beside_a_shared_id_stays_a_duplicate(self):
        # only ("x",) repeats; the shared z lies on another path
        G = g({"a", "b", "p", "m"}, [("x", "a", "b"), (("x",), "a", "b"), ("z", "p", "m")])
        H = g({"m", "q"}, [("z", "m", "q")])
        with pytest.raises(DuplicateEdgeIdError) as err:
            execute(G, H)
        assert str(err.value) == "duplicate edge id ('x',)"

    def test_duplicate_error_keeps_the_repeated_flat_id(self):
        G = g({"a", "b", "p", "m"}, [("x", "a", "b"), (("x",), "a", "b"), ("z", "p", "m")])
        H = g({"m", "q"}, [("z", "m", "q")])
        with pytest.raises(DuplicateEdgeIdError) as err:
            execute(G, H)
        assert err.value.edge_id == ("x",)
        with pytest.raises(DuplicateEdgeIdError) as err:
            Graph({"a"}, [((1, "e"), "a", "a"), ((1, "e"), "a", "a")])
        assert err.value.edge_id == (1, "e")
        assert str(err.value) == "duplicate edge id (1, 'e')"
        copy = pickle.loads(pickle.dumps(err.value))
        assert (copy.edge_id, str(copy)) == ((1, "e"), "duplicate edge id (1, 'e')")

    def test_the_first_flat_id_to_repeat_in_path_order_is_named(self):
        # in path order the flat ids are ('q',), ('p',), ('p',), ('q',):
        # both repeat, and ('p',) repeats first, as Graph(...) would find
        ids = ["q", ("q",), (("p",),), ((("p",),),)]
        G = g({"a", "b"}, [(i, "a", "b") for i in ids])
        paths = alternating_paths(G, Graph.empty())
        assert [p.flat_id for p in paths] == [("q",), ("p",), ("p",), ("q",)]
        with pytest.raises(DuplicateEdgeIdError) as err:
            execute(G, Graph.empty())
        with pytest.raises(DuplicateEdgeIdError) as public:
            Graph(G.vertices, [(p.flat_id, p.source, p.target) for p in paths])
        assert str(err.value) == str(public.value) == "duplicate edge id ('p',)"

    def test_shared_id_on_distinct_paths_still_executes(self):
        G = g({"a", "m"}, [("e", "a", "m")])
        H = g({"m", "b"}, [("e", "m", "b")])
        result = execute(G, H)
        assert [(e.id, e.src, e.tgt) for e in result.edges] == [(("e", "e"), "a", "b")]

    def test_ids_of_one_graph_that_flatten_alike_still_collide(self):
        # "x" and ("x",) share no id with the other graph: not the
        # disjointness precondition, so the plain duplicate-id error stays
        G = g({"a", "b"}, [("x", "a", "b"), (("x",), "a", "b")])
        with pytest.raises(DuplicateEdgeIdError):
            execute(G, Graph.empty())

    def test_propagates_infinite_path_set(self):
        G = g({"a", "b", "c"}, [("e", "a", "b"), ("g", "c", "b")])
        H = g({"b", "c", "y"}, [("f", "b", "c"), ("z", "b", "y")])
        with pytest.raises(InfinitePathSetError):
            execute(G, H)


class TestMeasure:
    def test_disjoint_graphs(self):
        G = g({"a", "b"}, [("e", "a", "b")])
        H = g({"c", "d"}, [("f", "c", "d")])
        assert measure(G, H, DIRECTED) == 0

    def test_single_cycle_both_modes(self):
        G = g({"a", "b"}, [("e", "a", "b")])
        H = g({"a", "b"}, [("f", "b", "a")])
        assert measure(G, H, DIRECTED) == 1
        assert measure(G, H, UNORIENTED) == 1

    def test_infinite_cycle_set_is_omega(self):
        G = g({"a", "b"}, [("e", "a", "b")])
        H = g({"a", "b"}, [("f1", "b", "a"), ("f2", "b", "a")])
        assert measure(G, H, DIRECTED) == OMEGA

    def test_directed_at_least_unoriented(self):
        G = g({"a", "b"}, [("e1", "a", "b"), ("e2", "b", "a")])
        H = g({"a", "b"}, [("f1", "b", "a"), ("f2", "a", "b")])
        assert measure(G, H, UNORIENTED) <= measure(G, H, DIRECTED)


class TestSharedNanVertex:
    """A NaN vertex object used by both graphs meets itself, as it does as
    a dict key in the derived graph, though ``nan != nan``."""

    NAN = float("nan")

    def test_execute_composes_through_it(self):
        G = g({"a", self.NAN}, [("e", "a", self.NAN)])
        H = g({self.NAN, "b"}, [("f", self.NAN, "b")])
        result = execute(G, H)
        assert [(e.id, e.src, e.tgt) for e in result.edges] == [(("e", "f"), "a", "b")]

    def test_measure_merges_a_reversal_pair_through_it(self):
        G = g({"a", self.NAN}, [("e1", "a", self.NAN), ("e2", self.NAN, "a")])
        H = g({"a", self.NAN}, [("f1", self.NAN, "a"), ("f2", "a", self.NAN)])
        assert measure(G, H, DIRECTED) == 2
        assert measure(G, H, UNORIENTED) == 1


class TestAssociativity:
    def test_three_cycle_collapses_to_empty(self):
        F = g({"x", "y"}, [("e", "x", "y")])
        G = g({"y", "z"}, [("g", "y", "z")])
        H = g({"z", "x"}, [("h", "z", "x")])
        report = check_associativity(F, G, H)
        assert report.passed
        assert execute(execute(F, G), H).vertices == frozenset()

    def test_empty_graphs_pass(self):
        F = g({"x", "y"}, [("e", "x", "y")])
        report = check_associativity(F, Graph.empty(), Graph.empty())
        assert report.passed

    def test_failure_reports_both_normal_forms(self, monkeypatch):
        # associativity holds, so plant a fault: the right side's normal
        # form loses its edges
        F = g({"a", "b"}, [("e", "a", "b")])
        G = g({"b", "c"}, [("f", "b", "c")])
        H = g({"c", "d"}, [("k", "c", "d")])
        forms = []

        def planted(graph):
            forms.append(normal_form(graph))
            return forms[-1] if len(forms) == 1 else (forms[-1][0], ())

        monkeypatch.setattr(execution, "normal_form", planted)
        report = check_associativity(F, G, H)
        assert report.verdict == "FAIL"
        assert forms[0] == forms[1] == (frozenset({"a", "d"}), ((("e", "f", "k"), "a", "d"),))
        assert report.details == {
            "vertices": 2, "edges_left": 1, "edges_right": 1,
            "left_form": forms[0], "right_form": (frozenset({"a", "d"}), ()),
        }

    def test_triple_intersection_rejected(self):
        F = g({"v"})
        G = g({"v"})
        H = g({"v"})
        with pytest.raises(PreconditionViolationError):
            check_associativity(F, G, H)

    def test_triple_intersection_message_tells_1_from_str_1(self):
        F = G = H = g({1, "1", "v"})
        with pytest.raises(PreconditionViolationError) as err:
            check_associativity(F, G, H)
        assert str(err.value) == (
            "triple vertex intersection must be empty, got [1, '1', 'v']"
        )


class TestTrefoil:
    def test_three_cycle(self):
        F = g({"x", "y"}, [("e", "x", "y")])
        G = g({"y", "z"}, [("g", "y", "z")])
        H = g({"z", "x"}, [("h", "z", "x")])
        report = check_trefoil(F, G, H)
        assert report.passed
        assert report.details["cycles(F,G::H)"] == 1
        assert report.details["cycles(G,H)"] == 0
        assert report.details["cycles(H,F::G)"] == 1
        assert report.details["cycles(F,G)"] == 0

    def test_empty_third_graph(self):
        F = g({"x", "y"}, [("e", "x", "y")])
        G = g({"y", "x"}, [("g", "y", "x")])
        report = check_trefoil(F, G, Graph.empty())
        assert report.passed

    def test_report_rendering_is_deterministic(self):
        F = g({"x", "y"}, [("e", "x", "y")])
        G = g({"y", "z"}, [("g", "y", "z")])
        H = g({"z", "x"}, [("h", "z", "x")])
        r1 = check_trefoil(F, G, H).render_line()
        r2 = check_trefoil(F, G, H).render_line()
        assert r1 == r2
        assert "verdict=PASS" in r1


    def test_an_infinite_cycle_set_of_f_and_g_raises_the_first_infinite_set(self):
        # C(F, G) is infinite, and so is C(F, G::H), the first of the four
        # sets in the identity's order: its error names G::H's flat ids
        F = g({"p", "q"}, [("a", "p", "q")])
        G = g({"p", "q"}, [("c", "q", "p"), ("c2", "q", "p")])
        H = g({"r"}, [("h", "r", "r")])
        with pytest.raises(InfiniteCycleSetError) as info:
            check_trefoil(F, G, H)
        assert str(info.value) == (
            "infinite prime cycle set (edge 'a' re-enters its component via ('c',), ('c2',))"
        )
        assert [e.id for _, e in info.value.branches] == [("c",), ("c2",)]


class TestNormalForm:
    def test_flattening_identifies_nested_ids(self):
        flat = g({"a", "b"}, [(("e", "f"), "a", "b")])
        nested = g({"a", "b"}, [((("e",), ("f",)), "a", "b")])
        assert normal_form(flat) == normal_form(nested)
        assert graphs_equal_flattened(flat, nested)


class TestSameForm:
    def test_tied_edges_in_either_order_are_the_same_form(self):
        # two NaN ids print alike, so sorting keeps their input order
        n1, n2 = float("nan"), float("nan")
        a = normal_form(g({"x", "y"}, [(n1, "x", "y"), (n2, "x", "y")]))
        b = normal_form(g({"x", "y"}, [(n2, "x", "y"), (n1, "x", "y")]))
        assert a[1] != b[1] and a[1] == b[1][::-1]
        assert execution._same_form(a, b)

    def test_equal_lengths_with_different_multisets_differ(self):
        vertices = frozenset({"x", "y"})
        edge, other = (("e",), "x", "y"), (("f",), "x", "y")
        assert not execution._same_form((vertices, (edge, edge)), (vertices, (edge, other)))
        assert not execution._same_form((vertices, (edge, other)), (vertices, (other, other)))
        assert execution._same_form((vertices, (edge, other)), (vertices, (other, edge)))

    def test_different_vertex_sets_differ(self):
        edges = ((("e",), "x", "y"),)
        assert not execution._same_form((frozenset("xy"), edges), (frozenset("xyz"), edges))


class TestFlattenedEqualityIgnoresOrder:
    def test_mixed_type_ids_in_either_order(self):
        a = g({"x", "y"}, [(1, "x", "y"), ("1", "x", "y")])
        b = g({"x", "y"}, [("1", "x", "y"), (1, "x", "y")])
        assert a == b
        assert graphs_equal_flattened(a, b)

    def test_ids_of_different_types_still_differ(self):
        a = g({"x", "y"}, [(1, "x", "y")])
        b = g({"x", "y"}, [("1", "x", "y")])
        assert not graphs_equal_flattened(a, b)

    def test_associativity_with_mixed_type_ids_and_vertices(self):
        # Both sides have the same edges, listed in different orders; the
        # edges' strings tie, so comparing sorted forms reported a FAIL.
        f = g({"2"}, [("1", "2", "2"), (2, "2", "2"), (1, "2", "2")])
        gg = g({"1", 1, 2}, [("3", 1, 1), (4, 2, "1")])
        h = g({1}, [(5, 1, 1), (6, 1, 1), ("6", 1, 1), ("5", 1, 1)])
        assert check_associativity(f, gg, h).passed
