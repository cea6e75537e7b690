from __future__ import annotations

import pytest

from intgraphs.execution import graphs_equal_flattened
from intgraphs.graph import DIRECTED, OMEGA, UNORIENTED, ExtNat, Graph
from intgraphs.interaction import (
    _MID,
    IntMorphism,
    InterfaceMismatchError,
    Project,
    _interface_rename,
    cod_vertex,
    dom_vertex,
    int_compose,
    int_identity,
    interface_measure,
    project_execute,
    project_unit,
)

from oracle import erased_endpoints


def morphism(dom, cod, edges):
    """edges: (id, (tag, label), (tag, label)) triples."""
    vertices = {dom_vertex(a) for a in dom} | {cod_vertex(b) for b in cod}
    return IntMorphism(frozenset(dom), frozenset(cod), Graph(vertices, edges))


class TestIntCompose:
    def test_straight_composition(self):
        f = morphism({"a"}, {"b"}, [("e", dom_vertex("a"), cod_vertex("b"))])
        g = morphism({"b"}, {"c"}, [("f", dom_vertex("b"), cod_vertex("c"))])
        h = int_compose(f, g)
        assert h.dom == {"a"}
        assert h.cod == {"c"}
        assert [(e.id, e.src, e.tgt) for e in h.graph.edges] == [
            (("e", "f"), dom_vertex("a"), cod_vertex("c"))
        ]

    def test_backward_edge_composes_to_nothing(self):
        f = morphism({"a"}, {"b"}, [("e", cod_vertex("b"), dom_vertex("a"))])
        g = morphism({"b"}, {"c"}, [("f", dom_vertex("b"), cod_vertex("c"))])
        h = int_compose(f, g)
        assert h.graph.edges == ()

    def test_interface_mismatch_rejected(self):
        f = morphism({"a"}, {"b"}, [])
        g = morphism({"c"}, {"d"}, [])
        with pytest.raises(InterfaceMismatchError):
            int_compose(f, g)

    def test_morphism_graph_on_other_vertices_rejected(self):
        graph = Graph({dom_vertex("a"), cod_vertex("c")}, [])
        with pytest.raises(InterfaceMismatchError, match="tagged domain and codomain"):
            IntMorphism(frozenset({"a"}), frozenset({"b"}), graph)

    def test_interface_mismatch_tells_1_from_str_1(self):
        with pytest.raises(InterfaceMismatchError) as err:
            int_compose(int_identity({1}), int_identity({"1"}))
        assert str(err.value) == "codomain [1] does not match domain ['1']"

    def test_associative_on_flattened_forms(self):
        f = morphism({"a"}, {"b"}, [("e1", dom_vertex("a"), cod_vertex("b"))])
        g = morphism(
            {"b"},
            {"c"},
            [
                ("e2", dom_vertex("b"), cod_vertex("c")),
                ("e3", cod_vertex("c"), dom_vertex("b")),
            ],
        )
        h = morphism({"c"}, {"d"}, [("e4", dom_vertex("c"), cod_vertex("d"))])
        lhs = int_compose(int_compose(f, g), h)
        rhs = int_compose(f, int_compose(g, h))
        assert graphs_equal_flattened(lhs.graph, rhs.graph)


class TestIntIdentity:
    def test_empty_identity(self):
        m = int_identity(frozenset())
        assert m.graph.vertices == frozenset()
        assert m.graph.edges == ()

    def test_singleton_identity_has_two_edges(self):
        m = int_identity({"a"})
        assert len(m.graph.edges) == 2
        endpoints = {(e.src, e.tgt) for e in m.graph.edges}
        assert endpoints == {
            (dom_vertex("a"), cod_vertex("a")),
            (cod_vertex("a"), dom_vertex("a")),
        }

    def test_identity_composed_with_itself(self):
        ident = int_identity({"a", "b"})
        composed = int_compose(ident, ident)
        assert erased_endpoints(composed) == erased_endpoints(ident)

    def test_right_identity_law_up_to_erasure(self):
        f = morphism(
            {"a"},
            {"b", "c"},
            [
                ("e1", dom_vertex("a"), cod_vertex("b")),
                ("e2", cod_vertex("b"), cod_vertex("c")),
                ("e3", cod_vertex("c"), dom_vertex("a")),
            ],
        )
        composed = int_compose(f, int_identity({"b", "c"}))
        assert erased_endpoints(composed) == erased_endpoints(f)

    def test_left_identity_law_up_to_erasure(self):
        f = morphism(
            {"a", "b"},
            {"c"},
            [
                ("e1", dom_vertex("a"), dom_vertex("b")),
                ("e2", dom_vertex("b"), cod_vertex("c")),
            ],
        )
        composed = int_compose(int_identity({"a", "b"}), f)
        assert erased_endpoints(composed) == erased_endpoints(f)


class TestProjects:
    def test_unit_is_neutral(self):
        b = Project(
            ExtNat(3), Graph({"a", "b"}, [("e", "a", "b")])
        )
        left = project_execute(project_unit(), b)
        right = project_execute(b, project_unit())
        for result in (left, right):
            assert result.wager == ExtNat(3)
            assert graphs_equal_flattened(result.graph, b.graph)

    def test_wager_accumulates_cycle_count(self):
        p = Project(ExtNat(1), Graph({"a", "b"}, [("e", "a", "b")]))
        q = Project(ExtNat(2), Graph({"a", "b"}, [("f", "b", "a")]))
        result = project_execute(p, q, DIRECTED)
        assert result.wager == ExtNat(4)
        assert result.graph.vertices == frozenset()

    def test_wager_counts_cycles_in_the_mode_asked(self):
        # two opposite 2-cycles: two directed classes, one unoriented
        p = Project(ExtNat(1), Graph({"a", "b"}, [("e", "a", "b"), ("e2", "b", "a")]))
        q = Project(ExtNat(2), Graph({"a", "b"}, [("f", "b", "a"), ("f2", "a", "b")]))
        assert project_execute(p, q, DIRECTED).wager == ExtNat(5)
        assert project_execute(p, q, UNORIENTED).wager == ExtNat(4)

    def test_infinite_cycle_set_gives_omega_wager(self):
        p = Project(ExtNat(0), Graph({"a", "b"}, [("e", "a", "b")]))
        q = Project(
            ExtNat(0), Graph({"a", "b"}, [("f1", "b", "a"), ("f2", "b", "a")])
        )
        result = project_execute(p, q, DIRECTED)
        assert result.wager == OMEGA

    def test_int_wager_coercion(self):
        p = Project(2, Graph.empty())
        assert p.wager == ExtNat(2)

    def test_bool_wager_rejected(self):
        # a bool wager would render as "wager True", which parse_project rejects
        with pytest.raises(ValueError):
            Project(True, Graph.empty())


class TestWagerAssociativity:
    def test_wager_associative_on_thousand_random_triples(self):
        from intgraphs.campaigns import random_triple, trial_rng
        from intgraphs.graph import InfinitePathSetError

        checked = 0
        for index in range(1000):
            f, g, h = random_triple(trial_rng(17, index), max_vertices=6, max_edges=6)
            p, q, r = Project(1, f), Project(2, g), Project(3, h)
            try:
                left = project_execute(project_execute(p, q), r)
                right = project_execute(p, project_execute(q, r))
            except InfinitePathSetError:
                continue
            checked += 1
            assert left.wager == right.wager
        assert checked > 500


class TestInterfaceMeasure:
    def test_glued_circle_gives_two_directed_traversals(self):
        cap = morphism(
            set(),
            {"b1", "b2"},
            [
                ("u", cod_vertex("b1"), cod_vertex("b2")),
                ("u'", cod_vertex("b2"), cod_vertex("b1")),
            ],
        )
        cup = morphism(
            {"b1", "b2"},
            set(),
            [
                ("v", dom_vertex("b1"), dom_vertex("b2")),
                ("v'", dom_vertex("b2"), dom_vertex("b1")),
            ],
        )
        assert interface_measure(cap, cup, DIRECTED) == ExtNat(2)
        assert interface_measure(cap, cup, "unoriented") == ExtNat(1)

    def test_interface_mismatch_rejected_like_int_compose(self):
        f, g = int_identity({1}), int_identity({"1"})
        with pytest.raises(InterfaceMismatchError) as composed:
            int_compose(f, g)
        for mode in (DIRECTED, "unoriented"):
            with pytest.raises(InterfaceMismatchError) as measured:
                interface_measure(f, g, mode)
            assert str(measured.value) == str(composed.value)


def _fresh(m: IntMorphism) -> IntMorphism:
    """An equal morphism whose interface views are not built yet."""
    return IntMorphism(m.dom, m.cod, m.graph)


def _edge_list(m: IntMorphism) -> list:
    return [(e.id, e.src, e.tgt) for e in m.graph.edges]


# a morphism {a, b} -> {a, b}: composable with itself, on either side
LOOP = morphism(
    {"a", "b"},
    {"a", "b"},
    [
        ("e1", dom_vertex("a"), cod_vertex("b")),
        ("e2", cod_vertex("b"), cod_vertex("a")),
        ("e3", cod_vertex("a"), dom_vertex("b")),
        ("e4", dom_vertex("b"), cod_vertex("b")),
    ],
)


class TestInterfaceViews:
    def test_repeated_renames_return_the_same_graphs(self):
        f = _fresh(LOOP)
        g = int_identity({"a", "b"})
        left, right = _interface_rename(f, g)
        again_left, again_right = _interface_rename(f, g)
        assert again_left is left
        assert again_right is right

    def test_views_equal_a_fresh_relabelling(self):
        f = _fresh(LOOP)
        left, right = _interface_rename(f, f)
        left_ref = LOOP.graph.relabel_vertices({cod_vertex(b): (_MID, b) for b in LOOP.cod})
        right_ref = LOOP.graph.relabel_vertices({dom_vertex(a): (_MID, a) for a in LOOP.dom})
        assert (left.vertices, left.edges) == (left_ref.vertices, left_ref.edges)
        assert (right.vertices, right.edges) == (right_ref.vertices, right_ref.edges)

    def test_self_composition_matches_fresh_copies(self):
        f = _fresh(LOOP)
        expected = int_compose(_fresh(LOOP), _fresh(LOOP))
        for _ in range(2):
            assert _edge_list(int_compose(f, f)) == _edge_list(expected)
            assert interface_measure(f, f) == interface_measure(_fresh(LOOP), _fresh(LOOP))

    def test_morphism_on_both_sides_matches_fresh_copies(self):
        f = morphism({"a"}, {"a", "b"}, [("f1", dom_vertex("a"), cod_vertex("a"))])
        h = morphism({"a", "b"}, {"c"}, [("h1", dom_vertex("b"), cod_vertex("c"))])
        g = _fresh(LOOP)
        left_of_h = int_compose(g, h)
        right_of_f = int_compose(f, g)
        assert _edge_list(left_of_h) == _edge_list(int_compose(_fresh(LOOP), _fresh(h)))
        assert _edge_list(right_of_f) == _edge_list(int_compose(_fresh(f), _fresh(LOOP)))
        assert left_of_h.graph.edges and right_of_f.graph.edges

    def test_filled_views_leave_equality_hash_and_repr_alone(self):
        f = _fresh(LOOP)
        before = (hash(f), repr(f))
        int_compose(f, f)
        assert {"_cod_in_mid", "_dom_in_mid"} <= set(vars(f))
        assert f == _fresh(LOOP)
        assert (hash(f), repr(f)) == before
        assert (hash(f), repr(f)) == (hash(_fresh(LOOP)), repr(_fresh(LOOP)))
