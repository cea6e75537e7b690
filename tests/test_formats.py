from __future__ import annotations

import hashlib
import itertools
import re
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from intgraphs.bimodular import (
    BimodularGraph,
    FiniteGroup,
    bimod_compose2,
    bimod_execute,
    check_well_defined,
    cyclic_group,
    klein_four_group,
)
from intgraphs.cob0 import (
    cob0_enumerate,
    cob0_identity,
    cob0_morphism,
    source_point as sp,
    target_point as tp,
)
from intgraphs.formats import (
    ParseError,
    id_token,
    parse_bimodular,
    parse_cobordism,
    parse_graph,
    parse_project,
    render_bimodular,
    render_cobordism,
    render_graph,
    render_project,
    to_dot,
    vertex_token,
)
from intgraphs.execution import execute
from intgraphs.functor import SegmentEdgeId
from intgraphs.graph import Graph, GraphError, OMEGA, ExtNat, show_items
from intgraphs.interaction import IdentityEdgeId, Project
from test_kernel import diamond_chain

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


class TestGraphFormat:
    def test_parse_simple(self):
        name, g = parse_graph("graph g1\nvertex a\nvertex b\nedge e a b\n")
        assert name == "g1"
        assert g.vertices == {"a", "b"}
        assert [(e.id, e.src, e.tgt) for e in g.edges] == [("e", "a", "b")]

    def test_comments_and_blanks(self):
        text = "# header\n\ngraph g\nvertex a  # trailing\n"
        _, g = parse_graph(text)
        assert g.vertices == {"a"}

    def test_unknown_vertex_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_graph("graph g\nvertex a\nedge e a b\n")
        assert err.value.line == 3

    def test_duplicate_edge_reports_line(self):
        text = "graph g\nvertex a\nedge e a a\nedge e a a\n"
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert err.value.line == 4

    def test_duplicate_vertex_reports_line(self):
        with pytest.raises(ParseError, match="duplicate vertex 'a'") as err:
            parse_graph("graph g\nvertex a\nvertex b\nvertex a\n")
        assert err.value.line == 4

    def test_unknown_directive(self):
        with pytest.raises(ParseError) as err:
            parse_graph("graph g\nwibble x\n")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text, line",
        [
            ("graph\n", 1),
            ("graph g h\n", 1),
            ("graph g\nvertex a\ngraph h\n", 3),
            ("graph g\nvertex\n", 2),
            ("graph g\nvertex a b\n", 2),
            ("graph g\nvertex a\nedge e a\n", 3),
            ("graph g\nvertex a\nedge e a a a\n", 3),
            ("vertex a\n", None),  # no graph line at all
        ],
    )
    def test_malformed_line_reports_it(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_graph(text)
        assert err.value.line == line

    def test_round_trip(self):
        g = Graph({"a", "b", "c"}, [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a")])
        _, parsed = parse_graph(render_graph("g", g))
        assert parsed == g


def _reference_token(edge_id):
    """The straightforward tokeniser: tuples recurse, all else is str."""
    if isinstance(edge_id, tuple):
        return ".".join(_reference_token(x) for x in edge_id)
    return str(edge_id)


def _reference_render_graph(name, graph, token=_reference_token):
    """The straightforward renderer: tokens recomputed for every use, each
    edge's by ``token``."""
    lines = [f"graph {name}"]
    for v in sorted(graph.vertices, key=vertex_token):
        lines.append(f"vertex {vertex_token(v)}")
    for e in sorted(graph.edges, key=lambda e: token(e.id)):
        lines.append(f"edge {token(e.id)} {vertex_token(e.src)} {vertex_token(e.tgt)}")
    return "\n".join(lines) + "\n"


class Shout(str):
    """A str subclass whose str() is not its own characters."""

    def __str__(self):
        return self.upper() + "!"


_texts = st.text(alphabet="ab1.", max_size=3)
_id_parts = st.one_of(
    _texts,
    st.integers(-3, 3),
    st.none(),
    st.floats(allow_nan=False, width=16),
    _texts.map(Shout),
    st.builds(IdentityEdgeId, _texts, st.booleans()),
    st.builds(
        SegmentEdgeId,
        st.tuples(st.sampled_from(["dom", "cod"]), _texts),
        st.tuples(st.sampled_from(["dom", "cod"]), _texts),
    ),
)
edge_ids = st.recursive(
    _id_parts, lambda children: st.lists(children, max_size=4).map(tuple), max_leaves=12
)


class TestIdToken:
    @given(edge_ids)
    def test_equals_the_reference_tokeniser(self, edge_id):
        assert id_token(edge_id) == _reference_token(edge_id)

    def test_str_subclass_parts_render_through_their_str(self):
        assert id_token((Shout("a"), "b")) == "A!.b"
        assert id_token((Shout("a"), Shout("b"))) == "A!.B!"
        assert id_token(("a", (Shout("b"),))) == "a.B!"


Pair = namedtuple("Pair", "x y")


class TestEdgeTokenScan:
    """`render_graph` types the parts of all edge ids of a graph at once;
    its text must equal the one that tokenises edge by edge with
    `id_token`."""

    @pytest.mark.parametrize(
        "edges",
        [
            # "a" and Shout("a") are equal parts that print apart
            [(("a", "b"), "p", "q"), ((Shout("a"), "c"), "p", "q")],
            [(("a", "b"), "p", "q"), ("c", "p", "q"), (1, "q", "p"), (("d",), "q", "q")],
            [(("a", ("b", "c")), "p", "q"), ((("d",), "e"), "q", "p"), (("f", "g"), "p", "p")],
            [(Pair("a", "b"), "p", "q"), (("c", "d"), "p", "q")],
        ],
        ids=["str-subclass", "tuple-and-not", "nested", "namedtuple"],
    )
    def test_equals_the_text_tokenised_edge_by_edge(self, edges):
        graph = Graph({"p", "q"}, edges)
        assert render_graph("g", graph) == _reference_render_graph("g", graph, id_token)

    def test_a_str_subclass_part_renders_through_its_str(self):
        graph = Graph({"p", "q"}, [(("a", "b"), "p", "q"), ((Shout("a"), "c"), "p", "q")])
        assert render_graph("g", graph).endswith("edge A!.c p q\nedge a.b p q\n")

    def test_executed_diamond_chains(self):
        # flat ids of plain strs only: every token comes from the one scan
        for k in range(12):
            result = execute(*diamond_chain(2, k))
            assert len(result.edges) == 2 ** (k + 1)
            text = render_graph("result", result)
            assert text == _reference_render_graph("result", result, id_token)


class TestRenderGraphOutput:
    def test_nested_and_mixed_type_ids(self):
        graph = Graph(
            {"a", 1, "b", ("dom", "p"), ("cod", 2)},
            [
                ((("x", 1), ("1", ("y", 2.5))), "a", 1),
                (("x", None), 1, "b"),
                (3, ("dom", "p"), ("cod", 2)),
                ("2", ("cod", 2), "a"),
                ((1,), "b", "b"),
                ("10", "a", "a"),
                (((), "z"), "a", 1),
            ],
        )
        text = render_graph("mixed", graph)
        assert text == _reference_render_graph("mixed", graph)
        assert text == (
            "graph mixed\n"
            "vertex 1\nvertex a\nvertex b\nvertex cod:2\nvertex dom:p\n"
            "edge .z a 1\n"
            "edge 1 b b\n"
            "edge 10 a a\n"
            "edge 2 cod:2 a\n"
            "edge 3 dom:p cod:2\n"
            "edge x.1.1.y.2.5 a 1\n"
            "edge x.None 1 b\n"
        )

    def test_edges_that_print_alike_are_rejected(self):
        # written as two "edge 1 a a" lines, they would not parse back
        graph = Graph({"a"}, [(1, "a", "a"), ("1", "a", "a")])
        for render in (render_graph, to_dot):
            with pytest.raises(GraphError, match=r"edges \[1, '1'\] would all be written 1$"):
                render("g", graph)
        bg = BimodularGraph(graph, groups={"a": cyclic_group(2)})
        with pytest.raises(GraphError, match=r"edges \[1, '1'\] would all be written 1$"):
            render_bimodular("b", bg)
        # of two tokens shared, the least is named, whatever the edge order
        edges = [((1,), "a", "a"), ("3", "a", "a"), (3, "a", "a"), ("1", "a", "a")]
        for order in (edges, edges[::-1]):
            with pytest.raises(GraphError, match=r"edges \[\(1,\), '1'\] would all be written 1$"):
                render_graph("g", Graph({"a"}, order))

    @pytest.mark.parametrize("vertex", ["a#b", "a b", " a", "a\t", "", "a\u2028b", "#"])
    def test_vertices_the_parser_would_split_are_rejected(self, vertex):
        # "vertex a#b" would read back as vertex a
        graph = Graph({vertex, "c"}, [("e", "c", vertex)])
        with pytest.raises(GraphError, match="would not read back"):
            render_graph("g", graph)
        # DOT quotes vertex names as it quotes edge labels; each token
        # sorts before "c"
        node = '"' + vertex + '"'
        assert to_dot("g", graph) == (
            f'digraph "g" {{\n  {node};\n  "c";\n  "c" -> {node} [label="e"];\n}}\n'
        )

    @pytest.mark.parametrize(
        "edge_id", ["x b a#", (), "a b", " a", "a\t", "a\u2028b", "#", ("",), ("a", "b c")]
    )
    def test_edges_the_parser_would_split_are_rejected(self, edge_id):
        # "edge x b a# a b" would read back as an edge x from b to a, and
        # "edge  a b" (the id () prints empty) would not parse at all
        graph = Graph({"a", "b"}, [("e", "a", "b"), (edge_id, "a", "b")])
        message = rf"^edges \[{re.escape(repr(edge_id))}\] would not read back"
        with pytest.raises(GraphError, match=message):
            render_graph("g", graph)
        with pytest.raises(GraphError, match=message):
            render_bimodular("b", BimodularGraph(graph, groups={"a": cyclic_group(2)}))

    def test_a_token_that_would_not_read_back_is_named_before_tokens_alike(self):
        # both vertices print "dom:a b"; every kind of token checks reading
        # back first
        graph = Graph({("dom", "a b"), "dom:a b"})
        vertices = r"^vertices \[\('dom', 'a b'\), 'dom:a b'\]"
        with pytest.raises(GraphError, match=vertices + " would not read back"):
            render_graph("g", graph)
        # DOT quotes its tokens, so it checks only that they print apart
        with pytest.raises(GraphError, match=vertices + " would all be written dom:a b$"):
            to_dot("g", graph)

    def test_vertices_that_print_alike_are_rejected(self):
        # written as two "vertex 1" lines, they would read back as one
        graph = Graph({1, "1", "a"}, [("e", 1, "1")])
        with pytest.raises(GraphError, match=r"vertices \[1, '1'\] would all be written 1$"):
            render_graph("g", graph)
        bg = BimodularGraph(graph, groups={1: cyclic_group(2)})
        with pytest.raises(GraphError, match=r"vertices \[1, '1'\] would all be written 1$"):
            render_bimodular("b", bg)

    def test_executed_diamond_chain_is_unchanged(self):
        # width 2, k = 9: 1,024 paths whose flat ids are ten plain strings;
        # the digest was recorded before flat ids were rendered with one join
        sides = ([], [])
        for step in range(10):
            for i in range(2):
                eid = f"{'fg'[step % 2]}{step}_{i}"
                sides[step % 2].append((eid, f"v{step}", f"v{step + 1}"))
        f, g = (Graph({v for _, s, t in es for v in (s, t)}, es) for es in sides)
        text = render_graph("result", execute(f, g))
        assert text.count("\nedge ") == 1024
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a4d994e62bff3febd002b62e2864c1a72b93a050f55fcd4734b57e928ccb6a5e"
        )

    def test_samples_and_their_executions(self):
        graphs = {
            path.stem: parse_graph(path.read_text())[1]
            for path in sorted(SAMPLES.glob("*.graph"))
        }
        assert graphs
        for name, graph in graphs.items():
            assert render_graph(name, graph) == _reference_render_graph(name, graph)
        for f, g in itertools.product(graphs.values(), repeat=2):
            try:
                result = execute(f, g)
            except GraphError:
                continue
            assert render_graph("r", result) == _reference_render_graph("r", result)


class TestProjectFormat:
    def test_parse_with_wager(self):
        _, p = parse_project("graph g\nvertex a\nwager 3\n")
        assert p.wager == ExtNat(3)

    def test_parse_omega(self):
        _, p = parse_project("graph g\nwager omega\n")
        assert p.wager == OMEGA

    def test_default_wager_is_zero(self):
        _, p = parse_project("graph g\nvertex a\n")
        assert p.wager == ExtNat(0)

    @pytest.mark.parametrize("wager", ["²", "٣", "-1", "1.5"])
    def test_wager_must_be_ascii_digits(self, wager):
        with pytest.raises(ParseError) as err:
            parse_project(f"graph g\nvertex a\nwager {wager}\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("wagers", ["wager", "wager 1 2", "wager 1\nwager 1"])
    def test_malformed_wager_reports_line(self, wagers):
        with pytest.raises(ParseError) as err:
            parse_project(f"graph g\nvertex a\n{wagers}\n")
        assert err.value.line == 3 + wagers.count("\n")

    def test_round_trip(self):
        project = Project(ExtNat(5), Graph({"a"}, [("e", "a", "a")]))
        _, parsed = parse_project(render_project("p", project))
        assert parsed.wager == project.wager
        assert parsed.graph == project.graph


class TestCobordismFormat:
    def test_parse_with_prefixes_and_bare_labels(self):
        text = (
            "cob c\nleft a1 a2\nright b1 b2\n"
            "pair a1 a2\npair L:b1 R:b2\n"
        )
        # b1/b2 appear only on the right, so L:b1 is an error; fix to R:
        with pytest.raises(ParseError):
            parse_cobordism(text)
        text = "cob c\nleft a1 a2\nright b1 b2\npair a1 a2\npair b1 b2\ncircles 1\n"
        _, m = parse_cobordism(text)
        assert m.circles == 1
        assert frozenset({sp("a1"), sp("a2")}) in m.pairs

    def test_ambiguous_label_needs_prefix(self):
        text = "cob c\nleft x\nright x\npair x x\n"
        with pytest.raises(ParseError) as err:
            parse_cobordism(text)
        assert "ambiguous" in str(err.value)
        _, m = parse_cobordism("cob c\nleft x\nright x\npair L:x R:x\n")
        assert m.mate(sp("x")) == tp("x")

    @pytest.mark.parametrize("circles", ["²", "٣", "-1", "1.5"])
    def test_circles_must_be_ascii_digits(self, circles):
        text = f"cob c\nleft a\nright b\npair a b\ncircles {circles}\n"
        with pytest.raises(ParseError) as err:
            parse_cobordism(text)
        assert err.value.line == 5

    def test_incomplete_matching_rejected(self):
        with pytest.raises(ParseError):
            parse_cobordism("cob c\nleft a1 a2\nright b1 b2\npair a1 a2\n")

    def test_second_cob_line_reports_line(self):
        with pytest.raises(ParseError, match="duplicate cob") as err:
            parse_cobordism("cob c\nleft a\nright b\ncob d\npair a b\n")
        assert err.value.line == 4

    @pytest.mark.parametrize("first, second", [(1, 2), (0, 0)])
    def test_second_circles_line_reports_line(self, first, second):
        text = f"cob c\nleft a\nright b\ncircles {first}\npair a b\ncircles {second}\n"
        with pytest.raises(ParseError, match="^line 6: duplicate circles declaration$") as err:
            parse_cobordism(text)
        assert err.value.line == 6

    def test_repeated_pair_reports_line(self):
        with pytest.raises(ParseError, match="already paired on line 4") as err:
            parse_cobordism("cob c\nleft a\nright b\npair a b\npair a b\n")
        assert err.value.line == 5

    def test_pair_joining_a_point_to_itself_reports_line(self):
        with pytest.raises(ParseError, match="to itself") as err:
            parse_cobordism("cob c\nleft a b\npair a a\npair a b\n")
        assert err.value.line == 3

    def test_point_in_two_pairs_reports_line(self):
        text = "cob c\nleft a1 a2\nright b1 b2\npair a1 b1\npair b2 a2\npair b1 a2\n"
        with pytest.raises(ParseError, match="R:b1 is already paired on line 4") as err:
            parse_cobordism(text)
        assert err.value.line == 6

    @pytest.mark.parametrize(
        "boundary, line, message",
        [
            ("left a a\nright b\n", 2, "duplicate left point 'a'"),
            ("left a\nright b\nleft c a\n", 4, "duplicate left point 'a'"),
            ("right b\nleft a\nright b\n", 4, "duplicate right point 'b'"),
        ],
    )
    def test_repeated_label_on_one_side_reports_line(self, boundary, line, message):
        with pytest.raises(ParseError, match=message) as err:
            parse_cobordism(f"cob c\n{boundary}pair a b\n")
        assert err.value.line == line

    @pytest.mark.parametrize(
        "text, line",
        [
            ("cob\n", 1),
            ("cob c d\n", 1),
            ("cob c\nleft a\nright b\npair a R:z\n", 4),
            ("cob c\nleft a\nright b\npair a z\n", 4),
            ("cob c\nleft a\nright b\npair a\n", 4),
            ("cob c\nleft a\nright b\npair a b c\n", 4),
            ("cob c\nleft a\nright b\nwibble\npair a b\n", 4),
            ("left a\nright b\npair a b\n", None),  # no cob line at all
        ],
    )
    def test_malformed_line_reports_it(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_cobordism(text)
        assert err.value.line == line

    def test_labels_may_spread_over_several_lines(self):
        text = "cob c\nleft a1\nleft a2\nright a1\nright b\npair L:a1 a2\npair R:a1 b\n"
        _, m = parse_cobordism(text)
        assert m.source == {"a1", "a2"} and m.target == {"a1", "b"}

    def test_round_trip(self):
        morphisms = cob0_enumerate({"a1", "a2"}, {"b1", "b2"}, max_circles=3)
        assert cob0_morphism(
            {"a1", "a2"},
            {"b1", "b2"},
            [(sp("a1"), tp("b2")), (sp("a2"), tp("b1"))],
            circles=3,
        ) in morphisms
        for m in morphisms:
            assert parse_cobordism(render_cobordism("c", m)) == ("c", m)

    @pytest.mark.parametrize("labels", [["a b"], [1, "1"], ["x#y"], [""]])
    def test_labels_the_parser_would_not_read_back_are_rejected(self, labels):
        # "left a b" reads back as two points; "left 1 1" as a repeated one
        with pytest.raises(GraphError, match=rf"^left labels {re.escape(show_items(labels))} "):
            render_cobordism("M", cob0_identity(labels))


class TestBimodularFormat:
    def test_parse_cyclic_group_and_action(self):
        text = (
            "graph b\nvertex v\nvertex m\nedge e1 v m\nedge e2 v m\n"
            "group m cyclic:2\nraction v m 1 e2 e1\n"
        )
        _, bg = parse_bimodular(text)
        assert bg.groups["m"] == cyclic_group(2)
        assert bg.right[("v", "m")]["1"] == {"e1": "e2", "e2": "e1"}

    def test_parse_table_group(self):
        text = (
            "graph b\nvertex v\nvertex w\nedge e v w\n"
            "group v table e,a;a,e\n"
        )
        _, bg = parse_bimodular(text)
        assert bg.groups["v"].order == 2

    @pytest.mark.parametrize("name", ["a b", "a,b", "a;b", "a#b", "", "a\nb"])
    def test_element_names_the_parser_would_split_are_rejected(self, name):
        # "group m table e,a b;a b,e" would not parse
        grp = FiniteGroup("t", ["e", name], {
            ("e", "e"): "e", ("e", name): name, (name, "e"): name, (name, name): "e",
        })
        bg = BimodularGraph(Graph({"v", "m"}, [("e1", "v", "m")]), {"m": grp})
        with pytest.raises(GraphError, match=r"group elements \[.*\] at vertex m would not read back"):
            render_bimodular("b", bg)

    @pytest.mark.parametrize("other", [1, "a"])
    def test_elements_are_written_by_their_str(self, other):
        # FiniteGroup takes any elements; the text names each by its str
        grp = FiniteGroup("t", [0, other], {
            (0, 0): 0, (0, other): other, (other, 0): other, (other, other): 0,
        })
        graph = Graph({"v", "m"}, [("e1", "v", "m"), ("e2", "v", "m")])
        swap = {"e1": "e2", "e2": "e1"}
        bg = BimodularGraph(graph, {"v": grp, "m": grp}, {("v", "m"): {other: swap}},
                            {("v", "m"): {other: swap}})
        text = render_bimodular("b", bg)
        assert f"group m table 0,{other};{other},0\n" in text
        assert f"raction v m {other} e2 e1\n" in text
        _, parsed = parse_bimodular(text)
        names = {(str(a), str(b)): str(c) for (a, b), c in grp.table.items()}
        assert parsed.groups["v"].table == parsed.groups["m"].table == names
        assert parsed.left[("v", "m")][str(other)] == parsed.right[("v", "m")][str(other)] == swap

    def test_elements_that_print_alike_are_rejected(self):
        grp = FiniteGroup("t", [1, "1"], {(1, 1): 1, (1, "1"): "1", ("1", 1): "1", ("1", "1"): 1})
        bg = BimodularGraph(Graph({"v", "m"}, [("e1", "v", "m")]), {"m": grp})
        message = r"^group elements \[1, '1'\] at vertex m would all be written 1$"
        with pytest.raises(GraphError, match=message):
            render_bimodular("b", bg)

    def test_klein_table_round_trip(self):
        graph = Graph({"v", "m"}, [(f"e{i}", "v", "m") for i in range(1, 5)])
        v4 = klein_four_group()
        perm_of = {
            x: {f"e{i+1}": f"e{v4.elements.index(v4.mul(v4.elements[i], x)) + 1}"
                for i in range(4)}
            for x in v4.elements
        }
        bg = BimodularGraph(graph, {"m": v4}, {}, {("v", "m"): perm_of})
        _, parsed = parse_bimodular(render_bimodular("b", bg))
        assert parsed.groups["m"] == v4
        assert parsed.right[("v", "m")] == bg.right[("v", "m")]

    def test_wrong_image_count_reports_line(self):
        text = (
            "graph b\nvertex v\nvertex m\nedge e1 v m\nedge e2 v m\n"
            "group m cyclic:2\nraction v m 1 e2\n"
        )
        with pytest.raises(ParseError) as err:
            parse_bimodular(text)
        assert err.value.line == 7

    def test_table_group_round_trips_with_identity_listed_anywhere(self):
        # the identity of this relabelled cyclic group is "0", listed second
        grp = FiniteGroup("t", ["1", "0", "2"], cyclic_group(3).table)
        bg = BimodularGraph(Graph({"v", "w"}, [("e", "v", "w")]), {"v": grp})
        _, parsed = parse_bimodular(render_bimodular("b", bg))
        assert parsed.groups["v"] == grp

    def test_relabelled_cyclic_group_round_trips(self):
        # named like cyclic_group(2) but on other elements: written as a table
        z2 = cyclic_group(2)
        relabel = {"0": "e", "1": "a"}
        grp = FiniteGroup(
            "cyclic:2", ["e", "a"],
            {(relabel[x], relabel[y]): relabel[z] for (x, y), z in z2.table.items()},
        )
        graph = Graph({"v", "m"}, [("e1", "v", "m"), ("e2", "v", "m")])
        right = {("v", "m"): {"a": {"e1": "e2", "e2": "e1"}}}
        bg = BimodularGraph(graph, {"v": z2, "m": grp}, {}, right)
        text = render_bimodular("b", bg)
        assert "group m table e,a;a,e" in text and "group v cyclic:2" in text
        _, parsed = parse_bimodular(text)
        assert parsed.groups == bg.groups
        assert parsed.right == bg.right

    @pytest.mark.parametrize("desc", ["cyclic:0", "cyclic:x", "cyclic:٣"])
    def test_bad_cyclic_descriptor_reports_line(self, desc):
        text = f"graph b\nvertex v\ngroup v {desc}\n"
        with pytest.raises(ParseError, match="bad cyclic group") as err:
            parse_bimodular(text)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "group, message",
        [
            ("group v", "expects <vertex> <descriptor>"),
            ("group z cyclic:2", "unknown vertex 'z'"),
            ("group v table", "one row-list argument"),
            ("group v table e,a;a,e e", "one row-list argument"),
            ("group v table e,a", "must be square"),
            ("group v table e,a;a", "must be square"),
            ("group v table e,a;a,a", "not a group"),
            ("group v klein", "cyclic:<k> or table <rows>"),
        ],
    )
    def test_bad_group_line_reports_it(self, group, message):
        with pytest.raises(ParseError, match=message) as err:
            parse_bimodular(f"graph b\nvertex v\n{group}\n")
        assert err.value.line == 3

    def test_group_line_may_follow_the_action_line(self):
        text = (
            "graph b\nvertex v\nvertex m\nedge e1 v m\nedge e2 v m\n"
            "raction v m 1 e2 e1\ngroup m cyclic:2\n"
        )
        _, bg = parse_bimodular(text)
        assert bg.right[("v", "m")]["1"] == {"e1": "e2", "e2": "e1"}

    @pytest.mark.parametrize(
        "action",
        [
            "raction v m 7 e2 e1",  # cyclic:2 at m has no element 7
            "laction v m 1 e2 e1",  # v has the trivial group
            "raction v m 1 e1 e1",  # not a permutation
            "raction v m 1 e1 e3",  # not the edges from v to m
            "raction v m 0 e2 e1",  # the identity must act trivially
            "raction v m",  # no element and no images
            "raction m v 1 e1 e2",  # no edges from m to v
        ],
        ids=[
            "foreign-element", "trivial-group", "repeated-image", "foreign-image", "identity",
            "too-few-arguments", "no-edges",
        ],
    )
    def test_action_error_decided_by_one_line_reports_it(self, action):
        text = (
            "graph b\nvertex v\nvertex m\nedge e1 v m\nedge e2 v m\n"
            f"{action}\ngroup m cyclic:2\n"
        )
        with pytest.raises(ParseError) as err:
            parse_bimodular(text)
        assert err.value.line == 6

    def test_element_outside_the_group_rejected(self):
        text = (
            "graph b\nvertex v\nvertex m\nedge e1 v m\nedge e2 v m\n"
            "group m cyclic:2\nraction v m 7 e2 e1\n"
        )
        with pytest.raises(ParseError, match="not an element"):
            parse_bimodular(text)

    def test_duplicate_group_reports_line(self):
        text = (
            "graph b\nvertex v\nvertex m\nedge e1 v m\n"
            "group m cyclic:2\ngroup m cyclic:3\n"
        )
        with pytest.raises(ParseError, match="duplicate") as err:
            parse_bimodular(text)
        assert err.value.line == 6

    @pytest.mark.parametrize("directive", ["laction", "raction"])
    def test_duplicate_action_reports_line(self, directive):
        text = (
            "graph b\nvertex v\nvertex m\nedge e1 v m\nedge e2 v m\n"
            "group v cyclic:2\ngroup m cyclic:2\n"
            f"{directive} v m 1 e2 e1\n{directive} v m 1 e1 e2\n"
        )
        with pytest.raises(ParseError, match="duplicate") as err:
            parse_bimodular(text)
        assert err.value.line == 9

    def test_laction_and_raction_of_one_element_are_distinct(self):
        text = (
            "graph b\nvertex v\nvertex m\nedge e1 v m\nedge e2 v m\n"
            "group v cyclic:2\ngroup m cyclic:2\n"
            "laction v m 1 e2 e1\nraction v m 1 e2 e1\n"
        )
        _, bg = parse_bimodular(text)
        assert bg.left[("v", "m")]["1"] == bg.right[("v", "m")]["1"] == {"e1": "e2", "e2": "e1"}

    def test_invalid_action_rejected(self):
        text = (
            "graph b\nvertex v\nvertex m\nedge e1 v m\nedge e2 v m\n"
            "group m cyclic:3\nraction v m 1 e2 e1\n"
        )
        # an order-2 swap is not an action of cyclic:3
        with pytest.raises(ParseError):
            parse_bimodular(text)


class TestSampleFiles:
    SAMPLES = Path(__file__).resolve().parent.parent / "samples"

    def test_every_sample_parses(self):
        parsers = {".graph": parse_graph, ".cob": parse_cobordism, ".bimod": parse_bimodular}
        seen = 0
        for path in sorted(self.SAMPLES.iterdir()):
            parse = parsers.get(path.suffix)
            assert parse is not None, f"unknown sample type {path.name}"
            parse(path.read_text())
            seen += 1
        assert seen >= 8

    def _swap_samples(self):
        return [
            parse_bimodular((self.SAMPLES / f"swap_{side}.bimod").read_text())[1]
            for side in ("left", "right")
        ]

    def test_swap_samples_compose_to_one_edge(self):
        # the middle group swaps e1 and e2, so e1.f and e2.f are one orbit
        left, right = self._swap_samples()
        for op in (bimod_compose2, bimod_execute):
            result = op(left, right)
            assert [(e.id, e.src, e.tgt) for e in result.graph.edges] == [(("e1", "f"), "v", "w")]
            assert result.graph.vertices == {"v", "w"}

    def test_swap_samples_are_well_defined_and_read_back(self):
        left, right = self._swap_samples()
        report = check_well_defined(left, right)
        assert report.passed and report.details["paths"] == 2
        for bg in (left, right):
            _, back = parse_bimodular(render_bimodular("swap", bg))
            assert back.graph == bg.graph and back.groups == bg.groups
            assert (back.left, back.right) == (bg.left, bg.right)


@pytest.mark.parametrize("name", ["a#b", "my graph", ""])
@pytest.mark.parametrize(
    "render, value",
    [
        (render_graph, Graph({"a"})),
        (render_project, Project(ExtNat(1), Graph({"a"}))),
        (render_bimodular, BimodularGraph(Graph({"a"}), {"a": cyclic_group(2)})),
        (render_cobordism, cob0_identity(["a"])),
    ],
)
def test_block_names_that_would_not_read_back_are_rejected(render, value, name):
    # "graph a#b" would read back as a graph named a
    with pytest.raises(GraphError, match=rf"^(graph|cob) names {re.escape(repr([name]))} would not"):
        render(name, value)
    # DOT quotes the name
    if isinstance(value, Graph):
        assert to_dot(name, value).startswith(f'digraph "{name}" {{')


class TestDot:
    def test_symmetric_pair_collapses(self):
        g = Graph({"a", "b"}, [("e", "a", "b"), ("f", "b", "a")])
        dot = to_dot("g", g)
        assert dot.count("->") == 1
        assert "dir=both" in dot

    def test_plain_edge(self):
        g = Graph({"a", "b"}, [("e", "a", "b")])
        dot = to_dot("g", g)
        assert '"a" -> "b"' in dot
        assert "dir=both" not in dot

    def test_vertices_that_print_alike_are_rejected(self):
        # as DOT nodes both would be "1", one node with a self-loop
        graph = Graph({1, "1", ("dom", "p"), "dom:p"}, [("e", 1, "1")])
        with pytest.raises(GraphError, match=r"vertices \[1, '1'\] would all be written 1$"):
            to_dot("g", graph)

    def test_quotes_and_backslashes_are_escaped(self):
        v, w = 'a"b', "c\\"
        g = Graph({v, w}, [('e"', v, w), ("f\\", w, v), ('x"\\', w, w)])
        dot = to_dot('n"', g)
        quoted = re.compile(r'"(?:[^"\\]|\\.)*"')
        # every quote opens or closes one well-formed quoted string
        assert '"' not in quoted.sub("", dot)
        tokens = [re.sub(r"\\(.)", r"\1", q[1:-1]) for q in quoted.findall(dot)]
        assert tokens == ['n"', v, w, v, w, 'e" / f\\', w, w, 'x"\\']
