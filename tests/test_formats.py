from __future__ import annotations

import hashlib
import itertools
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from intgraphs.bimodular import BimodularGraph, cyclic_group, klein_four_group
from intgraphs.cob0 import cob0_morphism, source_point as sp, target_point as tp
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
from intgraphs.graph import Graph, GraphError, OMEGA, ExtNat
from intgraphs.interaction import IdentityEdgeId, Project

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

    def test_unknown_directive(self):
        with pytest.raises(ParseError) as err:
            parse_graph("graph g\nwibble x\n")
        assert err.value.line == 2

    def test_round_trip(self):
        g = Graph({"a", "b", "c"}, [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "a")])
        _, parsed = parse_graph(render_graph("g", g))
        assert parsed == g


def _reference_token(edge_id):
    """The straightforward tokeniser: tuples recurse, all else is str."""
    if isinstance(edge_id, tuple):
        return ".".join(_reference_token(x) for x in edge_id)
    return str(edge_id)


def _reference_render_graph(name, graph):
    """The straightforward renderer: tokens recomputed for every use."""
    lines = [f"graph {name}"]
    for v in sorted(graph.vertices, key=vertex_token):
        lines.append(f"vertex {vertex_token(v)}")
    for e in sorted(graph.edges, key=lambda e: _reference_token(e.id)):
        token = _reference_token(e.id)
        lines.append(f"edge {token} {vertex_token(e.src)} {vertex_token(e.tgt)}")
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


class TestRenderGraphOutput:
    def test_nested_and_mixed_type_ids(self):
        graph = Graph(
            {"a", 1, "1", ("dom", "p"), ("cod", 2)},
            [
                ((("x", 1), ("1", ("y", 2.5))), "a", 1),
                (("x", None), 1, "1"),
                (3, ("dom", "p"), ("cod", 2)),
                ("3", ("cod", 2), "a"),
                ((1,), "1", "1"),
                ("1", "a", "a"),
                ((), "a", 1),
            ],
        )
        text = render_graph("mixed", graph)
        assert text == _reference_render_graph("mixed", graph)
        assert text == (
            "graph mixed\n"
            "vertex 1\nvertex 1\nvertex a\nvertex cod:2\nvertex dom:p\n"
            "edge  a 1\n"
            "edge 1 1 1\n"
            "edge 1 a a\n"
            "edge 3 dom:p cod:2\n"
            "edge 3 cod:2 a\n"
            "edge x.1.1.y.2.5 a 1\n"
            "edge x.None 1 1\n"
        )

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

    def test_round_trip(self):
        m = cob0_morphism(
            {"a1", "a2"},
            {"b1", "b2"},
            [(sp("a1"), tp("b2")), (sp("a2"), tp("b1"))],
            circles=3,
        )
        _, parsed = parse_cobordism(render_cobordism("c", m))
        assert parsed == m


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

    def test_swap_samples_compose_to_one_edge(self):
        from intgraphs.bimodular import bimod_compose2

        _, left = parse_bimodular((self.SAMPLES / "swap_left.bimod").read_text())
        _, right = parse_bimodular((self.SAMPLES / "swap_right.bimod").read_text())
        assert len(bimod_compose2(left, right).graph.edges) == 1


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
