from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
from collections import Counter

import pytest

from intgraphs import functor
from intgraphs.cob0 import (
    SRC,
    Cob0Morphism,
    cob0_compose,
    cob0_enumerate,
    cob0_identity,
    cob0_morphism,
    source_point as sp,
    target_point as tp,
)
from intgraphs.functor import (
    SegmentEdgeId,
    check_faithfulness,
    check_functoriality,
    functor_bar,
    fundamental_graph,
)
from intgraphs.graph import ExtNat, Graph
from intgraphs.interaction import Project, cod_vertex, dom_vertex, int_identity


def three_strand_cobordism(circles: int) -> Cob0Morphism:
    """Three points a1,a2,a3 on the left, b1,b2,b3 on the right; segments
    a1-b3, a2-a3, b1-b2; plus free circles."""
    return cob0_morphism(
        {"a1", "a2", "a3"},
        {"b1", "b2", "b3"},
        [(sp("a1"), tp("b3")), (sp("a2"), sp("a3")), (tp("b1"), tp("b2"))],
        circles=circles,
    )


EXPECTED_SYMMETRIC_PAIRS = {
    frozenset({dom_vertex("a1"), cod_vertex("b3")}),
    frozenset({dom_vertex("a2"), dom_vertex("a3")}),
    frozenset({cod_vertex("b1"), cod_vertex("b2")}),
}


class TestFundamentalGraph:
    def test_three_strand_graph(self):
        g = fundamental_graph(three_strand_cobordism(2)).graph
        assert len(g.edges) == 6
        endpoints = {(e.src, e.tgt) for e in g.edges}
        # every segment appears as a symmetric pair of directed edges
        assert {frozenset(p) for p in endpoints} == EXPECTED_SYMMETRIC_PAIRS
        assert all((tgt, src) in endpoints for src, tgt in endpoints)

    def test_circles_are_invisible(self):
        with_circles = fundamental_graph(three_strand_cobordism(2))
        without = fundamental_graph(three_strand_cobordism(0))
        assert with_circles.graph == without.graph

    def test_empty_cobordism(self):
        g = fundamental_graph(cob0_morphism(set(), set(), [], circles=0))
        assert g.graph.vertices == frozenset()
        assert g.graph.edges == ()

    def test_no_self_loops_and_out_degree_one(self):
        for m in cob0_enumerate({"a1", "a2"}, {"b1", "b2"}, 0):
            g = fundamental_graph(m).graph
            assert all(e.src != e.tgt for e in g.edges)
            for v in g.vertices:
                assert sum(1 for e in g.edges if e.src == v) == 1


def _expected_endpoints(m: Cob0Morphism) -> Counter:
    """Both traversals of each segment, read straight off the pairs."""
    out: Counter = Counter()
    for pair in m.pairs:
        x, y = (dom_vertex(p[1]) if p[0] == SRC else cod_vertex(p[1]) for p in pair)
        out[(x, y)] += 1
        out[(y, x)] += 1
    return out


class TestImageMemo:
    """fundamental_graph builds a morphism's image once and keeps it."""

    def test_repeated_calls_return_the_same_image(self):
        m = three_strand_cobordism(1)
        image = fundamental_graph(m)
        assert fundamental_graph(m) is image

    def test_each_morphism_keeps_its_own_image(self):
        objects = [frozenset(f"p{i}" for i in range(k)) for k in range(4)]
        for a, b in itertools.product(objects, repeat=2):
            for m in cob0_enumerate(a, b, 2):
                image = fundamental_graph(m)
                assert fundamental_graph(m) is image
                fresh = Cob0Morphism(m.source, m.target, m.pairs, m.circles)
                assert fundamental_graph(fresh) == image
                # morphisms of one hom-set do not share an image
                endpoints = Counter((e.src, e.tgt) for e in image.graph.edges)
                assert endpoints == _expected_endpoints(m)

    def test_equality_hash_and_repr_ignore_the_image(self):
        m = three_strand_cobordism(2)
        before = (hash(m), repr(m))
        fundamental_graph(m)
        twin = three_strand_cobordism(2)
        assert m == twin
        assert (hash(m), repr(m)) == before == (hash(twin), repr(twin))
        assert [f.name for f in dataclasses.fields(m)] == ["source", "target", "pairs", "circles"]

    def test_replace_builds_a_new_image(self):
        m = cob0_morphism({"a1", "a2"}, {"b1", "b2"}, [(sp("a1"), tp("b1")), (sp("a2"), tp("b2"))])
        image = fundamental_graph(m)
        crossed = dataclasses.replace(
            m, pairs=frozenset({frozenset({sp("a1"), tp("b2")}), frozenset({sp("a2"), tp("b1")})})
        )
        assert fundamental_graph(crossed) != image
        assert fundamental_graph(crossed) == fundamental_graph(
            Cob0Morphism(crossed.source, crossed.target, crossed.pairs)
        )
        assert fundamental_graph(m) is image


class TestFunctorBar:
    def test_wager_records_circles(self):
        proj = functor_bar(three_strand_cobordism(2))
        assert proj.wager == ExtNat(2)
        assert functor_bar(three_strand_cobordism(0)).wager == ExtNat(0)

    def test_identity_maps_to_identity(self):
        points = {"a", "b"}
        proj = functor_bar(cob0_identity(points))
        ident = int_identity(points)
        assert proj.wager == ExtNat(0)
        assert proj.graph.vertices == ident.graph.vertices
        assert {(e.src, e.tgt) for e in proj.graph.edges} == {
            (e.src, e.tgt) for e in ident.graph.edges
        }


class TestFunctoriality:
    def test_cap_cup_composition(self):
        m = cob0_morphism(
            {"a1", "a2"},
            {"b1", "b2"},
            [(sp("a1"), sp("a2")), (tp("b1"), tp("b2"))],
        )
        n = cob0_morphism(
            {"b1", "b2"},
            {"c1", "c2"},
            [(sp("b1"), sp("b2")), (tp("c1"), tp("c2"))],
        )
        report = check_functoriality(m, n)
        assert report.passed
        assert report.details["measure_unoriented"] == "1"
        assert report.details["measure_directed"] == "2"
        assert cob0_compose(m, n).circles == 1

    def test_identity_composition_is_trivial(self):
        m = three_strand_cobordism(1)
        report = check_functoriality(m, cob0_identity(m.target))
        assert report.passed
        assert report.details["measure_unoriented"] == "0"

    def test_small_exhaustive_sample(self):
        a = {"a1"}
        b = {"b1"}
        c = {"c1"}
        for m in cob0_enumerate(a, b, 1):
            for n in cob0_enumerate(b, c, 1):
                assert check_functoriality(m, n).passed

    def test_circle_glued_through_four_points(self):
        # chain b1 -(M)- b2 -(N)- b3 -(M)- b4 -(N)- b1: one circle whose
        # directed traversals are two length-4 cycle classes
        m = cob0_morphism(
            set(),
            {"b1", "b2", "b3", "b4"},
            [(tp("b1"), tp("b2")), (tp("b3"), tp("b4"))],
        )
        n = cob0_morphism(
            {"b1", "b2", "b3", "b4"},
            set(),
            [(sp("b2"), sp("b3")), (sp("b4"), sp("b1"))],
        )
        composite = cob0_compose(m, n)
        assert composite.circles == 1
        assert composite.pairs == frozenset()
        report = check_functoriality(m, n)
        assert report.passed
        assert report.details["measure_unoriented"] == "1"
        assert report.details["measure_directed"] == "2"


    def test_failure_reports_both_endpoint_multisets(self, monkeypatch):
        # cap then cup: the composite pairs a1-a2 and c1-c2 around one
        # circle.  Plant a fault: the glued cobordism pairs across instead.
        m = cob0_morphism({"a1", "a2"}, {"b1", "b2"}, [(sp("a1"), sp("a2")), (tp("b1"), tp("b2"))])
        n = cob0_morphism({"b1", "b2"}, {"c1", "c2"}, [(sp("b1"), sp("b2")), (tp("c1"), tp("c2"))])
        crossed = cob0_morphism(
            {"a1", "a2"}, {"c1", "c2"}, [(sp("a1"), tp("c1")), (sp("a2"), tp("c2"))], circles=1
        )
        monkeypatch.setattr(functor, "cob0_compose", lambda m, n: crossed)
        report = check_functoriality(m, n)
        assert report.verdict == "FAIL"
        assert report.details["graph_equal"] is False
        pairs = lambda image: sorted((str(e.src), str(e.tgt)) for e in image.graph.edges)
        assert report.details["image_of_composite"] == pairs(fundamental_graph(crossed))
        assert report.details["composite_of_images"] == pairs(fundamental_graph(cob0_compose(m, n)))
        assert report.details["image_of_composite"] != report.details["composite_of_images"]


class TestFaithfulness:
    def test_six_points_two_circles(self):
        report = check_faithfulness({"a1", "a2", "a3"}, {"b1", "b2", "b3"}, 2)
        assert report.passed
        assert report.details["hom_size"] == 45
        assert report.details["distinct_images"] == 45
        assert report.details["plain_functor_witness"] is True

    def test_two_points_zero_circles(self):
        report = check_faithfulness({"a"}, {"b"}, 0)
        assert report.passed
        assert report.details["hom_size"] == 1

    def test_negative_circle_budget_is_rejected_not_vacuous(self):
        with pytest.raises(ValueError, match="max_circles must be an int >= 0, got -1"):
            check_faithfulness({"a"}, {"a"}, -1)

    def test_failure_names_the_first_collision(self, monkeypatch):
        # plant a fault: every morphism has the same image
        monkeypatch.setattr(functor, "functor_bar", lambda m: Project(ExtNat(0), Graph.empty()))
        report = check_faithfulness({"a"}, {"b"}, 1)
        assert report.verdict == "FAIL"
        morphism = "Cob0Morphism(source=['a'], target=['b'], pairs=[[('src', 'a'), ('tgt', 'b')]], circles={})"
        assert report.details == {
            "hom_size": 2, "distinct_images": 1, "plain_functor_witness": True,
            "first_collision": f"({morphism.format(0)}, {morphism.format(1)})",
        }

    def test_failure_when_the_plain_functor_witness_is_missing(self, monkeypatch):
        # plant a fault: every morphism has its own graph, so no two share one
        monkeypatch.setattr(functor, "functor_bar", lambda m: Project(ExtNat(0), Graph({m})))
        report = check_faithfulness({"a"}, {"b"}, 1)
        assert report.verdict == "FAIL"
        assert report.details == {
            "hom_size": 2, "distinct_images": 2, "plain_functor_witness": False,
            "error": "expected a graph-only collision witness",
        }

    def test_plain_functor_collapses_circle_counts(self):
        g2 = functor_bar(three_strand_cobordism(2))
        g0 = functor_bar(three_strand_cobordism(0))
        assert g2.graph == g0.graph
        assert g2.wager != g0.wager


def _token_by_formula(sid: SegmentEdgeId) -> str:
    tok = lambda v: f"{v[0]}.{v[1]}" if isinstance(v, tuple) and len(v) == 2 else str(v)
    return f"seg:{tok(sid.src)}>{tok(sid.tgt)}"


class TestSegmentEdgeId:
    ENDS = [
        (dom_vertex("a1"), cod_vertex(2)),
        (("d", (1, 2)), "loose"),
        (("d", "x", "y"), ("c", 1.5)),
    ]

    @pytest.mark.parametrize("rendered", [False, True], ids=["plain", "rendered"])
    @pytest.mark.parametrize("ends", ENDS)
    def test_the_kept_token_is_not_a_field(self, ends, rendered):
        sid, twin = SegmentEdgeId(*ends), SegmentEdgeId(*ends)
        if rendered:
            # the second str reads the kept token
            assert str(sid) == str(sid) == _token_by_formula(twin)
        assert sid == twin and hash(sid) == hash(twin) and repr(sid) == repr(twin)
        assert [f.name for f in dataclasses.fields(sid)] == ["src", "tgt"]
        assert dataclasses.astuple(sid) == ends
        moved = dataclasses.replace(sid, tgt=("c", "z"))
        assert moved == SegmentEdgeId(ends[0], ("c", "z"))
        assert str(moved) == _token_by_formula(moved)
        for clone in (copy.copy(sid), pickle.loads(pickle.dumps(sid))):
            assert clone == twin and hash(clone) == hash(twin) and repr(clone) == repr(twin)
            assert str(clone) == _token_by_formula(twin)
