from __future__ import annotations

import copy
import itertools
import pickle
import random
from pathlib import Path

import pytest

from intgraphs import bimodular
from intgraphs.bimodular import (
    BimodularGraph,
    FiniteGroup,
    IncompatibleActionsError,
    IncompatibleGroupsError,
    OrbitCapExceededError,
    bimod_compose2,
    bimod_execute,
    check_well_defined,
    cyclic_group,
    direct_product,
    klein_four_group,
    symmetric_group,
    trivial_group,
)
from intgraphs.campaigns import random_bimodular_pair, trial_rng
from intgraphs.execution import PreconditionViolationError, execute, graphs_equal_flattened
from intgraphs.formats import parse_bimodular
from intgraphs.graph import Graph, GraphError, InfinitePathSetError

from oracle import oracle_bimod_quotient


class TestFiniteGroup:
    def test_cyclic(self):
        z3 = cyclic_group(3)
        assert z3.order == 3
        assert z3.identity == "0"
        assert z3.mul("1", "2") == "0"
        assert z3.inv("1") == "2"

    def test_cyclic_groups_are_built_once_per_order(self):
        assert cyclic_group(3) is cyclic_group(3)
        assert trivial_group() is cyclic_group(1)
        assert cyclic_group(2) is not cyclic_group(4)
        with pytest.raises(ValueError):
            cyclic_group(0)

    def test_equal_tables_are_equal_groups_whatever_the_name(self):
        table = {(a, b): str((int(a) + int(b)) % 2) for a in "01" for b in "01"}
        z2 = FiniteGroup("other", ["1", "0"], table)
        assert z2 == cyclic_group(2) and hash(z2) == hash(cyclic_group(2))
        assert {z2, cyclic_group(2), cyclic_group(3)} == {cyclic_group(2), cyclic_group(3)}
        assert z2.__eq__("z2") is NotImplemented
        assert z2 != "z2" and z2 != cyclic_group(4)

    def test_symmetric(self):
        s3 = symmetric_group(3)
        assert s3.order == 6
        assert s3.mul("102", "102") == "012"

    def test_klein_four(self):
        v4 = klein_four_group()
        assert v4.order == 4
        assert v4.mul("a", "b") == "c"
        assert all(v4.mul(x, x) == "e" for x in v4.elements)

    def test_direct_product(self):
        z2z2 = direct_product(cyclic_group(2), cyclic_group(2))
        assert z2z2.order == 4
        assert z2z2.mul("1|0", "0|1") == "1|1"

    def test_direct_product_of_int_element_groups(self):
        z2 = FiniteGroup("z2", [0, 1], {(a, b): (a + b) % 2 for a in (0, 1) for b in (0, 1)})
        product = direct_product(z2, z2)
        assert product.elements == ("0|0", "0|1", "1|0", "1|1")
        assert product.mul("1|0", "1|1") == "0|1"

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_symmetric_group_composes_right_to_left(self, n):
        perms = list(itertools.permutations(range(n)))
        name = lambda p: "".join(map(str, p))
        sym = symmetric_group(n)
        assert sym.elements == tuple(map(name, perms))
        assert sym.identity == name(range(n))
        for p, q in itertools.product(perms, repeat=2):
            # (p q)(i) = p(q(i))
            assert sym.mul(name(p), name(q)) == name([p[q[i]] for i in range(n)])

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_cyclic_group_table(self, k):
        zk = cyclic_group(k)
        assert zk.name == f"cyclic:{k}"
        assert zk.elements == tuple(map(str, range(k)))
        assert zk.table == {(str(a), str(b)): str((a + b) % k) for a in range(k) for b in range(k)}

    def test_klein_four_table(self):
        v4 = klein_four_group()
        assert (v4.name, v4.elements, v4.identity) == ("klein", ("e", "a", "b", "c"), "e")
        assert [v4.mul("a", x) for x in v4.elements] == ["a", "e", "c", "b"]

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            FiniteGroup("bad", ["e", "x"], {("e", "e"): "e", ("e", "x"): "x",
                                            ("x", "e"): "x", ("x", "x"): "x"})

    @pytest.mark.parametrize(
        "elements, table, message",
        [
            (["e", "e"], {("e", "e"): "e"}, "distinct"),
            (["e", "x"], {("e", "e"): "e", ("e", "x"): "x", ("x", "e"): "x"}, "not closed"),
            # x.y = x and y.x = y for all x, y: associative, with no identity
            (["a", "b"], {(x, y): x for x in "ab" for y in "ab"}, "no identity"),
            # a loop: e is the identity and every element is its own
            # inverse, but (a.a).b = b while a.(a.b) = a.c = a
            (list("eabc"),
             {**{("e", x): x for x in "eabc"}, **{(x, "e"): x for x in "eabc"},
              **{(x, x): "e" for x in "abc"},
              ("a", "b"): "c", ("b", "a"): "c", ("a", "c"): "a", ("c", "a"): "b",
              ("b", "c"): "a", ("c", "b"): "a"},
             "not associative"),
        ],
        ids=["repeated-element", "table-not-closed", "no-identity", "not-associative"],
    )
    def test_each_axiom_is_checked(self, elements, table, message):
        with pytest.raises(ValueError, match=message):
            FiniteGroup("bad", elements, table)

    def test_symmetric_group_needs_a_positive_degree(self):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            symmetric_group(0)


def swap_example():
    """Two parallel edges v -> v' swapped by the right action of the middle
    cyclic-2 group, against a single edge v' -> v'' with the trivial action."""
    f_graph = Graph({"v", "m"}, [("e1", "v", "m"), ("e2", "v", "m")])
    g_graph = Graph({"m", "w"}, [("f", "m", "w")])
    z2 = cyclic_group(2)
    f = BimodularGraph(
        f_graph,
        groups={"m": z2},
        right={("v", "m"): {"1": {"e1": "e2", "e2": "e1"}}},
    )
    g = BimodularGraph(g_graph, groups={"m": z2})
    return f, g


class TestBimodularGraphValidation:
    def test_default_actions_are_trivial(self):
        bg = BimodularGraph(Graph({"a", "b"}, [("e", "a", "b")]))
        assert all(grp.is_trivial() for grp in bg.groups.values())
        assert bg.left[("a", "b")]["0"] == {"e": "e"}
        assert repr(bg) == "BimodularGraph(Graph(2 vertices, 1 edges))"

    def test_non_permutation_rejected(self):
        graph = Graph({"a", "b"}, [("e1", "a", "b"), ("e2", "a", "b")])
        with pytest.raises(IncompatibleActionsError):
            BimodularGraph(
                graph,
                groups={"a": cyclic_group(2)},
                left={("a", "b"): {"1": {"e1": "e1", "e2": "e1"}}},
            )

    def test_non_homomorphism_rejected(self):
        graph = Graph({"a", "b"}, [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "a", "b")])
        # order-3 swap of two edges is not an action of cyclic(3)
        with pytest.raises(IncompatibleActionsError):
            BimodularGraph(
                graph,
                groups={"a": cyclic_group(3)},
                left={("a", "b"): {"1": {"e1": "e2", "e2": "e1", "e3": "e3"}}},
            )

    def test_noncommuting_actions_rejected(self):
        graph = Graph(
            {"a", "b"},
            [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "a", "b")],
        )
        # two transpositions with a common point do not commute
        with pytest.raises(IncompatibleActionsError):
            BimodularGraph(
                graph,
                groups={"a": cyclic_group(2), "b": cyclic_group(2)},
                left={("a", "b"): {"1": {"e1": "e2", "e2": "e1", "e3": "e3"}}},
                right={("a", "b"): {"1": {"e1": "e1", "e2": "e3", "e3": "e2"}}},
            )

    def test_identity_must_act_trivially(self):
        graph = Graph({"a", "b"}, [("e1", "a", "b"), ("e2", "a", "b")])
        with pytest.raises(IncompatibleActionsError, match="identity must act trivially"):
            BimodularGraph(
                graph,
                groups={"a": cyclic_group(2)},
                left={("a", "b"): {"0": {"e1": "e2", "e2": "e1"}}},
            )

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_action_on_a_pair_with_no_edges_rejected(self, side):
        graph = Graph({"a", "b"}, [("e", "a", "b")])
        with pytest.raises(IncompatibleActionsError, match="with no edges"):
            BimodularGraph(graph, **{side: {("b", "a"): {"0": {}}}})

    def test_group_on_unknown_vertex_rejected(self):
        with pytest.raises(IncompatibleGroupsError):
            BimodularGraph(Graph({"a"}), groups={"z": cyclic_group(2)})

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_element_outside_the_group_rejected(self, side):
        graph = Graph({"a", "b"}, [("e1", "a", "b"), ("e2", "a", "b")])
        with pytest.raises(IncompatibleActionsError, match="not an element"):
            BimodularGraph(
                graph,
                groups={"a": cyclic_group(2), "b": cyclic_group(2)},
                **{side: {("a", "b"): {"7": {"e1": "e2", "e2": "e1"}}}},
            )

    @pytest.mark.parametrize("regular", ["left", "right"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_regular_action_of_s3_is_an_action_on_its_own_side_only(self, regular, side):
        # S3 is not abelian, so g.x and x.g compose in opposite orders:
        # each regular table passes the homomorphism law on one side only
        s3 = symmetric_group(3)
        graph = Graph({"v", "w"}, [(f"e{x}", "v", "w") for x in s3.elements])
        table = {
            g: {
                f"e{x}": f"e{s3.mul(g, x) if regular == 'left' else s3.mul(x, g)}"
                for x in s3.elements
            }
            for g in s3.elements
        }
        groups = {"v": s3, "w": s3}
        actions = {side: {("v", "w"): table}}
        if regular == side:
            assert getattr(BimodularGraph(graph, groups, **actions), side)[("v", "w")] == table
        else:
            with pytest.raises(IncompatibleActionsError, match="not a homomorphism"):
                BimodularGraph(graph, groups, **actions)


def _swapping(ids: str, images: str) -> dict:
    return dict(zip(ids, images))


class TestFirstFailingPair:
    """An action check names the first failing pair in element order over
    all pairs, identity pairs included; a pair holding an identity never
    fails once the identity is checked to act trivially."""

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize(
        "group, given, at",
        [
            # only the transposition 021 swaps: not a homomorphism of S3
            (symmetric_group(3), {"021": _swapping("xy", "yx")}, "(021, 102)"),
            # every non-identity element swaps, so 1 + 1 = 2 should not
            (cyclic_group(4), {k: _swapping("xy", "yx") for k in "123"}, "(1, 1)"),
        ],
        ids=["S3", "C4"],
    )
    def test_a_broken_homomorphism_law(self, side, group, given, at):
        graph = Graph({"a", "b"}, [("x", "a", "b"), ("y", "a", "b")])
        vertex = "a" if side == "left" else "b"
        with pytest.raises(IncompatibleActionsError) as info:
            BimodularGraph(graph, {vertex: group}, **{side: {("a", "b"): given}})
        assert str(info.value) == (
            f"{side} action is not a homomorphism at {at} on edge set ('a', 'b')"
        )

    def test_s3_on_the_left_against_a_swap_on_the_right(self):
        s3 = symmetric_group(3)
        graph = Graph({"a", "b"}, [(x, "a", "b") for x in "xyz"])
        # S3 permutes the three ids by position; C2 on the right swaps x, y
        left = {p: {"xyz"[i]: "xyz"[int(p[i])] for i in range(3)} for p in s3.elements}
        right = {"1": _swapping("xyz", "yxz")}
        with pytest.raises(IncompatibleActionsError) as info:
            BimodularGraph(
                graph,
                {"a": s3, "b": cyclic_group(2)},
                left={("a", "b"): left},
                right={("a", "b"): right},
            )
        assert str(info.value) == (
            "left action of '021' and right action of '1' do not commute on edge set ('a', 'b')"
        )

    def test_c4_rotations_against_c4_through_a_swap(self):
        c4 = cyclic_group(4)
        graph = Graph({"a", "b"}, [(x, "a", "b") for x in "wxyz"])
        rotate = {str(k): {"wxyz"[i]: "wxyz"[(i + k) % 4] for i in range(4)} for k in range(4)}
        # C4 onto C2 on the right: the odd elements swap w and x
        swap = {"1": _swapping("wxyz", "xwyz"), "3": _swapping("wxyz", "xwyz")}
        with pytest.raises(IncompatibleActionsError) as info:
            BimodularGraph(
                graph, {"a": c4, "b": c4}, left={("a", "b"): rotate}, right={("a", "b"): swap}
            )
        assert str(info.value) == (
            "left action of '1' and right action of '1' do not commute on edge set ('a', 'b')"
        )

    @pytest.mark.parametrize("order", [1, 2])
    def test_a_nan_edge_id_is_acted_on_like_any_other(self, order):
        # ids compare as the action tables' dicts compare them: the same
        # object matches, so a NaN id is not a failed law at (0, 0)
        nan = float("nan")
        graph = Graph({"a", "b"}, [(nan, "a", "b"), ("e", "a", "b")])
        group = cyclic_group(order)
        swap = {"1": {nan: "e", "e": nan}} if order == 2 else {}
        bg = BimodularGraph(
            graph, {"a": group, "b": group}, left={("a", "b"): swap}, right={("a", "b"): swap}
        )
        assert bg.left[("a", "b")]["0"] == {nan: nan, "e": "e"}


SAMPLES = Path(__file__).resolve().parent.parent / "samples"
CLONES = pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)


def _parsed_swap() -> BimodularGraph:
    return parse_bimodular((SAMPLES / "swap_left.bimod").read_text())[1]


def _bimod_fields(bg: BimodularGraph) -> tuple:
    return bg.graph, bg.groups, bg.left, bg.right


class TestFrozen:
    def test_a_shared_cyclic_group_refuses_assignment_and_deletion(self):
        z3 = cyclic_group(3)
        before = (z3.name, z3.elements, dict(z3.table), z3.identity, dict(z3.inverses))
        for name, value in [
            ("name", "other"), ("elements", ("0",)), ("table", {}),
            ("identity", "1"), ("inverses", {}), ("extra", 1),
        ]:
            with pytest.raises(AttributeError):
                setattr(z3, name, value)
        for name in FiniteGroup.__slots__:
            with pytest.raises(AttributeError):
                delattr(z3, name)
        assert cyclic_group(3) is z3
        assert (z3.name, z3.elements, z3.table, z3.identity, z3.inverses) == before

    @CLONES
    def test_a_group_copies_and_pickles_through_its_constructor(self, clone):
        z3 = cyclic_group(3)
        again = clone(z3)
        assert type(again) is FiniteGroup and again is not z3
        assert again == z3 and hash(again) == hash(z3)
        assert (again.name, again.elements, again.identity, again.inverses) == (
            z3.name, z3.elements, z3.identity, z3.inverses
        )
        with pytest.raises(AttributeError):
            again.identity = "1"

    def test_a_parsed_bimodular_graph_refuses_assignment_and_deletion(self):
        bg = _parsed_swap()
        before = _bimod_fields(bg)
        for name in ("graph", "groups", "left", "right", "_edges", "extra"):
            with pytest.raises(AttributeError):
                setattr(bg, name, {})
        for name in BimodularGraph.__slots__:
            with pytest.raises(AttributeError):
                delattr(bg, name)
        assert all(now is then for now, then in zip(_bimod_fields(bg), before))

    @CLONES
    def test_a_bimodular_graph_copies_and_pickles_through_its_constructor(self, clone):
        bg = _parsed_swap()
        again = clone(bg)
        assert type(again) is BimodularGraph and again is not bg
        assert _bimod_fields(again) == _bimod_fields(bg)
        assert again.right[("v", "m")]["1"] == {"e1": "e2", "e2": "e1"}
        with pytest.raises(AttributeError):
            again.graph = Graph.empty()


class TestCompose2:
    def test_swap_merges_pairs_into_one_orbit(self):
        f, g = swap_example()
        result = bimod_compose2(f, g)
        assert result.graph.vertices == {"v", "w"}
        assert len(result.graph.edges) == 1
        (edge,) = result.graph.edges
        assert (edge.src, edge.tgt) == ("v", "w")
        assert edge.id == ("e1", "f")

    def test_trivial_groups_keep_paths_separate(self):
        f_graph = Graph({"v", "m"}, [("e1", "v", "m"), ("e2", "v", "m")])
        g_graph = Graph({"m", "w"}, [("f", "m", "w")])
        result = bimod_compose2(BimodularGraph(f_graph), BimodularGraph(g_graph))
        assert len(result.graph.edges) == 2

    def test_nontrivial_group_acting_trivially_keeps_orbits_singleton(self):
        f_graph = Graph({"v", "m"}, [("e1", "v", "m"), ("e2", "v", "m")])
        g_graph = Graph({"m", "w"}, [("f", "m", "w")])
        z2 = cyclic_group(2)
        f = BimodularGraph(f_graph, groups={"m": z2})
        g = BimodularGraph(g_graph, groups={"m": z2})
        assert len(bimod_compose2(f, g).graph.edges) == 2

    def test_mismatched_middle_groups_rejected(self):
        f_graph = Graph({"v", "m"}, [("e1", "v", "m")])
        g_graph = Graph({"m", "w"}, [("f", "m", "w")])
        f = BimodularGraph(f_graph, groups={"m": cyclic_group(2)})
        g = BimodularGraph(g_graph, groups={"m": cyclic_group(3)})
        with pytest.raises(IncompatibleGroupsError):
            bimod_compose2(f, g)

    @pytest.mark.parametrize("op", [bimod_compose2, bimod_execute, check_well_defined])
    def test_mismatched_groups_are_found_before_the_paths(self, op):
        # v -e-> m (-h1-> n -g2-> m)* -f-> w has infinitely many paths
        f_graph = Graph({"v", "m", "n"}, [("e", "v", "m"), ("g2", "n", "m")])
        g_graph = Graph({"m", "n", "w"}, [("h1", "m", "n"), ("f", "m", "w")])
        f = BimodularGraph(f_graph, groups={"m": cyclic_group(2)})
        with pytest.raises(InfinitePathSetError):
            bimod_execute(f, BimodularGraph(g_graph, groups={"m": cyclic_group(2)}))
        g = BimodularGraph(g_graph, groups={"m": cyclic_group(3)})
        with pytest.raises(IncompatibleGroupsError, match="groups at shared vertex 'm' differ"):
            op(f, g)

    def test_descended_actions_revalidate(self):
        f, g = swap_example()
        result = bimod_compose2(f, g)
        # construction re-runs the full action validation; reaching here is
        # the point, but sanity-check the boundary groups survived
        assert result.groups["v"] == trivial_group()


def _pair_from_one_id_pool(rng: random.Random) -> tuple[Graph, Graph]:
    """Two small graphs on overlapping vertices whose edge ids both come
    from the pool e, f, g, h."""
    def draw() -> Graph:
        vertices = rng.sample("abcmn", rng.randint(1, 4))
        ids = rng.sample("efgh", rng.randint(0, 4))
        return Graph(vertices, [(i, rng.choice(vertices), rng.choice(vertices)) for i in ids])
    return draw(), draw()


def _outcome(op, f_graph: Graph, g_graph: Graph):
    try:
        return op(f_graph, g_graph)
    except GraphError as exc:
        return exc


class TestBimodExecute:
    def test_trivial_groups_degenerate_to_execution(self):
        f_graph = Graph({"a", "b", "c"}, [("e1", "a", "b"), ("e2", "b", "c")])
        g_graph = Graph({"b", "c", "d"}, [("f1", "b", "c"), ("f2", "c", "d")])
        result = bimod_execute(BimodularGraph(f_graph), BimodularGraph(g_graph))
        assert graphs_equal_flattened(result.graph, execute(f_graph, g_graph))

    def test_shared_id_on_distinct_paths_executes_like_plain_execution(self):
        f_graph = Graph({"a", "m"}, [("e", "a", "m")])
        g_graph = Graph({"m", "b"}, [("e", "m", "b")])
        expected = [(("e", "e"), "a", "b")]
        plain = execute(f_graph, g_graph)
        bimod = bimod_execute(BimodularGraph(f_graph), BimodularGraph(g_graph))
        assert [(e.id, e.src, e.tgt) for e in plain.edges] == expected
        assert [(e.id, e.src, e.tgt) for e in bimod.graph.edges] == expected

    def test_trivial_groups_degenerate_to_execution_on_shared_edge_ids(self):
        # Both graphs draw their edge ids from one pool, so many pairs share
        # ids; trivial bimodular execution must run, or fail, as execute does.
        outcomes = set()
        for seed in range(1500):
            f_graph, g_graph = _pair_from_one_id_pool(random.Random(seed))
            plain = _outcome(execute, f_graph, g_graph)
            bimod = _outcome(
                lambda f, g: bimod_execute(BimodularGraph(f), BimodularGraph(g)).graph,
                f_graph, g_graph,
            )
            if isinstance(plain, Graph):
                assert isinstance(bimod, Graph), (seed, bimod)
                assert graphs_equal_flattened(bimod, plain), seed
            else:
                assert (type(bimod), str(bimod)) == (type(plain), str(plain)), seed
            outcomes.add(type(plain))
        assert outcomes == {Graph, PreconditionViolationError, InfinitePathSetError}

    def test_single_junction_agrees_with_compose2(self):
        f, g = swap_example()
        executed = bimod_execute(f, g)
        composed = bimod_compose2(f, g)
        assert executed.graph == composed.graph

    def test_diagonal_action_splits_pairs_into_two_orbits(self):
        # the middle group swaps both the incoming and the outgoing edges:
        # (e1,f1) ~ (e2,f2) and (e1,f2) ~ (e2,f1), two orbits out of four pairs
        f_graph = Graph({"v", "m"}, [("e1", "v", "m"), ("e2", "v", "m")])
        g_graph = Graph({"m", "w"}, [("f1", "m", "w"), ("f2", "m", "w")])
        z2 = cyclic_group(2)
        f = BimodularGraph(
            f_graph,
            groups={"m": z2},
            right={("v", "m"): {"1": {"e1": "e2", "e2": "e1"}}},
        )
        g = BimodularGraph(
            g_graph,
            groups={"m": z2},
            left={("m", "w"): {"1": {"f1": "f2", "f2": "f1"}}},
        )
        result = bimod_compose2(f, g)
        assert len(result.graph.edges) == 2
        ids = {e.id for e in result.graph.edges}
        assert ids == {("e1", "f1"), ("e1", "f2")}

    def test_swap_with_two_targets(self):
        f_graph = Graph({"v", "m"}, [("e1", "v", "m"), ("e2", "v", "m")])
        g_graph = Graph({"m", "w"}, [("f", "m", "w"), ("f2", "m", "w")])
        z2 = cyclic_group(2)
        f = BimodularGraph(
            f_graph,
            groups={"m": z2},
            right={("v", "m"): {"1": {"e1": "e2", "e2": "e1"}}},
        )
        g = BimodularGraph(g_graph, groups={"m": z2})
        result = bimod_execute(f, g)
        # (e1,f),(e2,f) merge and (e1,f2),(e2,f2) merge
        assert len(result.graph.edges) == 2

    def test_two_junction_paths_quotient_junctionwise(self):
        # a -> m1 (f), m1 -> m2 (g), m2 -> d (f): two junctions, the second
        # carrying a cyclic-2 swap of the parallel last edges.
        f_graph = Graph(
            {"a", "m1", "m2", "d"},
            [("e1", "a", "m1"), ("e2", "m2", "d"), ("e3", "m2", "d")],
        )
        g_graph = Graph({"m1", "m2"}, [("f1", "m1", "m2")])
        z2 = cyclic_group(2)
        f = BimodularGraph(
            f_graph,
            groups={"m2": z2},
            left={("m2", "d"): {"1": {"e2": "e3", "e3": "e2"}}},
        )
        g = BimodularGraph(g_graph, groups={"m2": z2})
        result = bimod_execute(f, g)
        # paths e1 f1 e2 and e1 f1 e3 fall into one orbit
        assert len(result.graph.edges) == 1
        (edge,) = result.graph.edges
        assert (edge.src, edge.tgt) == ("a", "d")
        assert edge.id == ("e1", "f1", "e2")
        # and with the group removed they stay distinct
        plain = bimod_execute(BimodularGraph(f_graph), BimodularGraph(g_graph))
        assert graphs_equal_flattened(plain.graph, execute(f_graph, g_graph))
        assert len(plain.graph.edges) == 2


class TestWellDefined:
    def test_trivial_groups_pass_vacuously(self):
        f_graph = Graph({"a", "b"}, [("e", "a", "b")])
        g_graph = Graph({"b", "c"}, [("f", "b", "c")])
        report = check_well_defined(BimodularGraph(f_graph), BimodularGraph(g_graph))
        assert report.passed

    def test_swap_example_passes(self):
        f, g = swap_example()
        report = check_well_defined(f, g)
        assert report.passed
        assert report.details["violations"] == 0

    def test_klein_actions_pass(self):
        f_graph = Graph(
            {"v", "m"},
            [("e1", "v", "m"), ("e2", "v", "m"), ("e3", "v", "m"), ("e4", "v", "m")],
        )
        g_graph = Graph({"m", "w"}, [("f", "m", "w")])
        v4 = klein_four_group()
        # the regular action of the Klein group on its own elements
        perm_of = {
            x: {f"e{i+1}": f"e{v4.elements.index(v4.mul(v4.elements[i], x)) + 1}"
                for i in range(4)}
            for x in v4.elements
        }
        f = BimodularGraph(f_graph, groups={"m": v4}, right={("v", "m"): perm_of})
        g = BimodularGraph(g_graph, groups={"m": v4})
        assert check_well_defined(f, g).passed
        assert len(bimod_execute(f, g).graph.edges) == 1


class TestOrbitCap:
    def test_cap_error_is_a_graph_error(self):
        assert issubclass(OrbitCapExceededError, GraphError)

    def test_path_orbit_over_cap(self, monkeypatch):
        monkeypatch.setattr(bimodular, "_ORBIT_CAP", 1)
        f, g = swap_example()  # the orbit of e1.f is {e1.f, e2.f}
        with pytest.raises(OrbitCapExceededError, match="path orbit"):
            bimod_execute(f, g)

    def test_junction_product_over_cap(self, monkeypatch):
        monkeypatch.setattr(bimodular, "_ORBIT_CAP", 1)
        z2 = cyclic_group(2)
        # trivial actions: every orbit is one path, but the junction group
        # at m has two elements to try
        f = BimodularGraph(Graph({"v", "m"}, [("e", "v", "m")]), groups={"m": z2})
        g = BimodularGraph(Graph({"m", "w"}, [("f", "m", "w")]), groups={"m": z2})
        bimod_execute(f, g)
        with pytest.raises(OrbitCapExceededError, match="junction-group product"):
            check_well_defined(f, g)


def assert_matches_oracle(f, g, op) -> bool:
    """The quotient ``op`` computes equals the oracle's: the same edges and
    ids, and the same descended left and right action tables.  Returns
    whether some orbit has two or more paths."""
    expected = oracle_bimod_quotient(f, g, length_two=op is bimod_compose2)
    if expected is None:
        with pytest.raises(InfinitePathSetError):
            op(f, g)
        return False
    paths, edges, left, right, violations = expected
    assert violations == []
    result = op(f, g)
    assert frozenset((e.id, e.src, e.tgt) for e in result.graph.edges) == edges
    assert result.left == left
    assert result.right == right
    return len(edges) < len(paths)


def s3_middle_example():
    """A symmetric_group(3) middle group acting on the right of the f-edges
    e<x> (one per element x, regularly: e<x> . h = e<xh>) and on the left of
    the g-edges f<k><j> (on k, through the permutation).  A cyclic-2 group
    at v acts on the left of the f-edges through the transposition "102",
    and one at w swaps j on the right of the g-edges."""
    s3, z2 = symmetric_group(3), cyclic_group(2)
    as_s3 = {"0": s3.identity, "1": "102"}
    f_graph = Graph({"v", "m"}, [(f"e{x}", "v", "m") for x in s3.elements])
    g_graph = Graph(
        {"m", "w"}, [(f"f{k}{j}", "m", "w") for k in range(3) for j in range(2)]
    )
    f = BimodularGraph(
        f_graph,
        groups={"v": z2, "m": s3},
        left={("v", "m"): {
            a: {f"e{x}": f"e{s3.mul(as_s3[a], x)}" for x in s3.elements}
            for a in z2.elements
        }},
        right={("v", "m"): {
            h: {f"e{x}": f"e{s3.mul(x, h)}" for x in s3.elements}
            for h in s3.elements
        }},
    )
    g = BimodularGraph(
        g_graph,
        groups={"m": s3, "w": z2},
        left={("m", "w"): {
            p: {f"f{k}{j}": f"f{p[k]}{j}" for k in range(3) for j in range(2)}
            for p in s3.elements
        }},
        right={("m", "w"): {
            c: {f"f{k}{j}": f"f{k}{(j + int(c)) % 2}" for k in range(3) for j in range(2)}
            for c in z2.elements
        }},
    )
    return f, g


def _renamed(bg: BimodularGraph, names: dict) -> BimodularGraph:
    """``bg`` with each edge id x renamed to names[x], its actions carried
    along."""
    def rename(tables):
        return {
            pair: {a: {names[x]: names[y] for x, y in perm.items()} for a, perm in table.items()}
            for pair, table in tables.items()
        }

    graph = Graph(bg.graph.vertices, [(names[e.id], e.src, e.tgt) for e in bg.graph.edges])
    return BimodularGraph(graph, bg.groups, rename(bg.left), rename(bg.right))


class TestOracleCrossCheck:
    """bimod_execute and bimod_compose2 against `oracle_bimod_quotient`."""

    @pytest.mark.parametrize("op", [bimod_execute, bimod_compose2])
    def test_random_pairs(self, op):
        merging = sum(
            assert_matches_oracle(*random_bimodular_pair(trial_rng(seed, index)), op)
            for seed in (42, 20231029)
            for index in range(300)
        )
        # the generator's actions seldom merge paths (11 draws of these 600
        # for bimod_execute, 5 for bimod_compose2); the hand-built
        # instances below merge in every orbit
        assert merging >= 5

    @pytest.mark.parametrize("op", [bimod_execute, bimod_compose2])
    def test_swap_example(self, op):
        assert assert_matches_oracle(*swap_example(), op)

    @pytest.mark.parametrize("op", [bimod_execute, bimod_compose2])
    def test_symmetric_middle_group(self, op):
        f, g = s3_middle_example()
        assert assert_matches_oracle(f, g, op)
        # (e<x>, f<k><j>) ~ (e<xh>, f<h^-1(k)><j>): 36 pairs, 6 orbits
        assert len(op(f, g).graph.edges) == 6

    @pytest.mark.parametrize("op", [bimod_execute, bimod_compose2])
    def test_edge_ids_used_by_both_sides(self, op):
        # g's six edges m -> w take the ids of f's six edges v -> m, under
        # other endpoints and other actions: each side's edge moves by its
        # own side's tables, so the orbits are those of the unrenamed pair
        f, g = s3_middle_example()
        g_ids = bimodular._edge_sets_of(g.graph)[("m", "w")]
        f_ids = bimodular._edge_sets_of(f.graph)[("v", "m")]
        shared = _renamed(g, dict(zip(g_ids, f_ids)))
        assert assert_matches_oracle(f, shared, op)
        assert len(op(f, shared).graph.edges) == 6
