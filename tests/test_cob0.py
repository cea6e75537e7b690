from __future__ import annotations

import hashlib
import itertools

import pytest

from intgraphs.cob0 import (
    AlternatingDecomposition,
    Cob0Morphism,
    NotACompositeError,
    cob0_compose,
    cob0_enumerate,
    cob0_identity,
    cob0_morphism,
    decompose_segment,
    source_point as sp,
    target_point as tp,
)
from intgraphs.graph import InvariantViolationError
from intgraphs.interaction import InterfaceMismatchError

from oracle import oracle_cob0_compose


def cap_cup_pair():
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
    return m, n


class TestConstruction:
    def test_matching_must_cover_all_points(self):
        with pytest.raises(ValueError):
            cob0_morphism({"a1", "a2"}, set(), [])

    def test_point_in_two_pairs_rejected(self):
        with pytest.raises(ValueError):
            cob0_morphism(
                {"a1", "a2", "a3", "a4"},
                set(),
                [(sp("a1"), sp("a2")), (sp("a1"), sp("a3")), (sp("a2"), sp("a4"))],
            )

    def test_negative_circles_rejected(self):
        with pytest.raises(ValueError) as err:
            cob0_morphism(set(), set(), [], circles=-1)
        assert str(err.value) == "circle count must be an int >= 0, got -1"

    @pytest.mark.parametrize(
        "source, target, pairs, message",
        [
            ({"a"}, {"b"}, [(sp("a"), tp("c"))],
             "pair references unknown boundary point ('tgt', 'c')"),
            ({1}, {"1"}, [(sp("1"), tp(1))],
             "pair references unknown boundary point ('src', '1')"),
            ({"a", "b", "c"}, set(), [(sp("a"), sp("b")), (sp("a"), sp("c"))],
             "boundary point ('src', 'a') occurs in two pairs"),
            ({"a"}, {"b"}, [(sp("a"), sp("a")), (tp("b"), tp("b"))],
             "must contain two distinct points"),
            ({"a", 1}, {"b", "1"}, [(sp("a"), tp("b"))],
             "matching must cover every boundary point, missing [('src', 1), ('tgt', '1')]"),
        ],
    )
    def test_bad_matching_rejected_with_its_reason(self, source, target, pairs, message):
        with pytest.raises(ValueError) as err:
            cob0_morphism(source, target, pairs)
        assert message in str(err.value)

    @pytest.mark.parametrize("circles", [1.5, 2.0, "2", None, True, False])
    def test_circle_count_must_be_a_non_bool_int(self, circles):
        with pytest.raises(ValueError) as err:
            cob0_morphism({"a"}, {"b"}, [(sp("a"), tp("b"))], circles=circles)
        assert str(err.value) == f"circle count must be an int >= 0, got {circles!r}"

    def test_side_tags_let_labels_repeat(self):
        m = cob0_morphism({"x"}, {"x"}, [(sp("x"), tp("x"))])
        assert m.mate(sp("x")) == tp("x")

    def test_mate_of_unknown_point_raises_key_error(self):
        m = cob0_morphism({"x"}, {"x"}, [(sp("x"), tp("x"))])
        for point in (sp("y"), tp(1), "x"):
            with pytest.raises(KeyError):
                m.mate(point)


class TestCompose:
    def test_cap_cup_creates_one_circle(self):
        m, n = cap_cup_pair()
        comp = cob0_compose(m, n)
        assert comp.pairs == frozenset(
            {frozenset({sp("a1"), sp("a2")}), frozenset({tp("c1"), tp("c2")})}
        )
        assert comp.circles == 1

    def test_straight_chains(self):
        m = cob0_morphism(
            {"a1", "a2"},
            {"b1", "b2"},
            [(sp("a1"), tp("b1")), (sp("a2"), tp("b2"))],
        )
        n = cob0_morphism(
            {"b1", "b2"},
            {"c1", "c2"},
            [(sp("b1"), tp("c1")), (sp("b2"), tp("c2"))],
        )
        comp = cob0_compose(m, n)
        assert comp.pairs == frozenset(
            {frozenset({sp("a1"), tp("c1")}), frozenset({sp("a2"), tp("c2")})}
        )
        assert comp.circles == 0

    def test_identity_laws(self):
        m, _ = cap_cup_pair()
        assert cob0_compose(m, cob0_identity(m.target)) == m
        assert cob0_compose(cob0_identity(m.source), m) == m

    def test_identity_composed_with_identity(self):
        ident = cob0_identity({"a", "b"})
        assert cob0_compose(ident, ident) == ident

    def test_circles_add(self):
        m, n = cap_cup_pair()
        m2 = Cob0Morphism(m.source, m.target, m.pairs, circles=2)
        n1 = Cob0Morphism(n.source, n.target, n.pairs, circles=1)
        assert cob0_compose(m2, n1).circles == 4

    def test_interface_mismatch_tells_1_from_str_1(self):
        with pytest.raises(InterfaceMismatchError) as err:
            cob0_compose(cob0_identity({1}), cob0_identity({"1"}))
        assert str(err.value) == "target [1] does not match source ['1']"

    def test_interface_mismatch(self):
        m, _ = cap_cup_pair()
        with pytest.raises(InterfaceMismatchError):
            cob0_compose(m, cob0_identity({"z"}))

    def test_identity_never_creates_circles(self):
        for a, b in [(2, 2), (3, 1), (0, 2)]:
            src = {f"a{i}" for i in range(a)}
            tgt = {f"b{i}" for i in range(b)}
            for m in cob0_enumerate(src, tgt, max_circles=1):
                assert cob0_compose(m, cob0_identity(tgt)).circles == m.circles
                assert cob0_compose(cob0_identity(src), m).circles == m.circles


class TestEnumerate:
    def test_two_points_one_matching(self):
        out = cob0_enumerate({"a"}, {"b"}, max_circles=0)
        assert len(out) == 1

    def test_four_points_three_matchings(self):
        out = cob0_enumerate({"a1", "a2"}, {"b1", "b2"}, max_circles=0)
        assert len(out) == 3

    def test_odd_parity_is_empty(self):
        assert cob0_enumerate({"a1", "a2"}, {"b"}, max_circles=2) == []

    def test_six_points_fifteen_matchings(self):
        out = cob0_enumerate({"a1", "a2", "a3"}, {"b1", "b2", "b3"}, max_circles=0)
        assert len(out) == 15
        assert len(set(out)) == 15


class TestDecompose:
    def test_straight_chain(self):
        m = cob0_morphism({"a1"}, {"b1"}, [(sp("a1"), tp("b1"))])
        n = cob0_morphism({"b1"}, {"c1"}, [(sp("b1"), tp("c1"))])
        dec = decompose_segment(m, n, frozenset({sp("a1"), tp("c1")}))
        assert dec.tags == ("M", "N")
        assert dec.segments[0][1] == frozenset({sp("a1"), tp("b1")})
        assert dec.segments[1][1] == frozenset({sp("b1"), tp("c1")})

    def test_pair_wholly_inside_first_operand(self):
        m, n = cap_cup_pair()
        dec = decompose_segment(m, n, frozenset({sp("a1"), sp("a2")}))
        assert dec.tags == ("M",)
        assert dec.segments[0][1] == frozenset({sp("a1"), sp("a2")})

    def test_not_a_composite_pair(self):
        m, n = cap_cup_pair()
        with pytest.raises(NotACompositeError):
            decompose_segment(m, n, frozenset({sp("a1"), tp("c1")}))

    @pytest.mark.parametrize(
        "pair",
        [
            {sp("a1"), sp("zz")},  # unknown point
            {sp("a1"), 7},  # not a tagged point at all
            {sp("a1")},  # one point
            {sp("a1"), sp("a2"), tp("c1")},  # three points
            {sp("a1"), tp("b1")},  # m's target point lies in the middle
            {sp("b1"), tp("c1")},  # n's source point lies in the middle
        ],
    )
    def test_pairs_of_non_outer_points_rejected(self, pair):
        m, n = cap_cup_pair()
        with pytest.raises(NotACompositeError):
            decompose_segment(m, n, frozenset(pair))

    def test_interface_mismatch_tells_1_from_str_1(self):
        with pytest.raises(InterfaceMismatchError) as err:
            decompose_segment(
                cob0_identity({1}), cob0_identity({"1"}), frozenset({sp(1), tp("1")})
            )
        assert str(err.value) == "target [1] does not match source ['1']"

    def test_interface_mismatch(self):
        m, _ = cap_cup_pair()
        with pytest.raises(InterfaceMismatchError):
            decompose_segment(m, cob0_identity({"z"}), frozenset({sp("a1"), sp("a2")}))

    def test_end_is_the_chase_endpoint_not_a_point_of_the_last_segment(self):
        # The chase from a ends at z through the middle label b, so its last
        # segment is n's (src b, tgt z).  The outer point (src b) of m has
        # the same tagged form, yet {a, b} is not a pair of the composite.
        m = cob0_morphism(
            {"a", "b"}, {"b", "q"}, [(sp("a"), tp("b")), (sp("b"), tp("q"))]
        )
        n = cob0_morphism(
            {"b", "q"}, {"z", "w"}, [(sp("b"), tp("z")), (sp("q"), tp("w"))]
        )
        assert frozenset({sp("a"), tp("z")}) in cob0_compose(m, n).pairs
        with pytest.raises(NotACompositeError):
            decompose_segment(m, n, frozenset({sp("a"), sp("b")}))

    def test_zigzag_decomposition(self):
        m = cob0_morphism(
            {"a1"},
            {"b1", "b2", "b3"},
            [(sp("a1"), tp("b1")), (tp("b2"), tp("b3"))],
        )
        n = cob0_morphism(
            {"b1", "b2", "b3"},
            {"c1"},
            [(sp("b1"), sp("b2")), (sp("b3"), tp("c1"))],
        )
        pair = frozenset({sp("a1"), tp("c1")})
        dec = decompose_segment(m, n, pair)
        assert dec.tags == ("M", "N", "M", "N")
        segs = [seg for _, seg in dec.segments]
        assert segs == [
            frozenset({sp("a1"), tp("b1")}),
            frozenset({sp("b1"), sp("b2")}),
            frozenset({tp("b2"), tp("b3")}),
            frozenset({sp("b3"), tp("c1")}),
        ]
        # the chase is deterministic, so the decomposition is unique
        assert decompose_segment(m, n, pair) == dec

    def test_segments_are_unchanged_on_small_objects(self):
        # Every pair of every composite over objects of size <= 3 drawn from
        # (1, "1", "a"), hashed in a canonical order.  The digest was recorded
        # from the step-by-step chase that built each segment from the
        # operands' own (point, mate) steps.
        def canonical(points):
            return tuple(sorted(points, key=repr))

        pool = (1, "1", "a")
        objects = [frozenset(c) for k in range(4) for c in itertools.combinations(pool, k)]
        digest = hashlib.sha256()
        count = 0
        for a, b, c in itertools.product(objects, repeat=3):
            for m in cob0_enumerate(a, b, 0):
                for n in cob0_enumerate(b, c, 0):
                    key = repr([sorted(map(canonical, x.pairs), key=repr) for x in (m, n)])
                    for pair in sorted(map(canonical, cob0_compose(m, n).pairs), key=repr):
                        dec = decompose_segment(m, n, frozenset(pair))
                        segs = tuple((tag, canonical(seg)) for tag, seg in dec.segments)
                        digest.update(f"{key} {pair!r} {segs!r}\n".encode())
                        count += 1
        assert count == 2076
        assert digest.hexdigest() == (
            "c1dc456f1ffd55819b1cfa5b37571686e2535cb934a96258ddfce719c73f4a08"
        )

    def test_at_least_one_segment(self):
        with pytest.raises(InvariantViolationError, match="at least one segment"):
            AlternatingDecomposition(())

    def test_alternation_enforced(self):
        with pytest.raises(InvariantViolationError):
            AlternatingDecomposition((("M", frozenset({1, 2})), ("M", frozenset({3, 4}))))

    def test_every_composite_pair_decomposes(self):
        a = {"a1", "a2"}
        b = {"b1", "b2"}
        c = {"c1", "c2"}
        for m in cob0_enumerate(a, b, 0):
            for n in cob0_enumerate(b, c, 0):
                comp = cob0_compose(m, n)
                for pair in comp.pairs:
                    dec = decompose_segment(m, n, pair)
                    # each constituent belongs to the operand its tag names
                    for tag, seg in dec.segments:
                        assert seg in (m.pairs if tag == "M" else n.pairs)
                    # consecutive segments share a middle boundary point
                    for (_, s1), (_, s2) in zip(dec.segments, dec.segments[1:]):
                        shared = {p[1] for p in s1} & {p[1] for p in s2}
                        assert shared


class TestCircleContribution:
    def test_glued_circles_depend_only_on_the_middle_pairing(self):
        # adding free circles to either operand shifts the composite count
        # by exactly that amount
        m, n = cap_cup_pair()
        base = cob0_compose(m, n).circles
        for dm in range(3):
            for dn in range(3):
                m2 = Cob0Morphism(m.source, m.target, m.pairs, circles=dm)
                n2 = Cob0Morphism(n.source, n.target, n.pairs, circles=dn)
                assert cob0_compose(m2, n2).circles - dm - dn == base


class TestCategoryLawsSpot:
    def test_associativity_on_small_sample(self):
        a = {"a1", "a2"}
        b = {"b1", "b2"}
        c = {"c1", "c2"}
        d = {"d1", "d2"}
        ms = cob0_enumerate(a, b, 1)
        ns = cob0_enumerate(b, c, 1)
        ps = cob0_enumerate(c, d, 1)
        for m, n, p in itertools.islice(itertools.product(ms, ns, ps), 200):
            assert cob0_compose(cob0_compose(m, n), p) == cob0_compose(
                m, cob0_compose(n, p)
            )


class TestAgainstOracle:
    def test_compose_matches_components_on_shared_labels(self):
        # A, B and C draw from one pool, so labels (1 and "1" among them)
        # repeat across the three objects of every composite.
        pool = (1, "1", "a", "b")
        objects = [frozenset(c) for k in range(4) for c in itertools.combinations(pool, k)]
        compared = 0
        for a, b, c in itertools.product(objects, repeat=3):
            for m in cob0_enumerate(a, b, 0):
                for n in cob0_enumerate(b, c, 0):
                    comp = cob0_compose(m, n)
                    assert (comp.source, comp.target) == (a, c)
                    assert (comp.pairs, comp.circles) == oracle_cob0_compose(m, n)
                    compared += 1
        assert compared == 23975

    @pytest.mark.parametrize(
        "a, b, c",
        [
            ((), (1, "1", "a", "b"), ()),
            ((1,), (1, "1", "a", "b"), ("1", "a", "b")),
            ((), ("0", 1, 2, 3, 4, 5), ()),
        ],
    )
    def test_long_chains_through_larger_middles(self, a, b, c):
        # Middles of size <= 3 hold at most one pair of each operand on a
        # closed chain; these carry longer open and closed chains.
        for m in cob0_enumerate(a, b, 0):
            for n in cob0_enumerate(b, c, 0):
                comp = cob0_compose(m, n)
                assert (comp.pairs, comp.circles) == oracle_cob0_compose(m, n)
