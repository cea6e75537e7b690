from __future__ import annotations

import dataclasses
import hashlib
import itertools

import pytest

from intgraphs import cob0
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
from intgraphs.functor import fundamental_graph
from intgraphs.graph import InvariantViolationError
from intgraphs.interaction import InterfaceMismatchError

from oracle import oracle_cob0_compose


# Objects A, B, C whose middles B are larger than 3 points.
LONG_CHAIN_OBJECTS = [
    ((), (1, "1", "a", "b"), ()),
    ((1,), (1, "1", "a", "b"), ("1", "a", "b")),
    ((), ("0", 1, 2, 3, 4, 5), ()),
]


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
            ({"a"}, {"b"}, [(sp("a"), tp("b"))] * 2,
             "boundary point ('src', 'a') occurs in two pairs"),
        ],
    )
    def test_bad_matching_rejected_with_its_reason(self, source, target, pairs, message):
        for make in (cob0_morphism, Cob0Morphism):
            with pytest.raises(ValueError) as err:
                make(source, target, pairs)
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
        malformed = (("src",), ("src", "x", "y"), ("other", "x"), "sx")
        unhashable = (("src", ["a"]), ("tgt", {}))
        for point in (sp("y"), tp(1), "x") + malformed + unhashable:
            with pytest.raises(KeyError):
                m.mate(point)

    @pytest.mark.parametrize(
        "pairs",
        [
            frozenset({frozenset({sp("a"), tp("a")})}),
            [{sp("a"), tp("a")}],
            ((sp(a), tp(a)) for a in ["a"]),
        ],
        ids=["frozen-pairs", "list-of-sets", "generator"],
    )
    def test_the_callers_containers_are_not_kept(self, pairs):
        source, target = {"a"}, {"a"}
        m = Cob0Morphism(source, target, pairs)
        identity = cob0_identity({"a"})
        assert m == identity and hash(m) == hash(identity)
        source.add("b")
        target.add("b")
        if isinstance(pairs, list):
            pairs[0].add(tp("b"))
            pairs.append({sp("b"), tp("b")})
        assert m == identity and hash(m) == hash(identity)
        assert (m.source, m.target, m.pairs) == (identity.source, identity.target, identity.pairs)
        assert all(type(x) is frozenset for x in (m.source, m.target, m.pairs, *m.pairs))

    @pytest.mark.parametrize(
        "pair",
        [(sp("a"), sp("a")), [sp("a"), sp("a")], (sp(1), sp(True))],
        ids=["tuple", "list", "equal-labels"],
    )
    def test_a_point_paired_with_itself_is_refused(self, pair):
        # the constructor, as cob0_morphism, whose frozenset has one point
        expected = f"pair [{sp(pair[0][1])!r}] must contain two distinct points"
        for make in (Cob0Morphism, cob0_morphism):
            for pairs in ([pair], iter([pair])):  # one-shot input is read once
                with pytest.raises(ValueError) as err:
                    make(frozenset({pair[0][1]}), frozenset(), pairs)
                assert str(err.value) == expected
        # one bad pair is named, whatever the order of the pairs
        pairs = [pair, (sp("b"), sp("c"), sp("d"))]
        messages = set()
        for order in (pairs, pairs[::-1]):
            with pytest.raises(ValueError) as err:
                Cob0Morphism(frozenset({pair[0][1], "b", "c", "d"}), frozenset(), order)
            messages.add(str(err.value))
        assert len(messages) == 1


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

    @pytest.mark.parametrize("max_circles", [-1, True, 1.0])
    def test_max_circles_must_be_a_non_bool_int_at_least_0(self, max_circles):
        with pytest.raises(ValueError) as err:
            cob0_enumerate({"a"}, {"a"}, max_circles)
        assert str(err.value) == f"max_circles must be an int >= 0, got {max_circles!r}"


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
            {sp("a1"), ("src", "a2", "x")},  # a 3-tuple
            {sp("a1"), "sx"},  # a two-character string
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

    @pytest.mark.parametrize(
        "pair",
        [[sp(["a"]), tp("a")], (sp("a"), ("tgt", {})), [sp("a"), tp("a"), ("src", [])]],
    )
    def test_unhashable_points_rejected(self, pair):
        identity = cob0_identity({"a"})
        with pytest.raises(NotACompositeError) as err:
            decompose_segment(identity, identity, pair)
        assert str(err.value).endswith(" is not two outer boundary points")

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

    def test_segments_are_kept_as_a_tuple_of_frozen_pairs(self):
        frozen = AlternatingDecomposition(
            (("M", frozenset({sp("a"), tp("x")})), ("N", frozenset({sp("x"), tp("c")})))
        )
        first, second = {sp("a"), tp("x")}, {sp("x"), tp("c")}
        given = [["M", first], ["N", second]]
        built = [AlternatingDecomposition(given), AlternatingDecomposition(tuple(s) for s in given)]
        for d in built:
            assert d == frozen and hash(d) == hash(frozen)
            assert type(d.segments) is tuple
            assert all(type(s) is tuple and type(s[1]) is frozenset for s in d.segments)
        first.add(tp("y"))
        given.append(["M", {tp("z")}])
        assert all(d == frozen and hash(d) == hash(frozen) for d in built)

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

    def test_composite_operands_match_components_on_shared_labels(self):
        # A composite built by `_glued` glued again, on either side, against
        # the oracle glued with a public rebuild of the oracle's composite.
        pool = (1, "1", "a", "b")
        objects = [frozenset(c) for k in range(3) for c in itertools.combinations(pool, k)]
        homs = {
            (a, b): cob0_enumerate(a, b, 0) for a, b in itertools.product(objects, repeat=2)
        }
        composites = {key: [] for key in homs}  # each with its oracle rebuild
        for a, b, c in itertools.product(objects, repeat=3):
            for m in homs[a, b]:
                for n in homs[b, c]:
                    rebuilt = Cob0Morphism(a, c, *oracle_cob0_compose(m, n))
                    composites[a, c].append((cob0_compose(m, n), rebuilt))
        compared = 0
        for a, b, c in itertools.product(objects, repeat=3):
            for glued, rebuilt in composites[a, b]:
                for p in homs[b, c]:
                    comp = cob0_compose(glued, p)  # (m;n);p
                    assert (comp.pairs, comp.circles) == oracle_cob0_compose(rebuilt, p)
                    compared += 1
            for m in homs[a, b]:
                for glued, rebuilt in composites[b, c]:
                    comp = cob0_compose(m, glued)  # m;(n;p)
                    assert (comp.pairs, comp.circles) == oracle_cob0_compose(m, rebuilt)
                    compared += 1
        assert compared == 2 * 40889

    @pytest.mark.parametrize("a, b, c", LONG_CHAIN_OBJECTS)
    def test_long_chains_through_larger_middles(self, a, b, c):
        # Middles of size <= 3 hold at most one pair of each operand on a
        # closed chain; these carry longer open and closed chains.
        for m in cob0_enumerate(a, b, 0):
            for n in cob0_enumerate(b, c, 0):
                comp = cob0_compose(m, n)
                assert (comp.pairs, comp.circles) == oracle_cob0_compose(m, n)


class TestGluedComposite:
    """`cob0_compose` builds its composite through the trusted `_glued`;
    rebuilding it through the public constructor gives the same value."""

    @staticmethod
    def _gluings():
        objects = [frozenset(f"p{i}" for i in range(k)) for k in range(4)]
        homs = {
            (a, b): cob0_enumerate(a, b, 1)
            for a, b in itertools.product(objects, repeat=2)
        }
        for a, b, c in itertools.product(objects, repeat=3):
            for m in homs[a, b]:
                for n in homs[b, c]:
                    yield m, n
        for a, b, c in LONG_CHAIN_OBJECTS:
            for m in cob0_enumerate(a, b, 0):
                for n in cob0_enumerate(b, c, 0):
                    yield m, n

    def test_composite_equals_its_public_rebuild(self, monkeypatch):
        chases = 0
        chase = cob0._chase

        def counted_chase(m, n, in_m, label, passed):
            nonlocal chases
            chases += 1
            return chase(m, n, in_m, label, passed)

        monkeypatch.setattr(cob0, "_chase", counted_chase)
        glued = 0
        for m, n in self._gluings():
            chases = 0
            c = cob0_compose(m, n)
            # one chase per open chain: its far end is not chased again
            assert chases == len(c.pairs)
            assert "_fundamental_graph" not in vars(c)
            public = Cob0Morphism(c.source, c.target, c.pairs, c.circles)
            assert c == public
            assert hash(c) == hash(public)
            assert repr(c) == repr(public)
            assert (c._src, c._tgt) == (public._src, public._tgt)
            points = [sp(a) for a in public._src] + [tp(b) for b in public._tgt]
            for point in points:
                assert c.mate(point) == public.mate(point)
            assert fundamental_graph(c) == fundamental_graph(public)
            glued += 1
        assert glued == 1440 + 9 + 225


def _bound_2_gluings():
    objects = [frozenset(f"p{i}" for i in range(k)) for k in range(3)]
    homs = {
        (a, b): cob0_enumerate(a, b, 1)
        for a, b in itertools.product(objects, repeat=2)
    }
    for a, b, c in itertools.product(objects, repeat=3):
        for m in homs[a, b]:
            for n in homs[b, c]:
                yield m, n


class TestTableEquality:
    """A morphism's value is its circle count and its two label tables:
    `==` compares them, `hash` agrees, and the `pairs` of a composite are
    built from the tables when first read."""

    def test_composites_equal_and_hash_as_their_rebuilds(self):
        glued = 0
        for m, n in _bound_2_gluings():
            c = cob0_compose(m, n)
            # rebuilt through the public constructor from the oracle's pairs
            rebuilt = Cob0Morphism(c.source, c.target, *oracle_cob0_compose(m, n))
            assert c == rebuilt and rebuilt == c
            assert "pairs" not in vars(c)  # == reads the tables only
            assert hash(c) == hash(rebuilt)
            assert c.pairs == rebuilt.pairs
            assert c.pairs is c.pairs  # built once
            more = dataclasses.replace(c, circles=c.circles + 1)
            assert c != more and more != c and rebuilt != more
            glued += 1
        assert glued == 84

    def test_one_mate_apart_is_unequal(self):
        for m, n in _bound_2_gluings():
            c = cob0_compose(m, n)
            points = [sp(a) for a in c._src] + [tp(b) for b in c._tgt]
            for side, table in (("src", c._src), ("tgt", c._tgt)):
                for label, mate in table.items():
                    for other in points:
                        if other == mate:
                            continue
                        changed = {**table, label: other}
                        src, tgt = (changed, c._tgt) if side == "src" else (c._src, changed)
                        apart = Cob0Morphism._glued(c.source, c.target, c.circles, src, tgt)
                        assert c != apart and apart != c

    def test_labels_that_compare_equal_give_equal_morphisms(self):
        crossed = {
            x: cob0_morphism({x, "a"}, {x, "a"}, [(sp(x), tp("a")), (sp("a"), tp(x))])
            for x in (1, 1.0, True)
        }
        for x, y in itertools.product(crossed, repeat=2):
            m, n = crossed[x], crossed[y]
            assert m == n and hash(m) == hash(n)
            # crossing twice is the identity, whichever of the labels it keeps
            glued = cob0_compose(m, n)
            identity = cob0_identity({y, "a"})
            assert glued == identity and hash(glued) == hash(identity)
            assert glued == cob0_compose(n, m) and hash(glued) == hash(cob0_compose(n, m))

    def test_unequal_to_other_types(self):
        m = cob0_identity({"a"})
        assert m != object() and not m == object()
        assert m != (m.source, m.target, m.pairs, m.circles)

    def test_pairs_stays_a_field(self):
        c = cob0_compose(*cap_cup_pair())
        assert [f.name for f in dataclasses.fields(c)] == ["source", "target", "pairs", "circles"]
        assert not hasattr(Cob0Morphism, "__getattr__")
        assert repr(c) == (
            f"Cob0Morphism(source={c.source!r}, target={c.target!r}, "
            f"pairs={c.pairs!r}, circles=1)"
        )
        assert dataclasses.replace(c, circles=0) == Cob0Morphism(c.source, c.target, c.pairs)
        with pytest.raises(TypeError, match="pairs"):
            Cob0Morphism(c.source, c.target)


class TestPairsOnlyWhenRead:
    """The laws and functor checks read the label tables only: with
    building `pairs` made to fail, they still pass.  Rendering a
    counterexample may still read `pairs`."""

    def test_checks_pass_without_building_pairs(self, monkeypatch):
        from intgraphs.campaigns import campaign_cob0_laws, campaign_functor
        from intgraphs.functor import check_functoriality

        def no_pairs(self, m, owner=None):
            if m is None:
                raise AttributeError("pairs")
            pytest.fail(f"pairs built for {m.source!r} -> {m.target!r}")

        monkeypatch.setattr(cob0._PairsFromTables, "__get__", no_pairs)
        assert campaign_cob0_laws(2).verdict == "PASS"
        assert campaign_functor(2).verdict == "PASS"
        m, n = cap_cup_pair()
        pairs = [(m, n), (n, cob0_identity(n.target)), (cob0_compose(m, n), cob0_identity({"c1", "c2"}))]
        for a, b, c in LONG_CHAIN_OBJECTS[:2]:
            pairs += zip(cob0_enumerate(a, b, 1), cob0_enumerate(b, c, 1))
        for left, right in pairs:
            assert check_functoriality(left, right).passed
