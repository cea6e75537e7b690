"""
One-dimensional cobordisms in combinatorial form.

Objects are finite point sets; a morphism from A to B is a disjoint union
of segments and circles whose boundary is A + B.  Up to the structure that
matters here this is exactly a perfect matching on the tagged disjoint
union of A and B (the segments) plus a count of closed circles.  Boundary
points carry side tags, so A and B may reuse labels, and a pair may sit
entirely inside one side.

Each morphism keeps its matching as a point -> mate table.  The public
constructor fills it in the same single pass over the pairs that checks
each pair's size and rejects a point seen twice; one comparison of the
table's keys with the boundary then finds unknown and missing points.
Composition glues along the shared middle object with one chase: from each
outer boundary point, alternately follow the two tables through the middle
(m's target point x is n's source point x) until another outer point is
reached, recording only the middle labels passed.  The outer points are
the keys of the two tables themselves, m's source points and n's target
points, so none is tagged again.  The composite's pairs come out already
tagged, and `decompose_segment` rebuilds a pair's operand segments from
the same labels.  The composite's mate table comes from the chase too,
which records both ends of each chain, so the composite is not checked
again.  Middle points not on any such open chain lie on closed
alternating chains, each of which becomes a new circle.  Open chains pass
each middle label at most once, so the pass that walks the closed chains
runs only when they pass fewer labels than the middle object has.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from .graph import GraphError, InvariantViolationError, _order_key, show_items
from .interaction import InterfaceMismatchError

SRC = "src"
TGT = "tgt"

TaggedPoint = tuple[str, Any]


class NotACompositeError(GraphError):
    pass


def source_point(label: Any) -> TaggedPoint:
    return (SRC, label)


def target_point(label: Any) -> TaggedPoint:
    return (TGT, label)


@dataclass(frozen=True)
class Cob0Morphism:
    """A perfect matching on the tagged boundary points plus a circle count.

    ``Cob0Morphism(...)`` checks the circle count and that the pairs match
    every boundary point exactly once (ValueError), and builds the mate
    table.  The composites of `cob0_compose` are built by `_glued`, which
    checks nothing: the chase pairs every outer point with the other end
    of its chain, once each, and fills the mate table as it goes.
    """

    source: frozenset
    target: frozenset
    pairs: frozenset[frozenset]
    circles: int = 0

    def __post_init__(self) -> None:
        _check_count("circle count", self.circles)
        mates: dict = {}
        for pair in self.pairs:
            if len(pair) != 2:
                raise ValueError(_matching_fault(self.pairs))
            p, q = pair
            if p in mates or q in mates:
                raise ValueError(_matching_fault(self.pairs))
            mates[p] = q
            mates[q] = p
        points = {(SRC, a) for a in self.source}
        points.update((TGT, b) for b in self.target)
        if mates.keys() != points:
            unknown = mates.keys() - points
            if unknown:
                raise ValueError(
                    f"pair references unknown boundary point {min(unknown, key=_order_key)!r}"
                )
            raise ValueError(
                "matching must cover every boundary point, "
                f"missing {show_items(points - mates.keys())}"
            )
        # Not a field, so equality, hashing and repr still see only the pairs.
        object.__setattr__(self, "_mates", mates)

    @classmethod
    def _glued(
        cls,
        source: frozenset,
        target: frozenset,
        pairs: frozenset[frozenset],
        circles: int,
        mates: dict,
    ) -> Cob0Morphism:
        """A morphism whose matching the caller has checked, with its mate
        table filled in; nothing is checked or computed here."""
        morphism = object.__new__(cls)
        fields = morphism.__dict__
        fields["source"] = source
        fields["target"] = target
        fields["pairs"] = pairs
        fields["circles"] = circles
        fields["_mates"] = mates
        return morphism

    def mate(self, point: TaggedPoint) -> TaggedPoint:
        return self._mates[point]


def _check_count(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be an int >= 0, got {value!r}")


def _matching_fault(pairs: frozenset[frozenset]) -> str:
    """Why ``pairs`` is no matching, named the same whatever the set order:
    the least pair that is not two points, else the least point in two
    pairs."""
    bad = [show_items(pair) for pair in pairs if len(pair) != 2]
    if bad:
        return f"pair {min(bad)} must contain two distinct points"
    seen, repeated = set(), set()
    for p in itertools.chain.from_iterable(pairs):
        (repeated if p in seen else seen).add(p)
    return f"boundary point {min(repeated, key=_order_key)!r} occurs in two pairs"


def _pairs_from(pairs: Iterable[Iterable[TaggedPoint]]) -> frozenset:
    return frozenset(frozenset(p) for p in pairs)


def cob0_morphism(
    source: Iterable[Any],
    target: Iterable[Any],
    pairs: Iterable[Iterable[TaggedPoint]],
    circles: int = 0,
) -> Cob0Morphism:
    return Cob0Morphism(frozenset(source), frozenset(target), _pairs_from(pairs), circles)


def cob0_identity(points: Iterable[Any]) -> Cob0Morphism:
    pts = frozenset(points)
    return Cob0Morphism(
        pts,
        pts,
        _pairs_from((source_point(a), target_point(a)) for a in pts),
        0,
    )


def _check_interface(m: Cob0Morphism, n: Cob0Morphism) -> None:
    if m.target != n.source:
        raise InterfaceMismatchError(
            f"target {show_items(m.target)} does not match "
            f"source {show_items(n.source)}"
        )


def _chase(m: Cob0Morphism, n: Cob0Morphism, start: TaggedPoint) -> tuple[list, TaggedPoint]:
    """Follow the two matchings from an outer point (a source point of m or
    a target point of n) to the other end of its chain.

    Returns the labels of the middle points passed, in order, and the other
    end.  A middle label x is m's point (TGT, x) and n's point (SRC, x).
    """
    labels = []
    in_m = start[0] == SRC
    end = (m if in_m else n)._mates[start]
    while end[0] == (TGT if in_m else SRC):
        x = end[1]
        labels.append(x)
        in_m = not in_m
        end = m._mates[(TGT, x)] if in_m else n._mates[(SRC, x)]
    return labels, end


def cob0_compose(m: Cob0Morphism, n: Cob0Morphism) -> Cob0Morphism:
    """Glue m and n along their shared boundary.

    Open chains through the middle become the composite's pairs; closed
    chains each contribute one circle on top of the operands' counts.
    """
    _check_interface(m, n)
    ends: dict = {}  # the composite's mate table
    passed = []  # middle labels on open chains, each once
    new_pairs = []
    # The outer points are the tables' own keys: m's source points and n's
    # target points.
    for mates, middle in ((m._mates, TGT), (n._mates, SRC)):
        for p in mates:
            if p[0] == middle or p in ends:
                continue
            labels, end = _chase(m, n, p)
            ends[p] = end
            ends[end] = p
            passed += labels
            new_pairs.append(frozenset((p, end)))

    # Open chains pass each label at most once, so when they pass all of
    # them no closed chain is left.
    closed = 0
    if len(passed) < len(m.target):
        walked = set(passed)  # middle labels already on some chain
        for b in m.target:
            if b in walked:
                continue
            closed += 1
            cur = b
            while True:
                walked.add(cur)
                cur = m._mates[(TGT, cur)][1]
                walked.add(cur)
                cur = n._mates[(SRC, cur)][1]
                if cur == b:
                    break

    return Cob0Morphism._glued(
        m.source, n.target, frozenset(new_pairs), m.circles + n.circles + closed, ends
    )


@dataclass(frozen=True)
class AlternatingDecomposition:
    """The chain of operand segments realising one composite segment.

    Tags alternate strictly between the two operands.
    """

    segments: tuple[tuple[str, frozenset], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise InvariantViolationError("a decomposition has at least one segment")
        tags = [tag for tag, _ in self.segments]
        if any(x == y for x, y in zip(tags, tags[1:])):
            raise InvariantViolationError("tags must alternate")

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(tag for tag, _ in self.segments)


def decompose_segment(
    m: Cob0Morphism, n: Cob0Morphism, composite_pair: frozenset
) -> AlternatingDecomposition:
    """Recover the unique alternating chain of m/n segments realising one
    pair of the composite m;n."""
    _check_interface(m, n)
    pair = frozenset(composite_pair)
    outer = [
        p for p in pair
        if (p in m._mates and p[0] == SRC) or (p in n._mates and p[0] == TGT)
    ]
    if len(outer) != 2:
        raise NotACompositeError(f"{show_items(pair)} is not two outer boundary points")
    start = min(pair, key=_order_key)
    labels, end = _chase(m, n, start)
    if pair != {start, end}:
        raise NotACompositeError(f"{show_items(pair)} is not a pair of the composite")
    segments = []
    in_m, cur = start[0] == SRC, start
    for x in labels:
        segments.append(("M" if in_m else "N", frozenset((cur, (TGT if in_m else SRC, x)))))
        in_m = not in_m
        cur = (TGT if in_m else SRC, x)
    segments.append(("M" if in_m else "N", frozenset((cur, end))))
    return AlternatingDecomposition(tuple(segments))


def _matchings(points: list) -> Iterator[frozenset]:
    if not points:
        yield frozenset()
        return
    first, rest = points[0], points[1:]
    for i, other in enumerate(rest):
        pair = frozenset({first, other})
        remaining = rest[:i] + rest[i + 1:]
        for sub in _matchings(remaining):
            yield sub | {pair}


def cob0_enumerate(
    source: Iterable[Any], target: Iterable[Any], max_circles: int
) -> list[Cob0Morphism]:
    """Every morphism from source to target with at most max_circles
    circles: all (|A|+|B|-1)!! perfect matchings times each circle count.

    Empty when |A|+|B| is odd.  Raises ValueError unless max_circles is
    an int >= 0 (not a bool).
    """
    _check_count("max_circles", max_circles)
    src = frozenset(source)
    tgt = frozenset(target)
    points = sorted(
        [source_point(a) for a in src] + [target_point(b) for b in tgt], key=_order_key
    )
    if len(points) % 2 == 1:
        return []
    out = []
    for matching in _matchings(points):
        for circles in range(max_circles + 1):
            out.append(Cob0Morphism(src, tgt, frozenset(matching), circles))
    return out
