"""
One-dimensional cobordisms in combinatorial form.

Objects are finite point sets; a morphism from A to B is a disjoint union
of segments and circles whose boundary is A + B.  Up to the structure that
matters here this is exactly a perfect matching on the tagged disjoint
union of A and B (the segments) plus a count of closed circles.  Boundary
points carry side tags, so A and B may reuse labels, and a pair may sit
entirely inside one side.

Each morphism keeps its matching as a point -> mate table, filled in the
same single pass over the pairs that checks each pair's size and rejects a
point seen twice; one comparison of the table's keys with the boundary then
finds unknown and missing points.  Composition glues along the shared
middle object with one chase: from each outer boundary point, alternately
follow the two tables through the middle (m's target point x is n's source
point x) until another outer point is reached, recording only the middle
labels passed.  The composite's pairs come out already tagged, and
`decompose_segment` rebuilds a pair's operand segments from the same
labels.  Middle points not on any such open chain lie on closed
alternating chains, each of which becomes a new circle.
"""

from __future__ import annotations

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
    """A perfect matching on the tagged boundary points plus a circle count."""

    source: frozenset
    target: frozenset
    pairs: frozenset[frozenset]
    circles: int = 0

    def __post_init__(self) -> None:
        circles = self.circles
        if isinstance(circles, bool) or not isinstance(circles, int) or circles < 0:
            raise ValueError(f"circle count must be an int >= 0, got {circles!r}")
        mates: dict = {}
        for pair in self.pairs:
            if len(pair) != 2:
                raise ValueError(f"pair {set(pair)!r} must contain two distinct points")
            p, q = pair
            if p in mates or q in mates:
                raise ValueError(
                    f"boundary point {p if p in mates else q!r} occurs in two pairs"
                )
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

    def mate(self, point: TaggedPoint) -> TaggedPoint:
        return self._mates[point]


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
    ends: set = set()
    walked: set = set()  # middle labels already on some chain
    new_pairs = []
    for p in [(SRC, a) for a in m.source] + [(TGT, c) for c in n.target]:
        if p in ends:
            continue
        labels, end = _chase(m, n, p)
        ends.add(end)
        walked.update(labels)
        new_pairs.append(frozenset((p, end)))

    closed = 0
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

    return Cob0Morphism(
        m.source, n.target, frozenset(new_pairs), m.circles + n.circles + closed
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
        raise NotACompositeError(f"{set(pair)!r} is not two outer boundary points")
    start = min(pair, key=_order_key)
    labels, end = _chase(m, n, start)
    if pair != {start, end}:
        raise NotACompositeError(f"{set(pair)!r} is not a pair of the composite")
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

    Empty when |A|+|B| is odd.
    """
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
