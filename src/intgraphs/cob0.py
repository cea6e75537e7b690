"""
One-dimensional cobordisms in combinatorial form.

Objects are finite point sets; a morphism from A to B is a disjoint union
of segments and circles whose boundary is A + B.  Up to the structure that
matters here this is exactly a perfect matching on the tagged disjoint
union of A and B (the segments) plus a count of closed circles.  Boundary
points carry side tags, so A and B may reuse labels, and a pair may sit
entirely inside one side.

Each morphism is its matching, kept as two tables keyed by plain label,
one per side: a source label's mate point and a target label's mate
point.  Equality and hashing agree with the tables, and ``pairs`` is
built from them on first read.  The public constructor freezes each pair
in one read of the pairs, checks its size, rejects a point seen twice; one
comparison with the boundary then finds unknown and missing points, and
the two tables are filled.  Composition glues along the shared middle
object with one chase: from each outer boundary point, alternately follow
the two matchings through the middle (m's target label x is n's source
label x) until another outer point is reached, recording only the middle
labels passed.  Every step looks up a plain label, whose hash is cached,
so no tagged point is built or hashed on the way.  The outer points are
the keys of m's source table and n's target table.  The chase records
both ends of each chain in the composite's tables, so the composite is
neither checked again nor given pairs until they are read, and
`decompose_segment` rebuilds a pair's operand segments from the same
labels.  Middle points not on any such open chain lie on closed
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


class _PairsFromTables:
    """The ``pairs`` field's class attribute.  The public constructor
    stores the frozen pairs in the instance dict, which attribute
    lookup reads before this non-data descriptor.  A morphism built by
    `_glued` has only its tables, so its first read of ``pairs`` lands
    here: the pairs are built from the tables, in table order, and stored
    in the instance dict for later reads.  Read on the class, it raises
    AttributeError, so the field has no default."""

    def __get__(self, m: Cob0Morphism | None, owner: type | None = None) -> frozenset:
        if m is None:
            raise AttributeError("pairs")
        pairs = [frozenset(((SRC, a), q)) for a, q in m._src.items()]
        pairs += [frozenset(((TGT, b), q)) for b, q in m._tgt.items() if q[0] == TGT]
        m.__dict__["pairs"] = pairs = frozenset(pairs)
        return pairs


@dataclass(frozen=True, eq=False)
class Cob0Morphism:
    """A perfect matching on the tagged boundary points plus a circle count.

    The matching is two label tables, one per side, each mapping a label
    to its mate point; ``==`` compares them and the circle count, and
    ``hash`` agrees with it.  The tables determine ``source``, ``target``
    and ``pairs``.  ``Cob0Morphism(...)`` checks the circle count and that
    the pairs match every boundary point exactly once (ValueError), keeps
    ``source``, ``target`` and ``pairs`` as frozensets, and builds the
    tables; it reads ``pairs`` once, and a frozenset of frozensets is kept
    as given.  `cob0_morphism` is this constructor.  The composites of
    `cob0_compose` are built by `_glued`, which checks nothing: the chase
    pairs every outer point with the other end of its chain, once each,
    and fills the two tables as it goes.  Their ``pairs`` are built from
    the tables when first read.
    """

    source: frozenset
    target: frozenset
    pairs: frozenset[frozenset] = _PairsFromTables()
    circles: int = 0

    def __post_init__(self) -> None:
        _check_count("circle count", self.circles)
        given = self.pairs
        pairs = tuple(map(frozenset, given))  # given is read once
        mates: dict = {}
        for pair in pairs:
            if len(pair) != 2:
                raise ValueError(_matching_fault(pairs))
            p, q = pair
            if p in mates or q in mates:
                raise ValueError(_matching_fault(pairs))
            mates[p] = q
            mates[q] = p
        fields = self.__dict__
        fields["source"] = source = frozenset(self.source)
        fields["target"] = target = frozenset(self.target)
        points = {(SRC, a) for a in source}
        points.update((TGT, b) for b in target)
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
        # kept as given, a frozenset of frozensets iterates and prints as the caller's
        if not isinstance(given, frozenset) or not all(isinstance(p, frozenset) for p in given):
            fields["pairs"] = frozenset(pairs)
        src: dict = {}
        tgt: dict = {}
        for (tag, label), q in mates.items():
            (src if tag == SRC else tgt)[label] = q
        # Not fields, so repr and dataclasses.replace still see the pairs.
        fields["_src"] = src
        fields["_tgt"] = tgt

    @classmethod
    def _glued(
        cls, source: frozenset, target: frozenset, circles: int, src: dict, tgt: dict
    ) -> Cob0Morphism:
        """A morphism whose matching the caller has checked, given by its
        two label tables; nothing is checked or computed here, and its
        pairs are built when first read."""
        morphism = object.__new__(cls)
        fields = morphism.__dict__
        fields["source"] = source
        fields["target"] = target
        fields["circles"] = circles
        fields["_src"] = src
        fields["_tgt"] = tgt
        return morphism

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cob0Morphism):
            return NotImplemented
        return (
            self.circles == other.circles
            and self._src == other._src
            and self._tgt == other._tgt
        )

    def __hash__(self) -> int:
        # the pairs are a function of the tables, so equal morphisms have
        # equal pairs
        return hash((self.pairs, self.circles))

    def mate(self, point: TaggedPoint) -> TaggedPoint:
        """The other end of point's segment; KeyError unless point is one
        of the boundary points."""
        if _is_outer(self, self, point):
            return (self._src if point[0] == SRC else self._tgt)[point[1]]
        raise KeyError(point)


def _is_outer(m: Cob0Morphism, n: Cob0Morphism, point: Any) -> bool:
    """Whether point is a source point of m or a target point of n; False
    for anything else, a point with an unhashable label included."""
    if not isinstance(point, tuple) or len(point) != 2:
        return False
    tag, label = point
    try:
        return label in m._src if tag == SRC else tag == TGT and label in n._tgt
    except TypeError:  # an unhashable label is no key of a table
        return False


def _check_count(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be an int >= 0, got {value!r}")


def _matching_fault(pairs: tuple[frozenset, ...]) -> str:
    """Why ``pairs`` is no matching, named the same whatever their order:
    the least pair that is not two distinct points, else the least point
    in two pairs."""
    bad = [show_items(pair) for pair in pairs if len(pair) != 2]
    if bad:
        return f"pair {min(bad)} must contain two distinct points"
    seen, repeated = set(), set()
    for p in itertools.chain.from_iterable(pairs):
        (repeated if p in seen else seen).add(p)
    return f"boundary point {min(repeated, key=_order_key)!r} occurs in two pairs"


def cob0_morphism(
    source: Iterable[Any],
    target: Iterable[Any],
    pairs: Iterable[Iterable[TaggedPoint]],
    circles: int = 0,
) -> Cob0Morphism:
    return Cob0Morphism(source, target, pairs, circles)


def cob0_identity(points: Iterable[Any]) -> Cob0Morphism:
    pts = frozenset(points)
    return Cob0Morphism(pts, pts, [(source_point(a), target_point(a)) for a in pts])


def _check_interface(m: Cob0Morphism, n: Cob0Morphism) -> None:
    if m.target != n.source:
        raise InterfaceMismatchError(
            f"target {show_items(m.target)} does not match "
            f"source {show_items(n.source)}"
        )


def _chase(m: Cob0Morphism, n: Cob0Morphism, in_m: bool, label: Any, passed: list) -> TaggedPoint:
    """Follow the two matchings from an outer point, m's source label
    ``label`` if in_m and else n's target label, to the other end of its
    chain.

    Appends the labels of the middle points passed, in order, to passed
    and returns the other end.  A middle label x is m's target label and
    n's source label.
    """
    end = (m._src if in_m else n._tgt)[label]
    while end[0] == (TGT if in_m else SRC):
        x = end[1]
        passed.append(x)
        in_m = not in_m
        end = m._tgt[x] if in_m else n._src[x]
    return end


def cob0_compose(m: Cob0Morphism, n: Cob0Morphism) -> Cob0Morphism:
    """Glue m and n along their shared boundary.

    Open chains through the middle become the composite's pairs; closed
    chains each contribute one circle on top of the operands' counts.
    """
    _check_interface(m, n)
    src: dict = {}  # the composite's tables
    tgt: dict = {}
    passed = []  # middle labels on open chains, each once
    for in_m, starts, tag, table in ((True, m._src, SRC, src), (False, n._tgt, TGT, tgt)):
        for label in starts:
            if label in table:
                continue
            end = _chase(m, n, in_m, label, passed)
            table[label] = end
            (src if end[0] == SRC else tgt)[end[1]] = (tag, label)

    # Open chains pass each label at most once, so when they pass all of
    # them no closed chain is left.
    closed = 0
    if len(passed) < len(m.target):
        walked = set(passed)  # middle labels already on some chain
        m_tgt, n_src = m._tgt, n._src
        for b in m.target:
            if b in walked:
                continue
            closed += 1
            cur = b
            while True:
                walked.add(cur)
                cur = m_tgt[cur][1]
                walked.add(cur)
                cur = n_src[cur][1]
                if cur == b:
                    break

    return Cob0Morphism._glued(m.source, n.target, m.circles + n.circles + closed, src, tgt)


@dataclass(frozen=True)
class AlternatingDecomposition:
    """The chain of operand segments realising one composite segment.

    Tags alternate strictly between the two operands.  The segments are
    read once and kept as a tuple of (tag, frozenset) pairs.
    """

    segments: tuple[tuple[str, frozenset], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple((t, frozenset(s)) for t, s in self.segments))
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
    points = list(composite_pair)
    try:
        pair = frozenset(points)
    except TypeError:  # an unhashable point is no boundary point
        raise NotACompositeError(
            f"{show_items(points)} is not two outer boundary points"
        ) from None
    outer = [p for p in pair if _is_outer(m, n, p)]
    if len(outer) != 2:
        raise NotACompositeError(f"{show_items(pair)} is not two outer boundary points")
    start = min(pair, key=_order_key)
    labels: list = []
    end = _chase(m, n, start[0] == SRC, start[1], labels)
    if pair != {start, end}:
        raise NotACompositeError(f"{show_items(pair)} is not a pair of the composite")
    segments = []
    in_m, cur = start[0] == SRC, start
    for x in labels:
        segments.append(("M" if in_m else "N", frozenset((cur, (TGT if in_m else SRC, x)))))
        in_m = not in_m
        cur = (TGT if in_m else SRC, x)
    segments.append(("M" if in_m else "N", frozenset((cur, end))))
    return AlternatingDecomposition(segments)


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
            out.append(Cob0Morphism(src, tgt, matching, circles))
    return out
