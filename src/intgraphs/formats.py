"""
Line-oriented text formats for instances, and DOT rendering.

One declaration per line, `#` starts a comment.  Graphs:

    graph NAME
    vertex a
    edge e a b

Projects add `wager <n|omega>` to a graph block.  Cobordisms:

    cob NAME
    left a1 a2 a3
    right b1 b2 b3
    pair a1 b3
    pair L:b1 R:b2
    circles 2

`pair` points may carry `L:`/`R:` prefixes; a bare label is accepted when
it names a point on exactly one side.  A graph declares each vertex
once; a cobordism lists each label at most once per side, over any
number of `left` and `right` lines.  Each point takes at most one `pair`
line, and a block at most one `cob` line and at most one `circles`
line.  Bimodular graphs extend the graph block:

    group v cyclic:2
    group w table e,a;a,e
    laction v w 1 e2 e1
    raction v w 1 e1 e2

The Cayley `table` lists rows separated by `;`, entries by `,`; its first
row doubles as the element list, so the renderer writes the identity's
row first.  The renderer writes `cyclic:k` only for the group
`cyclic_group(k)` itself, and a `table` for any other.  Action lines give
the images of the edges from v to w in their declaration order, a
permutation of those edges, for one element of the acting group (the
group at v for `laction`, at w for `raction`); naming any other element
is an error.  Each vertex takes at most one `group` line, and each
`(v, w, element)` at most one `laction` and one `raction` line.

A parse error names its line when one line decides it.  A missing `graph`
or `cob` line, a boundary point left unpaired, and an action that breaks
the homomorphism law or does not commute with the other side involve
several lines or none, and carry no line.

The renderers write each value as one token: its ``str``, but ``dom:x``
for a boundary vertex and a dot-joined token for a composite edge id (a
flattened path sequence).  One rule covers every token they write:
block names, vertices, edge ids, cobordism labels and group element
names.  Values that print alike, such as ``1`` and ``"1"``, cannot be
written apart, and a token that the parser would split or cut does not
read back: an empty one, or one holding whitespace or ``#``, and for a
group element ``,`` or ``;``.  Rendering either raises a GraphError
naming the values.  DOT output quotes every token, escaping ``\\`` and
``"``, so it checks only that its vertices and edge labels print apart.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import eq
from typing import Any, Callable

from .bimodular import BimodularGraph, FiniteGroup, _edge_sets_of, cyclic_group, trivial_group
from .cob0 import Cob0Morphism, source_point, target_point
from .graph import ExtNat, Graph, GraphError, OMEGA, _order_key, show_items
from .interaction import Project


class ParseError(GraphError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


def _directives(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        yield lineno, parts[0], parts[1:]


def vertex_token(v: Any) -> str:
    if isinstance(v, tuple) and len(v) == 2 and v[0] in ("dom", "cod", "mid"):
        return f"{v[0]}:{v[1]}"
    return str(v)


def id_token(edge_id: Any) -> str:
    if not isinstance(edge_id, tuple):
        return str(edge_id)
    return ".".join([id_token(x) if isinstance(x, tuple) else str(x) for x in edge_id])


def parse_graph(text: str) -> tuple[str, Graph]:
    name, graph, _ = _parse_graph_block(text, allow=())
    return name, graph


def _parse_graph_block(text: str, allow: tuple[str, ...]):
    """Parse graph directives, collecting any directives named in ``allow``
    for the caller."""
    name = None
    vertices: set = set()
    edges: dict = {}  # id -> (id, src, tgt), in input order
    extra: list[tuple[int, str, list[str]]] = []
    for lineno, directive, args in _directives(text):
        if directive == "graph":
            if len(args) != 1:
                raise ParseError("graph expects exactly one name", lineno)
            if name is not None:
                raise ParseError("duplicate graph declaration", lineno)
            name = args[0]
        elif directive == "vertex":
            if len(args) != 1:
                raise ParseError("vertex expects exactly one id", lineno)
            if args[0] in vertices:
                raise ParseError(f"duplicate vertex {args[0]!r}", lineno)
            vertices.add(args[0])
        elif directive == "edge":
            if len(args) != 3:
                raise ParseError("edge expects <id> <src> <tgt>", lineno)
            eid, src, tgt = args
            if eid in edges:
                raise ParseError(f"duplicate edge id {eid!r}", lineno)
            if src not in vertices:
                raise ParseError(f"edge {eid!r}: unknown source vertex {src!r}", lineno)
            if tgt not in vertices:
                raise ParseError(f"edge {eid!r}: unknown target vertex {tgt!r}", lineno)
            edges[eid] = (eid, src, tgt)
        elif directive in allow:
            extra.append((lineno, directive, args))
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno)
    if name is None:
        raise ParseError("missing graph declaration")
    return name, Graph(vertices, edges.values()), extra


def _token_order(tokens: list[str], item: Callable[[int], Any], what: str,
                 forbidden: str | None = "#", where: str = "") -> list[int]:
    """The one rule for writing values as tokens: the indices of ``tokens``
    in token order.  Raises a GraphError naming, by ``item(index)``, the
    ``what`` whose token would not read back as one word: it is empty, or
    holds whitespace or a character of ``forbidden`` (None skips this check,
    for DOT, which quotes every token).  Else it names those that would all be
    written as the least token that two share.  Edge tokens are on the
    rendering hot path, so both checks run over all tokens at once: a join,
    a split and a neighbour compare at C level.  Tokens are read one by one
    only to name the values that fail."""
    if forbidden is not None:
        joined = "".join(tokens)
        if tokens and (
            not all(tokens) or joined.split() != [joined] or any(c in joined for c in forbidden)
        ):
            bad = [item(i) for i, t in enumerate(tokens)
                   if t.split() != [t] or any(c in t for c in forbidden)]
            chars = [repr(c) for c in forbidden]
            raise GraphError(
                f"{what} {show_items(bad)}{where} would not read back: a token must be "
                f"nonempty, with no {', '.join(['whitespace', *chars[:-1]])} or {chars[-1]}"
            )
    order = sorted(range(len(tokens)), key=tokens.__getitem__)
    # in token order, tokens that print alike are neighbours
    ordered = [tokens[i] for i in order]
    if any(map(eq, ordered, islice(ordered, 1, None))):
        shared = next(t for t, u in zip(ordered, ordered[1:]) if t == u)
        alike = [item(i) for i in order if tokens[i] == shared]
        raise GraphError(f"{what} {show_items(alike)}{where} would all be written {shared}")
    return order


def _header(keyword: str, name: Any) -> str:
    """A block's first line, ``graph NAME`` or ``cob NAME``."""
    _token_order([str(name)], (name,).__getitem__, f"{keyword} names")
    return f"{keyword} {name}"


_PLAIN_STR = frozenset((str,))
_TUPLE = frozenset((tuple,))


def _graph_tokens(graph: Graph, forbidden: str | None) -> tuple[dict, list[int], list[str]]:
    """A graph's token table, computed once for every line that names a
    value: each vertex's token in token order, and the edge order and
    tokens.  ``forbidden`` is as for `_token_order`."""
    vertices = list(graph.vertices)
    tokens = [vertex_token(v) for v in vertices]
    vorder = _token_order(tokens, vertices.__getitem__, "vertices", forbidden)
    ids = [e.id for e in graph.edges]
    # Every part of every id typed in one C-level scan: when all ids are
    # tuples of plain strs, as executed ids of parsed graphs are, each
    # token is one join.  Parts are typed, not deduplicated: a set would
    # keep "a" and drop an equal str subclass with its own __str__.
    if _TUPLE.issuperset(map(type, ids)) and _PLAIN_STR.issuperset(
        map(type, chain.from_iterable(ids))
    ):
        etokens = list(map(".".join, ids))
    else:
        etokens = list(map(id_token, ids))
    order = _token_order(etokens, ids.__getitem__, "edges", forbidden)
    return {vertices[i]: tokens[i] for i in vorder}, order, etokens


def render_graph(name: str, graph: Graph) -> str:
    lines = _graph_lines(name, graph)[0]
    lines.append("")
    return "\n".join(lines)


def _graph_lines(name: str, graph: Graph) -> tuple[list[str], tuple[dict, list[int], list[str]]]:
    """The lines of `render_graph` and its token table."""
    header = _header("graph", name)
    vtokens, order, etokens = table = _graph_tokens(graph, "#")
    lines = [header] + [f"vertex {t}" for t in vtokens.values()]
    edges = graph.edges
    for i in order:
        e = edges[i]
        lines.append(f"edge {etokens[i]} {vtokens[e.src]} {vtokens[e.tgt]}")
    return lines, table


def _is_natural(token: str) -> bool:
    # str.isdigit alone also accepts digits such as "²" that int() rejects
    return token.isascii() and token.isdigit()


def parse_project(text: str) -> tuple[str, Project]:
    name, graph, extra = _parse_graph_block(text, allow=("wager",))
    wager = ExtNat(0)
    seen = False
    for lineno, _, args in extra:
        if seen:
            raise ParseError("duplicate wager declaration", lineno)
        if len(args) != 1:
            raise ParseError("wager expects one value", lineno)
        seen = True
        if args[0] == "omega":
            wager = OMEGA
        elif _is_natural(args[0]):
            wager = ExtNat(int(args[0]))
        else:
            raise ParseError(f"wager must be a natural number or omega, got {args[0]!r}", lineno)
    return name, Project(wager, graph)


def render_project(name: str, project: Project) -> str:
    return render_graph(name, project.graph) + f"wager {project.wager}\n"


def _resolve_point(token: str, left: set, right: set, lineno: int):
    if token.startswith("L:"):
        label = token[2:]
        if label not in left:
            raise ParseError(f"unknown left point {label!r}", lineno)
        return source_point(label)
    if token.startswith("R:"):
        label = token[2:]
        if label not in right:
            raise ParseError(f"unknown right point {label!r}", lineno)
        return target_point(label)
    in_left = token in left
    in_right = token in right
    if in_left and in_right:
        raise ParseError(f"point {token!r} is ambiguous, use L:/R: prefix", lineno)
    if in_left:
        return source_point(token)
    if in_right:
        return target_point(token)
    raise ParseError(f"unknown boundary point {token!r}", lineno)


def parse_cobordism(text: str) -> tuple[str, Cob0Morphism]:
    name = None
    left: set = set()
    right: set = set()
    pair_lines: list[tuple[int, list[str]]] = []
    circles = None
    for lineno, directive, args in _directives(text):
        if directive == "cob":
            if len(args) != 1:
                raise ParseError("cob expects exactly one name", lineno)
            if name is not None:
                raise ParseError("duplicate cob declaration", lineno)
            name = args[0]
        elif directive in ("left", "right"):
            points = left if directive == "left" else right
            for label in args:
                if label in points:
                    raise ParseError(f"duplicate {directive} point {label!r}", lineno)
                points.add(label)
        elif directive == "pair":
            if len(args) != 2:
                raise ParseError("pair expects exactly two points", lineno)
            pair_lines.append((lineno, args))
        elif directive == "circles":
            if circles is not None:
                raise ParseError("duplicate circles declaration", lineno)
            if len(args) != 1 or not _is_natural(args[0]):
                raise ParseError("circles expects one natural number", lineno)
            circles = int(args[0])
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno)
    if name is None:
        raise ParseError("missing cob declaration")
    pairs = []
    paired_on: dict = {}  # point -> line of the pair that uses it
    for lineno, (p, q) in pair_lines:
        ends = (_resolve_point(p, left, right, lineno), _resolve_point(q, left, right, lineno))
        if ends[0] == ends[1]:
            raise ParseError(f"pair joins point {p!r} to itself", lineno)
        for point in ends:
            if point in paired_on:
                raise ParseError(
                    f"point {_point_token(point)} is already paired on line {paired_on[point]}",
                    lineno,
                )
            paired_on[point] = lineno
        pairs.append(frozenset(ends))
    try:
        morphism = Cob0Morphism(frozenset(left), frozenset(right), frozenset(pairs), circles or 0)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return name, morphism


def _point_token(point: tuple[str, Any]) -> str:
    side, label = point
    return f"{'L' if side == 'src' else 'R'}:{label}"


def render_cobordism(name: str, m: Cob0Morphism) -> str:
    lines = [_header("cob", name)]
    for keyword, points in (("left", m.source), ("right", m.target)):
        labels = list(points)
        tokens = list(map(str, labels))
        order = _token_order(tokens, labels.__getitem__, f"{keyword} labels")
        if order:
            lines.append(f"{keyword} " + " ".join([tokens[i] for i in order]))
    for pair in sorted(m.pairs, key=lambda p: sorted(map(_point_token, p))):
        p, q = sorted(pair, key=_point_token)
        lines.append(f"pair {_point_token(p)} {_point_token(q)}")
    lines.append(f"circles {m.circles}")
    return "\n".join(lines) + "\n"


def _parse_group(desc: list[str], lineno: int) -> FiniteGroup:
    if len(desc) == 1 and desc[0].startswith("cyclic:"):
        k = desc[0].split(":", 1)[1]
        if not _is_natural(k) or int(k) < 1:
            raise ParseError(f"bad cyclic group descriptor {desc[0]!r}", lineno)
        return cyclic_group(int(k))
    if desc and desc[0] == "table":
        if len(desc) != 2:
            raise ParseError("table expects one row-list argument", lineno)
        rows = [row.split(",") for row in desc[1].split(";")]
        elements = rows[0]
        if len(rows) != len(elements):
            raise ParseError("Cayley table must be square", lineno)
        table = {}
        for i, row in enumerate(rows):
            if len(row) != len(elements):
                raise ParseError("Cayley table must be square", lineno)
            for j, entry in enumerate(row):
                table[(elements[i], elements[j])] = entry
        try:
            return FiniteGroup("table", elements, table)
        except ValueError as exc:
            raise ParseError(f"not a group: {exc}", lineno) from exc
    raise ParseError("group expects cyclic:<k> or table <rows>", lineno)


def parse_bimodular(text: str) -> tuple[str, BimodularGraph]:
    name, graph, extra = _parse_graph_block(
        text, allow=("group", "laction", "raction")
    )
    edge_sets = _edge_sets_of(graph)
    groups: dict = {}
    left: dict = {}
    right: dict = {}
    # group lines first, so each action line is checked against its group
    for lineno, directive, args in sorted(extra, key=lambda d: d[1] != "group"):
        if directive == "group":
            if len(args) < 2:
                raise ParseError("group expects <vertex> <descriptor>", lineno)
            v = args[0]
            if v not in graph.vertices:
                raise ParseError(f"group for unknown vertex {v!r}", lineno)
            if v in groups:
                raise ParseError(f"duplicate group for vertex {v!r}", lineno)
            groups[v] = _parse_group(args[1:], lineno)
        else:
            if len(args) < 3:
                raise ParseError(f"{directive} expects <v> <v'> <g> <images...>", lineno)
            v, w, g = args[0], args[1], args[2]
            images = args[3:]
            edge_ids = list(edge_sets.get((v, w), ()))
            if not edge_ids:
                raise ParseError(f"no edges from {v!r} to {w!r}", lineno)
            if len(images) != len(edge_ids):
                raise ParseError(
                    f"expected {len(edge_ids)} images for edges {v!r}->{w!r}, "
                    f"got {len(images)}",
                    lineno,
                )
            acting = v if directive == "laction" else w
            group = groups.get(acting, trivial_group())
            if g not in group.elements:
                raise ParseError(f"{g!r} is not an element of the group at {acting!r}", lineno)
            if set(images) != set(edge_ids):
                raise ParseError(f"images are not a permutation of the edges {v!r}->{w!r}", lineno)
            if g == group.identity and images != edge_ids:
                raise ParseError(f"the identity {g!r} must act trivially", lineno)
            perm = dict(zip(edge_ids, images))
            per_element = (left if directive == "laction" else right).setdefault((v, w), {})
            if g in per_element:
                raise ParseError(f"duplicate {directive} for {v!r}->{w!r} element {g!r}", lineno)
            per_element[g] = perm
    try:
        bg = BimodularGraph(graph, groups, left, right)
    except GraphError as exc:
        raise ParseError(str(exc)) from exc
    return name, bg


def render_bimodular(name: str, bg: BimodularGraph) -> str:
    out, (vtokens, order, etokens) = _graph_lines(name, bg.graph)
    for v, vtoken in vtokens.items():
        grp = bg.groups[v]
        if grp.is_trivial():
            continue
        # a table splits on "," and ";", and action lines name elements too
        elements = list(grp.elements)
        tokens = [str(a) for a in elements]
        _token_order(tokens, elements.__getitem__, "group elements", ",;#", f" at vertex {vtoken}")
        if grp == cyclic_group(grp.order):
            out.append(f"group {vtoken} cyclic:{grp.order}")
        else:
            # identity first: the parser reads the first row as the elements
            rows = [grp.identity] + [a for a in elements if a != grp.identity]
            table = ";".join(",".join([str(grp.mul(a, b)) for b in rows]) for a in rows)
            out.append(f"group {vtoken} table {table}")
    # image order must follow render_graph's edge order for round-trips
    edges = bg.graph.edges
    in_order: dict = {}  # (v, w) -> {edge id: its token}, in that order
    for i in order:
        e = edges[i]
        in_order.setdefault((e.src, e.tgt), {})[e.id] = etokens[i]
    for tag, tables in (("laction", bg.left), ("raction", bg.right)):
        for (v, w), per_element in sorted(tables.items(), key=lambda kv: _order_key(kv[0])):
            tokens = in_order[(v, w)]
            for g in sorted(per_element, key=str):
                perm = per_element[g]
                if all(perm[eid] == eid for eid in tokens):
                    continue
                images = " ".join([tokens[perm[eid]] for eid in tokens])
                out.append(f"{tag} {vtokens[v]} {vtokens[w]} {g} {images}")
    return "\n".join(out) + "\n"


def _dot_string(text: str) -> str:
    """``text`` as a DOT quoted string, ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(name: str, graph: Graph) -> str:
    """DOT rendering; opposite edge pairs collapse to one dir=both edge."""
    lines = [f"digraph {_dot_string(name)} {{"]
    # DOT quotes every token, so its tokens need only print apart
    vtokens, order, etokens = _graph_tokens(graph, None)
    lines += [f"  {_dot_string(t)};" for t in vtokens.values()]
    edges = graph.edges
    by_endpoints: dict = {}
    for i in order:
        e = edges[i]
        by_endpoints.setdefault((e.src, e.tgt), []).append(i)
    used: set = set()
    for i in order:
        if i in used:
            continue
        used.add(i)
        e = edges[i]
        ends = f"{_dot_string(vtokens[e.src])} -> {_dot_string(vtokens[e.tgt])}"
        partner = next((j for j in by_endpoints.get((e.tgt, e.src), ()) if j not in used), None)
        if partner is not None:
            used.add(partner)
            label = f"{etokens[i]} / {etokens[partner]}"
            lines.append(f"  {ends} [dir=both, label={_dot_string(label)}];")
        else:
            lines.append(f"  {ends} [label={_dot_string(etokens[i])}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
