"""
The benchmark's three workloads.

A workload is a list of operations generated from a seed during set-up.
Each operation is a ``(kind, args)`` pair; ``KINDS[kind]`` says how to run
it against the library, how to check its output, and how to reduce that
output to an order-independent fingerprint for the workload digest.

Operations reach the library only through attribute lookups on the module
objects in ``lib`` at call time, so the traced run sees every call once its
wrappers are patched into those modules.

The digest is built only from forms that do not depend on input order or
on the choice of representatives: repr-sorted ``(flatten(id), src, tgt)``
multisets, cycle and orbit counts, and exception classes.  It never holds
cycle representatives, infinite-set witnesses or sort orders, which the
library may legitimately change.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable

# Instance sizes of the random campaigns at the CLI's default flags:
# ``intgraphs check assoc|trefoil`` use 8 vertices and 8 edges, and the two
# bimodular campaigns clamp those to 5 vertices and 6 edges with cyclic
# groups of order <= 4.
CLI_TRIALS = 1000
TRIPLE_SIZE = (8, 8)
BIMOD_SIZE = (5, 6)
BIMOD_GROUP_ORDER = 4

# Diamond chains as (width, k): k shared vertices in a row and width**(k+1)
# boundary-to-boundary paths of k+1 edges, each size with a multiplicity.
# Cost grows with paths x edges per path.  The counts put the median in the
# middle of the 24 1024-path chains and the 90th percentile inside the five
# 8192-path ones, each at least 1.5x cheaper or dearer than its neighbours,
# so neither percentile sits where two sizes mix, and above the 90th
# percentile lie only the two largest chains.  One pass is 52 operations
# and about 139k paths.
LADDER = (
    ((3, 4), 4),   # 243 paths
    ((2, 7), 4),   # 256
    ((2, 8), 3),   # 512
    ((3, 5), 3),   # 729
    ((2, 9), 24),  # 1024
    ((3, 6), 2),   # 2187
    ((2, 10), 3),  # 2048
    ((2, 11), 2),  # 4096
    ((2, 12), 5),  # 8192
    ((2, 13), 1),  # 16384
    ((2, 14), 1),  # 32768
)

# Exhaustive cobordism checks over objects of size <= 3, with the circle
# bounds of ``intgraphs check cob0-laws`` (1) and ``check functor`` (2).
COB_BOUND = 3
LAWS_CIRCLES = 1
FUNCTOR_CIRCLES = 2


def _flat(obj: Any) -> tuple:
    # Kept apart from the library's ``flatten`` so the digest does not
    # depend on the code it checks.
    if isinstance(obj, (tuple, list)):
        return tuple(x for item in obj for x in _flat(item))
    return (obj,)


def _graph_form(g) -> str:
    """Vertex set and repr-sorted (flattened id, src, tgt) multiset."""
    edges = sorted(repr((_flat(e.id), e.src, e.tgt)) for e in g.edges)
    verts = sorted(map(repr, g.vertices))
    return hashlib.sha256("\n".join(verts + ["|"] + edges).encode()).hexdigest()


def _cob_form(m) -> str:
    pairs = sorted(sorted(map(repr, pair)) for pair in m.pairs)
    return repr((sorted(map(repr, m.source)), sorted(map(repr, m.target)), pairs, m.circles))


def _details(report, *keys) -> str:
    return " ".join(f"{k}={report.details.get(k)}" for k in keys)


@dataclass(frozen=True)
class Kind:
    """How one kind of operation runs, is checked and is fingerprinted.

    ``calls`` gives the exact number of calls the operation makes to each
    traced library function when it completes without raising; the trace
    completeness test compares it with what the tracer records.
    """

    call: Callable[..., Any]
    check: Callable[[Any], bool]
    fingerprint: Callable[[Any], str]
    calls: dict[str, int]


def _assoc(lib, f, g, h):
    return lib.execution.check_associativity(f, g, h)


def _trefoil(lib, f, g, h):
    return lib.execution.check_trefoil(f, g, h)


def _bimod_degeneracy(lib, f, g):
    bimodular = lib.bimodular
    result = bimodular.bimod_execute(bimodular.BimodularGraph(f), bimodular.BimodularGraph(g))
    plain = lib.execution.execute(f, g)
    return lib.execution.graphs_equal_flattened(result.graph, plain), plain


def _bimod_well_defined(lib, bf, bg):
    report = lib.bimodular.check_well_defined(bf, bg)
    # the campaign executes too, which re-validates the descended actions
    return report, lib.bimodular.bimod_execute(bf, bg)


def _execute_text(lib, f_text, g_text, expected):
    formats = lib.formats
    _, f = formats.parse_graph(f_text)
    _, g = formats.parse_graph(g_text)
    result = lib.execution.execute(f, g)
    return result, formats.render_graph("result", result), expected


def _identity_laws(lib, a, b, m):
    cob0 = lib.cob0
    left = cob0.cob0_compose(cob0.cob0_identity(a), m)
    right = cob0.cob0_compose(m, cob0.cob0_identity(b))
    return left == m and right == m, left, right


def _gluing_associativity(lib, m, n, p):
    compose = lib.cob0.cob0_compose
    left = compose(compose(m, n), p)
    return left == compose(m, compose(n, p)), left


def _functoriality(lib, m, n):
    return lib.functor.check_functoriality(m, n)


KINDS: dict[str, Kind] = {
    "assoc": Kind(
        _assoc,
        lambda r: r.passed,
        lambda r: "assoc " + _details(r, "vertices", "edges_left", "edges_right"),
        {"execution.check_associativity": 1, "execution.execute": 4,
         "graph.alternating_paths": 4, "graph.derived_graph": 4,
         "execution.normal_form": 2},
    ),
    "trefoil": Kind(
        _trefoil,
        lambda r: r.passed,
        lambda r: "trefoil " + _details(
            r, "cycles(F,G::H)", "cycles(G,H)", "cycles(H,F::G)", "cycles(F,G)"),
        {"execution.check_trefoil": 1, "execution.execute": 2,
         "graph.alternating_paths": 2, "graph.prime_cycles": 4,
         "graph.derived_graph": 6},
    ),
    "bimod-degeneracy": Kind(
        _bimod_degeneracy,
        lambda out: out[0],
        lambda out: "bimod-degeneracy " + _graph_form(out[1]),
        {"bimodular.bimod_execute": 1, "execution.execute": 1,
         "graph.alternating_paths": 2, "graph.derived_graph": 2,
         "execution.graphs_equal_flattened": 1, "execution.normal_form": 2},
    ),
    "bimod-well-defined": Kind(
        _bimod_well_defined,
        lambda out: out[0].passed,
        lambda out: "bimod-well-defined " + _details(
            out[0], "paths", "applications", "violations")
        + f" orbits={len(out[1].graph.edges)}",
        {"bimodular.check_well_defined": 1, "bimodular.bimod_execute": 1,
         "graph.alternating_paths": 2, "graph.derived_graph": 2},
    ),
    "execute-text": Kind(
        _execute_text,
        lambda out: len(out[0].edges) == out[2] and out[1].count("\nedge ") == out[2],
        lambda out: "execute-text " + _graph_form(out[0]),
        {"formats.parse_graph": 2, "execution.execute": 1,
         "graph.alternating_paths": 1, "graph.derived_graph": 1,
         "formats.render_graph": 1},
    ),
    "identity-laws": Kind(
        _identity_laws,
        lambda out: out[0],
        lambda out: "identity-laws " + _cob_form(out[1]) + _cob_form(out[2]),
        {"cob0.cob0_identity": 2, "cob0.cob0_compose": 2},
    ),
    "gluing-associativity": Kind(
        _gluing_associativity,
        lambda out: out[0],
        lambda out: "gluing-associativity " + _cob_form(out[1]),
        {"cob0.cob0_compose": 4},
    ),
    "functoriality": Kind(
        _functoriality,
        lambda r: r.passed and r.details.get("directed_is_twice_unoriented") is True,
        lambda r: "functoriality " + _details(
            r, "circles_composite", "circles_operands", "measure_unoriented",
            "measure_directed", "graph_equal"),
        {"functor.check_functoriality": 1, "cob0.cob0_compose": 1,
         "functor.fundamental_graph": 3, "interaction.int_compose": 1,
         "interaction.interface_measure": 2, "execution.measure": 2,
         "execution.execute": 1, "graph.alternating_paths": 1,
         "graph.prime_cycles": 2, "graph.derived_graph": 3},
    ),
}


@dataclass
class Workload:
    """Generated inputs of one workload.

    ``block`` is the number of consecutive operations over which one
    throughput sample is taken; the untraced run stops only at a block
    boundary.  A workload whose operations differ so much in size that a
    partial pass would change the mix uses one pass as its block.
    ``tolerated`` lists the exceptions that are correct outcomes.
    ``seeded_digest`` is False when the seed only permutes the operations,
    so every seed has one digest.
    """

    ops: list[tuple[str, tuple]]
    warmup: list[tuple[str, tuple]]
    block: int
    tolerated: tuple[type, ...]
    seeded_digest: bool


def random_checks(lib, seed: int) -> Workload:
    """The trial stream of the four random campaigns at their CLI defaults,
    interleaved one trial of each at a time."""
    campaigns = lib.campaigns
    ops: list[tuple[str, tuple]] = []
    for index in range(CLI_TRIALS):
        ops.append(("assoc", campaigns.random_triple(campaigns.trial_rng(seed, index), *TRIPLE_SIZE)))
        ops.append(("trefoil", campaigns.random_triple(campaigns.trial_rng(seed, index), *TRIPLE_SIZE)))
        ops.append(("bimod-degeneracy", campaigns.random_pair(campaigns.trial_rng(seed, index), *BIMOD_SIZE)))
        ops.append(("bimod-well-defined", campaigns.random_bimodular_pair(
            campaigns.trial_rng(seed, index), *BIMOD_SIZE, BIMOD_GROUP_ORDER)))
    graph = lib.graph
    return Workload(
        ops=ops,
        warmup=ops[:40],
        block=400,
        tolerated=(graph.InfinitePathSetError, graph.InfiniteCycleSetError),
        seeded_digest=True,
    )


def diamond_chain(width: int, k: int, rng: random.Random) -> tuple[str, str]:
    """Graph texts F and G of a diamond chain: vertices v0..v(k+1) in a row,
    ``width`` parallel edges per step, steps alternating between F and G.
    Declaration order of vertices and edges is shuffled by ``rng``."""
    sides: tuple[list, list] = ([], [])
    for step in range(k + 1):
        tag = "fg"[step % 2]
        for i in range(width):
            sides[step % 2].append((f"{tag}{step}_{i}", f"v{step}", f"v{step + 1}"))
    texts = []
    for name, edges in zip("FG", sides):
        vertices = sorted({v for _, src, tgt in edges for v in (src, tgt)})
        rng.shuffle(vertices)
        rng.shuffle(edges)
        lines = [f"graph {name}"]
        lines += [f"vertex {v}" for v in vertices]
        lines += [f"edge {eid} {src} {tgt}" for eid, src, tgt in edges]
        texts.append("\n".join(lines) + "\n")
    return texts[0], texts[1]


def path_explosion(lib, seed: int) -> Workload:
    """The in-process ``intgraphs execute F G`` pipeline on diamond chains."""
    rng = random.Random(seed)
    ladder = [size for size, count in LADDER for _ in range(count)]
    rng.shuffle(ladder)
    ops = [
        ("execute-text", (*diamond_chain(width, k, rng), width ** (k + 1)))
        for width, k in ladder
    ]
    smallest = sorted(ops, key=lambda op: op[1][2])
    return Workload(
        ops=ops,
        warmup=smallest[:2],
        block=len(ops),
        tolerated=(),
        seeded_digest=False,
    )


def cobordism_exhaustive(lib, seed: int) -> Workload:
    """Every check of ``intgraphs check cob0-laws`` and ``check functor``,
    one operation each, in an order permuted by the seed."""
    cob0 = lib.cob0
    objects = [frozenset(f"p{i}" for i in range(k)) for k in range(COB_BOUND + 1)]
    pairs = list(itertools.product(objects, repeat=2))
    laws = {ab: cob0.cob0_enumerate(*ab, LAWS_CIRCLES) for ab in pairs}
    functor = {ab: cob0.cob0_enumerate(*ab, FUNCTOR_CIRCLES) for ab in pairs}
    ops: list[tuple[str, tuple]] = [
        ("identity-laws", (a, b, m)) for (a, b), ms in laws.items() for m in ms
    ]
    for a, b, c, d in itertools.product(objects, repeat=4):
        for triple in itertools.product(laws[(a, b)], laws[(b, c)], laws[(c, d)]):
            ops.append(("gluing-associativity", triple))
    for a, b, c in itertools.product(objects, repeat=3):
        for mn in itertools.product(functor[(a, b)], functor[(b, c)]):
            ops.append(("functoriality", mn))
    random.Random(seed).shuffle(ops)
    return Workload(
        ops=ops,
        warmup=ops[:100],
        block=1000,
        tolerated=(),
        seeded_digest=False,
    )


WORKLOADS: dict[str, Callable[[Any, int], Workload]] = {
    "random-checks": random_checks,
    "path-explosion": path_explosion,
    "cobordism-exhaustive": cobordism_exhaustive,
}
