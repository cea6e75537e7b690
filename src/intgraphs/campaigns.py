"""
Randomized and exhaustive verification campaigns.

Each campaign runs many independent trials of one identity check and
aggregates verdicts.  All randomness flows from a single seed through a
per-trial generator keyed by (seed, trial index), so runs are reproducible
and trials are order-independent.  Every campaign, random or exhaustive,
feeds a lazy stream of cases to one loop (`_campaign`), which counts them,
keeps the first counterexample and times the run.  Instances whose path or
cycle sets come out infinite are counted as skips, never silently dropped.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .bimodular import (
    BimodularGraph, _edge_sets_of, bimod_execute, check_well_defined, cyclic_group,
)
from .cob0 import _check_count, cob0_compose, cob0_enumerate, cob0_identity
from .execution import (
    check_associativity,
    check_trefoil,
    execute,
    graphs_equal_flattened,
)
from .formats import render_bimodular, render_cobordism, render_graph
from .functor import _wagered_images, check_faithfulness, check_functoriality
from .graph import DIRECTED, Graph, InfiniteCycleSetError, InfinitePathSetError

_SEED_STRIDE = 1_000_003


def trial_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * _SEED_STRIDE + index)


@dataclass
class CampaignResult:
    """Aggregate outcome of a campaign: per-trial verdict counts plus the
    first counterexample, serialized for replay."""

    name: str
    trials: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    elapsed: float = 0.0
    counterexample: str | None = None
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    @property
    def verdict(self) -> str:
        return "PASS" if self.ok else "FAIL"

    def render_text(self) -> str:
        # timing stays out of the report so identical seeds give
        # byte-identical output
        lines = [
            f"{self.name}: {self.verdict}",
            f"  trials  = {self.trials}",
            f"  passed  = {self.passed}",
            f"  failed  = {self.failed}",
            f"  skipped = {self.skipped} (infinite instances)",
        ]
        for key in sorted(self.notes):
            lines.append(f"  {key} = {self.notes[key]}")
        if self.counterexample:
            lines.append("counterexample (replayable):")
            lines.append(self.counterexample)
        return "\n".join(lines)

    def render_line(self) -> str:
        parts = [
            f"campaign={self.name}",
            f"verdict={self.verdict}",
            f"trials={self.trials}",
            f"passed={self.passed}",
            f"failed={self.failed}",
            f"skipped={self.skipped}",
        ]
        parts += [f"{k}={self.notes[k]}" for k in sorted(self.notes)]
        return " ".join(parts)


def random_graph(
    rng: random.Random, vertices: list, max_edges: int, prefix: str
) -> Graph:
    n = rng.randint(0, max_edges) if vertices else 0
    edges = [
        (f"{prefix}{i}", rng.choice(vertices), rng.choice(vertices))
        for i in range(n)
    ]
    return Graph(vertices, edges)


def random_triple(
    rng: random.Random, max_vertices: int = 8, max_edges: int = 8
) -> tuple[Graph, Graph, Graph]:
    """Three random graphs over one vertex universe with an empty triple
    intersection."""
    universe = [f"v{i}" for i in range(rng.randint(1, max_vertices))]
    membership: dict[str, tuple[bool, bool, bool]] = {}
    for v in universe:
        while True:
            bits = (rng.random() < 0.6, rng.random() < 0.6, rng.random() < 0.6)
            if not all(bits):
                membership[v] = bits
                break
    parts = []
    for i, prefix in enumerate(("f", "g", "h")):
        verts = [v for v in universe if membership[v][i]]
        parts.append(random_graph(rng, verts, max_edges, prefix))
    return parts[0], parts[1], parts[2]


def random_pair(
    rng: random.Random, max_vertices: int = 5, max_edges: int = 8
) -> tuple[Graph, Graph]:
    universe = [f"v{i}" for i in range(rng.randint(1, max_vertices))]
    out = []
    for prefix in ("f", "g"):
        verts = [v for v in universe if rng.random() < 0.7]
        out.append(random_graph(rng, verts, max_edges, prefix))
    return out[0], out[1]


def _campaign(name: str, cases: Iterable[Callable[[], tuple]]) -> CampaignResult:
    """The one campaign loop.  Each case is a zero-argument check returning
    (passed, replay); ``replay()`` renders the instance and is called only
    for the first failure.  Cases are drawn lazily, one at a time."""
    result = CampaignResult(name=name)
    start = time.perf_counter()
    for check in cases:
        result.trials += 1
        try:
            passed, replay = check()
        except (InfinitePathSetError, InfiniteCycleSetError):
            result.skipped += 1
            continue
        if passed:
            result.passed += 1
        else:
            result.failed += 1
            if result.counterexample is None:
                result.counterexample = replay()
    result.elapsed = time.perf_counter() - start
    return result


def _seeded(trials: int, seed: int, run_one) -> Iterator[Callable[[], tuple]]:
    """The cases of a random campaign: ``run_one`` on each trial's generator."""
    _check_count("trials", trials)
    return (functools.partial(run_one, trial_rng(seed, i)) for i in range(trials))


def _render_all(render, names: str, items) -> str:
    return "\n".join(render(name, item) for name, item in zip(names, items))


def _render_triple(f: Graph, g: Graph, h: Graph) -> str:
    return _render_all(render_graph, "FGH", (f, g, h))


def campaign_associativity(
    trials: int = 1000, seed: int = 42, max_vertices: int = 8, max_edges: int = 8
) -> CampaignResult:
    def run_one(rng):
        f, g, h = random_triple(rng, max_vertices, max_edges)
        return check_associativity(f, g, h).passed, lambda: _render_triple(f, g, h)

    return _campaign("associativity", _seeded(trials, seed, run_one))


def campaign_trefoil(
    trials: int = 1000, seed: int = 42, max_vertices: int = 8, max_edges: int = 8
) -> CampaignResult:
    """The trefoil identity, with cycles counted in directed mode."""

    def run_one(rng):
        f, g, h = random_triple(rng, max_vertices, max_edges)
        return check_trefoil(f, g, h, DIRECTED).passed, lambda: _render_triple(f, g, h)

    return _campaign("trefoil", _seeded(trials, seed, run_one))


# Circle budgets: one exercises the gluing laws' circle arithmetic; two let
# morphisms that differ only in circles share a plain functor image.
_LAW_CIRCLES = 1
_FUNCTOR_CIRCLES = 2


def _hom_sets(bound: int, max_circles: int) -> tuple[list[frozenset], dict]:
    """Objects of size <= bound and every hom-set between them."""
    _check_count("bound", bound)
    objects = [frozenset(f"p{i}" for i in range(k)) for k in range(bound + 1)]
    homs = {
        (a, b): cob0_enumerate(a, b, max_circles)
        for a, b in itertools.product(objects, repeat=2)
    }
    return objects, homs


def _identity_laws(a: frozenset, b: frozenset, m) -> tuple:
    ok = (
        cob0_compose(cob0_identity(a), m) == m
        and cob0_compose(m, cob0_identity(b)) == m
    )
    return ok, functools.partial(render_cobordism, "M", m)


def _gluing_associative(m, n, p) -> tuple:
    ok = cob0_compose(cob0_compose(m, n), p) == cob0_compose(m, cob0_compose(n, p))
    return ok, functools.partial(_render_all, render_cobordism, "MNP", (m, n, p))


def campaign_cob0_laws(bound: int = 3) -> CampaignResult:
    """Exhaustive category laws: both identity laws on every morphism, and
    associativity of gluing (matching and circle arithmetic) over all
    composable triples with every object of size <= bound."""
    objects, homs = _hom_sets(bound, _LAW_CIRCLES)
    identities = (
        functools.partial(_identity_laws, a, b, m)
        for (a, b), morphisms in homs.items()
        for m in morphisms
    )
    triples = (
        functools.partial(_gluing_associative, m, n, p)
        for a, b, c, d in itertools.product(objects, repeat=4)
        for m, n, p in itertools.product(homs[(a, b)], homs[(b, c)], homs[(c, d)])
    )
    result = _campaign("cob0-laws", itertools.chain(identities, triples))
    morphisms = sum(map(len, homs.values()))
    result.notes["identity_morphisms"] = morphisms
    result.notes["associativity_triples"] = result.trials - morphisms
    return result


def campaign_functor(bound: int = 3) -> CampaignResult:
    """Exhaustive functoriality over composable pairs: graph equality and
    the circle-count equation, with directed = 2 x unoriented demanded on
    every composition."""
    objects, homs = _hom_sets(bound, _FUNCTOR_CIRCLES)
    twice_everywhere = True

    def check(m, n):
        nonlocal twice_everywhere
        report = check_functoriality(m, n)
        twice = report.details["directed_is_twice_unoriented"]
        twice_everywhere = twice_everywhere and twice
        replay = functools.partial(_render_all, render_cobordism, "MN", (m, n))
        return report.passed and twice, replay

    pairs = (
        functools.partial(check, m, n)
        for a, b, c in itertools.product(objects, repeat=3)
        for m, n in itertools.product(homs[(a, b)], homs[(b, c)])
    )
    result = _campaign("functor", pairs)
    result.notes["directed_is_twice_unoriented"] = twice_everywhere
    return result


def campaign_faithful(bound: int = 6) -> CampaignResult:
    """Injectivity of the wagered functor on every hom-set with
    |A| + |B| <= bound, recording image counts per boundary size."""
    _check_count("bound", bound)
    images_by_size: dict[int, int] = {}

    def check(a_size: int, b_size: int):
        a = frozenset(f"a{i}" for i in range(a_size))
        b = frozenset(f"b{i}" for i in range(b_size))
        report = check_faithfulness(a, b, _FUNCTOR_CIRCLES)
        if report.details["hom_size"]:
            total = a_size + b_size
            images_by_size[total] = max(
                images_by_size.get(total, 0), report.details["distinct_images"]
            )
        return report.passed, functools.partial(_collision_replay, a, b, report)

    hom_sets = (
        functools.partial(check, a_size, total - a_size)
        for total in range(bound + 1)
        for a_size in range(total + 1)
    )
    result = _campaign("faithful", hom_sets)
    result.notes["images_by_boundary_size"] = dict(sorted(images_by_size.items()))
    return result


def _collision_replay(a: frozenset, b: frozenset, report) -> str:
    """The first two morphisms from a to b with one wagered image, as cob
    blocks M and N; the report itself when no two collide, which fails
    only for a missing plain-functor witness."""
    collision = _wagered_images(cob0_enumerate(a, b, _FUNCTOR_CIRCLES))[1]
    if collision is None:
        return report.render_text()
    return _render_all(render_cobordism, "MN", collision)


def campaign_bimod_degeneracy(
    trials: int = 1000, seed: int = 42, max_vertices: int = 5, max_edges: int = 6
) -> CampaignResult:
    """With all groups trivial, bimodular execution must equal plain
    execution of the underlying graphs."""

    def run_one(rng):
        f, g = random_pair(rng, max_vertices, max_edges)
        result = bimod_execute(BimodularGraph(f), BimodularGraph(g))
        ok = graphs_equal_flattened(result.graph, execute(f, g))
        return ok, lambda: _render_all(render_graph, "FG", (f, g))

    return _campaign("bimod-degeneracy", _seeded(trials, seed, run_one))


@functools.cache
def _perm_pool(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The permutations of ``range(k)`` whose order divides n, identity
    included, as index tuples in ``itertools.permutations`` order: the
    order fixes which instance a seed gives, as ``rng.choice`` picks by
    position.  Built once per (k, n), but it still grows like k!."""
    return tuple(p for p in itertools.permutations(range(k)) if _order_divides(p, n))


def _order_divides(perm: tuple[int, ...], n: int) -> bool:
    """Whether perm^n is the identity."""
    power = perm
    for _ in range(n - 1):
        power = tuple(perm[i] for i in power)
    return power == tuple(range(len(perm)))


def _commuting(pool, perm: tuple[int, ...]) -> list:
    """The members q of pool with q[perm[x]] == perm[q[x]] for every x, in
    pool order."""
    return [q for q in pool if all(q[a] == perm[b] for a, b in zip(perm, q))]


def _powers_action(group, ids: tuple, generator: tuple[int, ...]) -> dict:
    """Action of a cyclic group on the edge ids, sending element "k" to
    generator^k (generator permutes the positions of ids)."""
    powers = [tuple(range(len(ids)))]
    for _ in range(group.order - 1):
        powers.append(tuple(generator[i] for i in powers[-1]))
    return {el: {x: ids[i] for x, i in zip(ids, powers[int(el)])} for el in group.elements}


def _random_commuting_actions(rng: random.Random, graph: Graph, groups: dict):
    """Sample left/right action tables for every edge set, keeping the two
    sides commuting: the left action is a random cyclic-power action, the
    right generator is drawn from the centralizer of the left one."""
    left: dict = {}
    right: dict = {}
    for (v, w), ids in _edge_sets_of(graph).items():
        lgrp, rgrp = groups[v], groups[w]
        lgen = rng.choice(_perm_pool(len(ids), lgrp.order))
        rgen = rng.choice(_commuting(_perm_pool(len(ids), rgrp.order), lgen))
        left[(v, w)] = _powers_action(lgrp, ids, lgen)
        right[(v, w)] = _powers_action(rgrp, ids, rgen)
    return left, right


def random_bimodular_pair(
    rng: random.Random,
    max_vertices: int = 5,
    max_edges: int = 6,
    max_group_order: int = 4,
) -> tuple[BimodularGraph, BimodularGraph]:
    f, g = random_pair(rng, max_vertices, max_edges)
    groups: dict = {}
    for v in sorted(f.vertices | g.vertices):
        groups[v] = cyclic_group(rng.randint(1, max_group_order))
    f_left, f_right = _random_commuting_actions(rng, f, groups)
    g_left, g_right = _random_commuting_actions(rng, g, groups)
    bf = BimodularGraph(f, {v: groups[v] for v in f.vertices}, f_left, f_right)
    bg = BimodularGraph(g, {v: groups[v] for v in g.vertices}, g_left, g_right)
    return bf, bg


def campaign_bimod_well_defined(
    trials: int = 1000, seed: int = 42, max_vertices: int = 5, max_edges: int = 6
) -> CampaignResult:
    """Well-definedness of the orbit quotient on random bimodular pairs,
    with groups of order at most ``random_bimodular_pair``'s default."""

    def run_one(rng):
        bf, bg = random_bimodular_pair(rng, max_vertices, max_edges)
        report = check_well_defined(bf, bg)
        # executing also re-validates the descended boundary actions
        bimod_execute(bf, bg)
        return report.passed, lambda: _render_all(render_bimodular, "FG", (bf, bg))

    return _campaign("bimod-well-defined", _seeded(trials, seed, run_one))
