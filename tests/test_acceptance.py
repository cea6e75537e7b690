"""Acceptance suite: every release criterion at its stated bound.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
Criteria 1-5 and 8 run their campaigns through the session's shared runs
(``campaign_run`` in conftest.py), which the golden reports reuse.
"""

from __future__ import annotations

import random
from pathlib import Path

from intgraphs.bimodular import BimodularGraph, bimod_compose2, cyclic_group
from intgraphs.campaigns import (
    campaign_associativity,
    campaign_bimod_degeneracy,
    campaign_bimod_well_defined,
    campaign_cob0_laws,
    campaign_faithful,
    campaign_functor,
    campaign_trefoil,
    random_pair,
    trial_rng,
)
from intgraphs.execution import graphs_equal_flattened
from intgraphs.formats import parse_cobordism
from intgraphs.functor import functor_bar
from intgraphs.graph import (
    DIRECTED,
    ExtNat,
    Graph,
    InfiniteCycleSetError,
    InfinitePathSetError,
    alternating_paths,
    prime_cycles,
)
from intgraphs.interaction import (
    IntMorphism,
    Project,
    cod_vertex,
    dom_vertex,
    int_compose,
    int_identity,
    project_execute,
    project_unit,
)

from oracle import FINITE, INFINITE, erased_endpoints, oracle_cycles, oracle_paths

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def random_int_morphism(rng: random.Random, max_points: int, max_edges: int) -> IntMorphism:
    dom = frozenset(f"a{i}" for i in range(rng.randint(0, max_points)))
    cod = frozenset(f"b{i}" for i in range(rng.randint(0, max_points)))
    vertices = [dom_vertex(a) for a in sorted(dom)] + [
        cod_vertex(b) for b in sorted(cod)
    ]
    n = rng.randint(0, max_edges) if vertices else 0
    edges = [
        (f"e{i}", rng.choice(vertices), rng.choice(vertices))
        for i in range(n)
    ]
    return IntMorphism(dom, cod, Graph(vertices, edges))


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_associativity_campaign(campaign_run):
    result = campaign_run(
        campaign_associativity, trials=1000, seed=42, max_vertices=8, max_edges=8
    )
    ok = (result.passed, result.failed, result.skipped) == (846, 0, 154)
    ok = ok and result.elapsed < 30.0
    _report(
        1,
        ok,
        f"associativity of execution on 1000 seeded triples "
        f"(passed={result.passed}, skipped={result.skipped}, "
        f"elapsed={result.elapsed:.2f}s)",
    )


def test_criterion_2_trefoil_campaign(campaign_run):
    result = campaign_run(
        campaign_trefoil, trials=1000, seed=42, max_vertices=8, max_edges=8
    )
    ok = (result.passed, result.failed, result.skipped) == (603, 0, 397)
    ok = ok and result.elapsed < 30.0
    _report(
        2,
        ok,
        f"trefoil identity (directed) on 1000 seeded triples "
        f"(passed={result.passed}, skipped={result.skipped}, "
        f"elapsed={result.elapsed:.2f}s)",
    )


def test_criterion_3_cob0_category_laws(campaign_run):
    result = campaign_run(campaign_cob0_laws, bound=3)
    ok = (result.passed, result.failed, result.skipped) == (43_064, 0, 0)
    ok = ok and result.elapsed < 60.0
    _report(
        3,
        ok,
        f"gluing category laws, exhaustive to size 3 with circles <= 1 "
        f"(associativity triples={result.notes['associativity_triples']}, "
        f"identity morphisms={result.notes['identity_morphisms']}, "
        f"passed={result.passed}, elapsed={result.elapsed:.2f}s)",
    )


def test_criterion_4_functoriality(campaign_run):
    result = campaign_run(campaign_functor, bound=3)
    ok = (result.passed, result.failed, result.skipped) == (3_240, 0, 0)
    ok = ok and result.notes["directed_is_twice_unoriented"]
    _report(
        4,
        ok,
        f"functoriality (graph + circle equations) on {result.trials} "
        f"compositions (passed={result.passed}), directed measure = 2 x "
        f"unoriented on all",
    )


def test_criterion_5_faithfulness(campaign_run):
    result = campaign_run(campaign_faithful, bound=6)
    images = result.notes["images_by_boundary_size"]
    ok = (result.passed, result.failed, result.skipped) == (28, 0, 0)
    ok = ok and images.get(6) == 45

    # the wager-free functor is NOT injective: same segments, circles 2 vs 0
    with_circles = parse_cobordism(
        (SAMPLES / "three_strands_two_circles.cob").read_text()
    )[1]
    without = parse_cobordism(
        (SAMPLES / "three_strands_no_circles.cob").read_text()
    )[1]
    p2, p0 = functor_bar(with_circles), functor_bar(without)
    ok = ok and p2.graph == p0.graph
    ok = ok and p2.wager == ExtNat(2) and p0.wager == ExtNat(0)
    _report(
        5,
        ok,
        f"wagered functor injective on hom-sets to boundary size 6 "
        f"(passed={result.passed}, images at 6: {images.get(6)}); wager-free "
        f"functor collapses the "
        f"circles-2/circles-0 pair",
    )


def test_criterion_6_figure_reproduction():
    _, m = parse_cobordism((SAMPLES / "three_strands_two_circles.cob").read_text())
    project = functor_bar(m)
    expected_pairs = {
        frozenset({dom_vertex("a1"), cod_vertex("b3")}),
        frozenset({dom_vertex("a2"), dom_vertex("a3")}),
        frozenset({cod_vertex("b1"), cod_vertex("b2")}),
    }
    endpoints = {(e.src, e.tgt) for e in project.graph.edges}
    ok = len(project.graph.edges) == 6
    ok = ok and {frozenset(p) for p in endpoints} == expected_pairs
    ok = ok and all((t, s) in endpoints for s, t in endpoints)
    ok = ok and project.wager == ExtNat(2)
    _report(
        6,
        ok,
        "three-strand cobordism file maps to the expected symmetric "
        "six-edge graph with wager 2",
    )


def test_criterion_7_finiteness_detector_matches_oracle():
    trials = 500
    mismatches = 0
    for index in range(trials):
        rng = trial_rng(20_25, index)
        g, h = random_pair(rng, max_vertices=5, max_edges=8)

        try:
            paths = alternating_paths(g, h)
            path_verdict, detected = FINITE, {
                tuple((s, e.id) for s, e in p.steps) for p in paths
            }
        except InfinitePathSetError:
            path_verdict, detected = INFINITE, None
        oracle_verdict, walks = oracle_paths(g, h)
        if path_verdict != oracle_verdict or (
            path_verdict == FINITE and detected != walks
        ):
            mismatches += 1

        try:
            classes = prime_cycles(g, h, DIRECTED)
            cycle_verdict = FINITE
            canon = frozenset(
                tuple((s, e.id) for s, e in c.steps) for c in classes
            )
        except InfiniteCycleSetError:
            cycle_verdict, canon = INFINITE, None
        oracle_cycle_verdict, oracle_set = oracle_cycles(g, h)
        if cycle_verdict != oracle_cycle_verdict or (
            cycle_verdict == FINITE and canon != oracle_set
        ):
            mismatches += 1
    _report(
        7,
        mismatches == 0,
        f"path and cycle finiteness detectors agree with the brute-force "
        f"enumerator on {trials} random pairs (mismatches={mismatches})",
    )


def test_criterion_8_bimodular(campaign_run):
    degeneracy = campaign_run(campaign_bimod_degeneracy, trials=500, seed=42)
    ok = (degeneracy.passed, degeneracy.failed, degeneracy.skipped) == (472, 0, 28)

    # cyclic-2 swap against a single trivially-acted edge: one orbit
    f_graph = Graph({"v", "m"}, [("e1", "v", "m"), ("e2", "v", "m")])
    g_graph = Graph({"m", "w"}, [("f", "m", "w")])
    z2 = cyclic_group(2)
    f = BimodularGraph(
        f_graph, groups={"m": z2}, right={("v", "m"): {"1": {"e1": "e2", "e2": "e1"}}}
    )
    g = BimodularGraph(g_graph, groups={"m": z2})
    ok = ok and len(bimod_compose2(f, g).graph.edges) == 1

    well_defined = campaign_run(campaign_bimod_well_defined, trials=200, seed=42)
    ok = ok and (well_defined.passed, well_defined.failed, well_defined.skipped) == (192, 0, 8)
    _report(
        8,
        ok,
        f"bimodular degeneracy on 500 instances "
        f"(passed={degeneracy.passed}, skipped={degeneracy.skipped}); swap "
        f"example gives 1 composite edge; well-definedness on 200 instances "
        f"(passed={well_defined.passed}, skipped={well_defined.skipped})",
    )


def test_criterion_9_unit_laws():
    # project unit, deterministic and randomized
    ok = True
    for index in range(50):
        g, _ = random_pair(trial_rng(99, index), max_vertices=4, max_edges=5)
        p = Project(index % 5, g)
        left = project_execute(project_unit(), p)
        right = project_execute(p, project_unit())
        ok = ok and left.wager == p.wager == right.wager
        ok = ok and graphs_equal_flattened(left.graph, p.graph)
        ok = ok and graphs_equal_flattened(right.graph, p.graph)

    # identity laws up to identity-edge erasure on 200 random morphisms
    checked = 0
    for index in range(200):
        rng = trial_rng(7, index)
        m = random_int_morphism(rng, max_points=3, max_edges=6)
        try:
            right_composed = int_compose(m, int_identity(m.cod))
            left_composed = int_compose(int_identity(m.dom), m)
        except InfinitePathSetError:
            continue
        checked += 1
        ok = ok and erased_endpoints(right_composed) == erased_endpoints(m)
        ok = ok and erased_endpoints(left_composed) == erased_endpoints(m)
    _report(
        9,
        ok and checked > 0,
        f"project unit two-sided on 50 instances; identity laws up to "
        f"identity-edge erasure on {checked} morphisms",
    )
