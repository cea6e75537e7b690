from __future__ import annotations

import dataclasses
import hashlib
import itertools

import pytest

from intgraphs import campaigns, execution, functor
from intgraphs.campaigns import (
    _render_triple,
    campaign_associativity,
    random_bimodular_pair,
    random_triple,
    trial_rng,
)
from intgraphs.cli import main
from intgraphs.cob0 import cob0_enumerate, cob0_identity
from intgraphs.formats import parse_cobordism, parse_graph
from intgraphs.functor import check_functoriality
from intgraphs.graph import DIRECTED, ExtNat, Graph
from intgraphs.interaction import Project


def split_blocks(text: str, keyword: str = "graph") -> list[str]:
    blocks: list[list[str]] = []
    for line in text.splitlines():
        if line.startswith(keyword + " "):
            blocks.append([])
        if line.strip() and blocks:
            blocks[-1].append(line)
    return ["\n".join(b) + "\n" for b in blocks]


def test_trial_rng_is_deterministic_and_split():
    a = trial_rng(42, 7).random()
    b = trial_rng(42, 7).random()
    c = trial_rng(42, 8).random()
    assert a == b
    assert a != c


def test_random_triple_has_empty_triple_intersection():
    for index in range(200):
        f, g, h = random_triple(trial_rng(3, index))
        assert not (f.vertices & g.vertices & h.vertices)


def test_counterexample_rendering_is_replayable():
    f, g, h = random_triple(trial_rng(11, 4))
    text = _render_triple(f, g, h)
    blocks = split_blocks(text)
    assert len(blocks) == 3
    parsed = [parse_graph(b)[1] for b in blocks]
    assert parsed == [f, g, h]


def test_random_bimodular_pairs_validate():
    # construction re-checks action axioms, so sampling must only ever
    # produce commuting tables
    for index in range(40):
        random_bimodular_pair(trial_rng(23, index))


def _bimodular_form(bgraph) -> str:
    """Edges, group names and both action tables, sorted, so the form does
    not depend on dict order."""
    edges = sorted((e.id, e.src, e.tgt) for e in bgraph.graph.edges)
    groups = sorted((v, grp.name) for v, grp in bgraph.groups.items())

    def actions(table):
        return sorted(
            (pair, sorted((el, sorted(perm.items())) for el, perm in acts.items()))
            for pair, acts in table.items()
        )

    return repr((edges, groups, actions(bgraph.left), actions(bgraph.right)))


# sha256 of the generated pairs, recorded when generators were still drawn
# from lists of every permutation of the edge set; the RNG draws and the
# pool order must not change.  The 7-edge sizes cover sets of 7 parallel
# edges.
GENERATOR_GOLDEN = {
    (42, 300, 5, 6, 4): "895b8ac2f150c4dfdcbe0e8af162604cc6327a3564ee5f1aa498983337ec9fd3",
    (20231029, 300, 5, 6, 4): "fb4e16f6632db1662f6697a17618c76afe479b5038eae7ff000603af44528edb",
    (42, 50, 5, 7, 4): "59aa04b89cb7088241cbcf685e4ecd671c1dabd986cbbd75fe67c58fe8ea4eb3",
}


@pytest.mark.parametrize("key", sorted(GENERATOR_GOLDEN))
def test_random_bimodular_pairs_are_unchanged(key):
    seed, trials, *sizes = key
    digest = hashlib.sha256()
    for index in range(trials):
        for bgraph in random_bimodular_pair(trial_rng(seed, index), *sizes):
            digest.update(_bimodular_form(bgraph).encode() + b"\n")
    assert digest.hexdigest() == GENERATOR_GOLDEN[key]


def _order(perm: tuple) -> int:
    identity = tuple(range(len(perm)))
    power, order = perm, 1
    while power != identity:
        power = tuple(perm[i] for i in power)
        order += 1
    return order


@pytest.mark.parametrize("k", range(1, 6))
def test_perm_pools_match_brute_force(k):
    perms = list(itertools.permutations(range(k)))
    identity = tuple(range(k))
    for n in range(1, 5):
        pool = campaigns._perm_pool(k, n)
        assert list(pool) == [p for p in perms if n % _order(p) == 0]
        # the identity is in every pool and commutes with everything, so a
        # right generator can always be drawn
        assert identity in pool
        for m in range(1, 5):
            for perm in campaigns._perm_pool(k, m):
                commuting = campaigns._commuting(pool, perm)
                assert commuting == [
                    q for q in pool
                    if tuple(q[perm[x]] for x in range(k))
                    == tuple(perm[q[x]] for x in range(k))
                ]
                assert identity in commuting


def test_campaign_counts_are_consistent():
    result = campaign_associativity(trials=50, seed=3)
    assert result.passed + result.failed + result.skipped == result.trials
    assert "campaign=associativity" in result.render_line()


@pytest.mark.parametrize(
    "campaign, budget",
    [
        (campaigns.campaign_associativity, "trials"),
        (campaigns.campaign_trefoil, "trials"),
        (campaigns.campaign_cob0_laws, "bound"),
        (campaigns.campaign_functor, "bound"),
        (campaigns.campaign_faithful, "bound"),
        (campaigns.campaign_bimod_degeneracy, "trials"),
        (campaigns.campaign_bimod_well_defined, "trials"),
    ],
)
@pytest.mark.parametrize("value", [-1, True])
def test_campaigns_reject_a_budget_that_is_no_count(campaign, budget, value):
    with pytest.raises(ValueError, match=f"^{budget} must be an int >= 0, got {value!r}$"):
        campaign(**{budget: value})


# Reports recorded before the exhaustive campaigns were moved onto the
# shared campaign loop: render_text() then render_line().
GOLDEN = {
    "assoc": (
        lambda: campaigns.campaign_associativity(40, 5, max_vertices=5, max_edges=6),
        """\
associativity: PASS
  trials  = 40
  passed  = 36
  failed  = 0
  skipped = 4 (infinite instances)
campaign=associativity verdict=PASS trials=40 passed=36 failed=0 skipped=4""",
    ),
    "trefoil": (
        lambda: campaigns.campaign_trefoil(40, 5, max_vertices=5, max_edges=6),
        """\
trefoil: PASS
  trials  = 40
  passed  = 29
  failed  = 0
  skipped = 11 (infinite instances)
campaign=trefoil verdict=PASS trials=40 passed=29 failed=0 skipped=11""",
    ),
    "cob0-laws": (
        lambda: campaigns.campaign_cob0_laws(bound=2),
        """\
cob0-laws: PASS
  trials  = 566
  passed  = 566
  failed  = 0
  skipped = 0 (infinite instances)
  associativity_triples = 552
  identity_morphisms = 14
campaign=cob0-laws verdict=PASS trials=566 passed=566 failed=0 skipped=0 associativity_triples=552 identity_morphisms=14""",
    ),
    "functor": (
        lambda: campaigns.campaign_functor(bound=2),
        """\
functor: PASS
  trials  = 189
  passed  = 189
  failed  = 0
  skipped = 0 (infinite instances)
  directed_is_twice_unoriented = True
campaign=functor verdict=PASS trials=189 passed=189 failed=0 skipped=0 directed_is_twice_unoriented=True""",
    ),
    "faithful": (
        lambda: campaigns.campaign_faithful(bound=4),
        """\
faithful: PASS
  trials  = 15
  passed  = 15
  failed  = 0
  skipped = 0 (infinite instances)
  images_by_boundary_size = {0: 3, 2: 3, 4: 9}
campaign=faithful verdict=PASS trials=15 passed=15 failed=0 skipped=0 images_by_boundary_size={0: 3, 2: 3, 4: 9}""",
    ),
    "bimod-degeneracy": (
        lambda: campaigns.campaign_bimod_degeneracy(trials=30, seed=5),
        """\
bimod-degeneracy: PASS
  trials  = 30
  passed  = 29
  failed  = 0
  skipped = 1 (infinite instances)
campaign=bimod-degeneracy verdict=PASS trials=30 passed=29 failed=0 skipped=1""",
    ),
    "bimod-well-defined": (
        lambda: campaigns.campaign_bimod_well_defined(trials=20, seed=5),
        """\
bimod-well-defined: PASS
  trials  = 20
  passed  = 19
  failed  = 0
  skipped = 1 (infinite instances)
campaign=bimod-well-defined verdict=PASS trials=20 passed=19 failed=0 skipped=1""",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_campaign_reports_are_unchanged(name):
    run, expected = GOLDEN[name]
    result = run()
    assert result.trials == result.passed + result.failed + result.skipped
    assert result.render_text() + "\n" + result.render_line() == expected


def test_campaign_draws_cases_lazily():
    drawn = []

    def cases():
        for i in range(5):
            drawn.append(i)
            # passes only if no later case was drawn before this one ran
            yield lambda i=i: (len(drawn) == i + 1, lambda: f"case {i}")

    result = campaigns._campaign("lazy", cases())
    assert (result.trials, result.passed, result.failed) == (5, 5, 0)


def _is_identity(m) -> bool:
    return m == cob0_identity(m.source)


def test_cob0_laws_identity_failure_replays(monkeypatch, capsys):
    real = campaigns.cob0_compose

    def one_circle_too_many(m, n):
        out = real(m, n)
        return dataclasses.replace(out, circles=out.circles + 1)

    monkeypatch.setattr(campaigns, "cob0_compose", one_circle_too_many)
    result = campaigns.campaign_cob0_laws(bound=1)
    assert result.verdict == "FAIL"
    assert result.trials == result.passed + result.failed + result.skipped
    [block] = split_blocks(result.counterexample, "cob")
    _, m = parse_cobordism(block)
    assert one_circle_too_many(cob0_identity(m.source), m) != m

    assert main(["check", "cob0-laws", "--exhaustive-bound", "1"]) == 1
    out = capsys.readouterr().out
    assert "cob0-laws: FAIL" in out and result.counterexample in out


def test_cob0_laws_associativity_failure_replays(monkeypatch):
    real = campaigns.cob0_compose

    def lopsided(m, n):
        # identities still compose correctly, so only associativity can fail
        out = real(m, n)
        if _is_identity(m) or _is_identity(n):
            return out
        return dataclasses.replace(out, circles=out.circles + len(m.source))

    monkeypatch.setattr(campaigns, "cob0_compose", lopsided)
    result = campaigns.campaign_cob0_laws(bound=2)
    assert result.verdict == "FAIL"
    # the notes count cases, whatever their verdicts
    assert result.notes == {"identity_morphisms": 14, "associativity_triples": 552}
    m, n, p = (parse_cobordism(b)[1] for b in split_blocks(result.counterexample, "cob"))
    assert lopsided(lopsided(m, n), p) != lopsided(m, lopsided(n, p))


def test_functor_failure_replays(monkeypatch, capsys):
    real = functor.cob0_compose

    def one_circle_too_many(m, n):
        out = real(m, n)
        return dataclasses.replace(out, circles=out.circles + 1)

    monkeypatch.setattr(functor, "cob0_compose", one_circle_too_many)
    result = campaigns.campaign_functor(bound=1)
    assert result.verdict == "FAIL"
    assert result.failed == result.trials
    m, n = (parse_cobordism(b)[1] for b in split_blocks(result.counterexample, "cob"))
    assert not check_functoriality(m, n).passed
    # every pair fails, and the report keeps the first: the empty pair
    empty = frozenset()
    assert m == n == cob0_enumerate(empty, empty, 2)[0]

    assert main(["check", "functor", "--exhaustive-bound", "1"]) == 1
    out = capsys.readouterr().out
    assert "functor: FAIL" in out and result.counterexample in out


def test_faithful_failure_replays(monkeypatch, capsys):
    # plant a fault: every morphism has the same wagered image
    constant = lambda m: Project(ExtNat(0), Graph.empty())
    monkeypatch.setattr(functor, "functor_bar", constant)
    result = campaigns.campaign_faithful(bound=2)
    assert result.verdict == "FAIL"
    m, n = (parse_cobordism(b)[1] for b in split_blocks(result.counterexample, "cob"))
    # the first hom-set, from the empty object to itself, collides first
    empty = frozenset()
    assert [m, n] == cob0_enumerate(empty, empty, 2)[:2]

    assert main(["check", "faithful", "--exhaustive-bound", "2"]) == 1
    out = capsys.readouterr().out
    assert "faithful: FAIL" in out and result.counterexample in out


def test_faithful_missing_witness_prints_the_report(monkeypatch):
    # plant a fault: every morphism has its own graph, so no two share one
    monkeypatch.setattr(functor, "functor_bar", lambda m: Project(ExtNat(0), Graph({m})))
    result = campaigns.campaign_faithful(bound=0)
    assert result.verdict == "FAIL"
    assert "error = expected a graph-only collision witness" in result.counterexample


def test_trefoil_failure_replays(monkeypatch, capsys):
    real_check, real_cycles = campaigns.check_trefoil, execution.prime_cycles
    g_and_h = [None, None]

    def recording_check(f, g, h, mode):
        g_and_h[:] = [g, h]
        return real_check(f, g, h, mode)

    def one_cycle_too_many_in_g_h(a, b, mode):
        # C(G, H) gains a cycle, so the left side exceeds the right by one
        cycles = real_cycles(a, b, mode)
        if a is g_and_h[0] and b is g_and_h[1]:
            return cycles + [None]
        return cycles

    monkeypatch.setattr(campaigns, "check_trefoil", recording_check)
    monkeypatch.setattr(execution, "prime_cycles", one_cycle_too_many_in_g_h)
    result = campaigns.campaign_trefoil(40, 5, max_vertices=5, max_edges=6)
    assert result.verdict == "FAIL"
    # every finite trial fails: the unpatched campaign passes 29, skips 11
    assert (result.passed, result.failed, result.skipped) == (0, 29, 11)
    f, g, h = (parse_graph(b)[1] for b in split_blocks(result.counterexample))
    report = recording_check(f, g, h, DIRECTED)
    assert not report.passed
    assert report.details["lhs"] == report.details["rhs"] + 1

    args = ["--trials", "40", "--seed", "5", "--max-vertices", "5", "--max-edges", "6"]
    assert main(["check", "trefoil", *args]) == 1
    out = capsys.readouterr().out
    assert "trefoil: FAIL" in out and result.counterexample in out

    monkeypatch.undo()
    assert real_check(f, g, h, DIRECTED).passed


def test_functor_verdict_requires_directed_twice_unoriented(monkeypatch):
    real = functor.check_functoriality

    def broken_measure(m, n):
        report = real(m, n)
        details = dict(report.details, directed_is_twice_unoriented=False)
        return dataclasses.replace(report, details=details)

    monkeypatch.setattr(campaigns, "check_functoriality", broken_measure)
    result = campaigns.campaign_functor(bound=1)
    assert result.failed == result.trials
    assert result.notes["directed_is_twice_unoriented"] is False
