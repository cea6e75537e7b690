"""Texts that name items of a set must not depend on the hash seed: each
snippet runs in fresh interpreters under several seeds and must print the
same text every time."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import intgraphs

SEEDS = ("0", "1", "2", "3")


def _outputs(snippet: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(Path(intgraphs.__file__).resolve().parent.parent))
    outputs = []
    for seed in SEEDS:
        env["PYTHONHASHSEED"] = seed
        run = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(snippet)],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(run.stdout)
    return outputs


ERRORS = """
    from intgraphs.bimodular import BimodularGraph, bimod_execute, cyclic_group
    from intgraphs.cob0 import Cob0Morphism, cob0_morphism, decompose_segment
    from intgraphs.graph import Graph

    def message(call, *args):
        try:
            call(*args)
        except ValueError as exc:
            print(exc)
        else:
            raise AssertionError("no error")

    middle = Graph([f"m{i}" for i in range(6)])
    f = BimodularGraph(middle, {v: cyclic_group(2) for v in middle.vertices})
    g = BimodularGraph(middle, {v: cyclic_group(3) for v in middle.vertices})
    message(bimod_execute, f, g)

    src = lambda *labels: [("src", x) for x in labels]
    three_points = frozenset(src("a", "b", "c"))
    message(Cob0Morphism, frozenset("abcdef"), frozenset("x"),
            frozenset([three_points, frozenset([("tgt", "x")]), frozenset(src("d", "e"))]))
    ring = frozenset(frozenset(src(x, y)) for x, y in zip("abcdef", "bcdefa"))
    message(Cob0Morphism, frozenset("abcdef"), frozenset(), ring)

    m = cob0_morphism({"a1", "a2"}, {"b1", "b2"}, [src("a1", "a2"), [("tgt", "b1"), ("tgt", "b2")]])
    n = cob0_morphism({"b1", "b2"}, {"c1", "c2"}, [src("b1", "b2"), [("tgt", "c1"), ("tgt", "c2")]])
    message(decompose_segment, m, n, frozenset(src("a1", "zz")))
    message(decompose_segment, m, n, frozenset([("src", "a1"), ("tgt", "c1")]))
"""


def test_error_messages_do_not_depend_on_the_hash_seed():
    first, *rest = _outputs(ERRORS)
    assert rest == [first] * len(rest)
    assert first.splitlines() == [
        "groups at shared vertex 'm0' differ: FiniteGroup('cyclic:2', order 2) vs "
        "FiniteGroup('cyclic:3', order 3)",
        "pair [('src', 'a'), ('src', 'b'), ('src', 'c')] must contain two distinct points",
        "boundary point ('src', 'a') occurs in two pairs",
        "[('src', 'a1'), ('src', 'zz')] is not two outer boundary points",
        "[('src', 'a1'), ('tgt', 'c1')] is not a pair of the composite",
    ]


def test_faithfulness_collision_does_not_depend_on_the_hash_seed():
    first, *rest = _outputs("""
        from intgraphs import functor
        from intgraphs.graph import ExtNat, Graph
        from intgraphs.interaction import Project

        # a planted fault: every morphism has the same image
        functor.functor_bar = lambda m: Project(ExtNat(0), Graph.empty())
        report = functor.check_faithfulness({"a0", "a1"}, {"b0", "b1"}, 0)
        print(report.details["first_collision"])
    """)
    assert rest == [first] * len(rest)
    assert first.startswith("(Cob0Morphism(source=['a0', 'a1'], target=['b0', 'b1'], pairs=[[")
