"""
Command-line interface.

Subcommands: execute, measure, cob (compose | identity | functor),
check <property>, dot.  Exit codes: 0 success / property holds,
1 property violation, 2 input or precondition error, 3 infinite path or
cycle set (with a witness printed).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .campaigns import (
    campaign_associativity,
    campaign_bimod_degeneracy,
    campaign_bimod_well_defined,
    campaign_cob0_laws,
    campaign_faithful,
    campaign_functor,
    campaign_trefoil,
)
from .cob0 import cob0_compose, cob0_identity
from .execution import execute, measure
from .formats import (
    ParseError,
    parse_cobordism,
    parse_graph,
    render_cobordism,
    render_graph,
    render_project,
    to_dot,
)
from .functor import check_functoriality, functor_bar
from .graph import (
    MODES,
    GraphError,
    InfiniteCycleSetError,
    InfinitePathSetError,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INFINITE = 3


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _cmd_execute(args) -> int:
    _, g = parse_graph(_read(args.graph1))
    _, h = parse_graph(_read(args.graph2))
    result = execute(g, h)
    if args.dot:
        print(to_dot("result", result), end="")
    else:
        print(render_graph("result", result), end="")
    if args.measure:
        print(f"measure {args.measure} {measure(g, h, args.measure)}")
    return EXIT_OK


def _cmd_measure(args) -> int:
    _, g = parse_graph(_read(args.graph1))
    _, h = parse_graph(_read(args.graph2))
    print(measure(g, h, args.mode))
    return EXIT_OK


def _cmd_dot(args) -> int:
    name, g = parse_graph(_read(args.graph))
    print(to_dot(name, g), end="")
    return EXIT_OK


def _cmd_cob(args) -> int:
    if args.cob_command == "compose":
        _, m = parse_cobordism(_read(args.first))
        _, n = parse_cobordism(_read(args.second))
        print(render_cobordism("composite", cob0_compose(m, n)), end="")
        return EXIT_OK
    if args.cob_command == "identity":
        print(render_cobordism("identity", cob0_identity(args.points)), end="")
        return EXIT_OK
    # functor
    _, m = parse_cobordism(_read(args.first))
    if args.second is None:
        project = functor_bar(m)
        print(render_project("image", project), end="")
        return EXIT_OK
    _, n = parse_cobordism(_read(args.second))
    report = check_functoriality(m, n)
    print(report.render_text())
    print(report.render_line())
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _at_least(low: int):
    """An argparse type: an int no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_RANDOM = ("trials", "seed", "max_vertices", "max_edges")
# Sampling bimodular actions grows like k! in the number k of parallel
# edges, so the bimodular campaigns cap the sizes a user types.
_BIMOD = {"max_vertices": 5, "max_edges": 6}


def _typed(args, flags: tuple[str, ...] = _RANDOM, **caps: int) -> dict:
    """The typed flags among ``flags``, each capped by ``caps``.  A flag not
    typed is absent (argparse.SUPPRESS), leaving the campaign's default."""
    given = vars(args)
    return {k: min(given[k], caps.get(k, given[k])) for k in flags if k in given}


_CHECKS = {
    "assoc": lambda args: campaign_associativity(**_typed(args)),
    "trefoil": lambda args: campaign_trefoil(**_typed(args)),
    "cob0-laws": lambda args: campaign_cob0_laws(**_typed(args, ("bound",))),
    "functor": lambda args: campaign_functor(**_typed(args, ("bound",))),
    "faithful": lambda args: campaign_faithful(**_typed(args, ("bound",))),
    "bimod-degeneracy": lambda args: campaign_bimod_degeneracy(**_typed(args, **_BIMOD)),
    "bimod-well-defined": lambda args: campaign_bimod_well_defined(**_typed(args, **_BIMOD)),
}


def _cmd_check(args) -> int:
    result = _CHECKS[args.property](args)
    print(result.render_text())
    print(result.render_line())
    print(f"elapsed {result.elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK if result.ok else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intgraphs",
        description=(
            "Execute interaction graphs, glue one-dimensional cobordisms, "
            "and verify the identities connecting them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("execute", help="execute two graph files")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--measure", choices=MODES, default=None,
                   help="also print the prime-cycle count in this mode")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of text")
    p.set_defaults(func=_cmd_execute)

    p = sub.add_parser("measure", help="count prime alternating cycles")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--mode", choices=MODES, default="directed")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("dot", help="render a graph file as DOT")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("cob", help="cobordism operations")
    cob_sub = p.add_subparsers(dest="cob_command", required=True)
    pc = cob_sub.add_parser("compose", help="glue two cobordism files")
    pc.add_argument("first")
    pc.add_argument("second")
    pc.set_defaults(func=_cmd_cob)
    pi = cob_sub.add_parser("identity", help="identity cobordism on points")
    pi.add_argument("points", nargs="*")
    pi.set_defaults(func=_cmd_cob)
    pf = cob_sub.add_parser(
        "functor",
        help="image of a cobordism as a wagered graph; with two files, "
        "check functoriality of the composition",
    )
    pf.add_argument("first")
    pf.add_argument("second", nargs="?", default=None)
    pf.set_defaults(func=_cmd_cob)

    # only typed flags reach a campaign, whose signature holds the defaults
    p = sub.add_parser("check", help="run a verification campaign",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("property", choices=sorted(_CHECKS))
    p.add_argument("--trials", type=_at_least(0))
    p.add_argument("--seed", type=int)
    p.add_argument("--max-vertices", type=_at_least(1))
    p.add_argument("--max-edges", type=_at_least(1))
    p.add_argument("--exhaustive-bound", dest="bound", metavar="EXHAUSTIVE_BOUND",
                   type=_at_least(0))
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the input-error code
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (InfinitePathSetError, InfiniteCycleSetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFINITE
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
