"""Golden outputs: every campaign report and every sample command, checked
against the text committed under tests/golden/.

Each command runs in process through ``cli.main`` and is compared with its
entry: the exit code, stdout and stderr.  A ``check`` command's stderr
holds its running time, which is masked.  Outputs longer than ``LONG``
lines are stored as their line count and sha256.  The command lists are
built from the CLI's properties and the ``samples/`` listing, so a new
sample or property without an entry fails until the files are rewritten.

Rewrite the files after a reviewed change of output with

    PYTHONPATH=src python tests/test_golden.py

and read the diff before committing it.
"""

from __future__ import annotations

import difflib
import hashlib
import io
import os
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Iterable, NamedTuple

import pytest

from intgraphs import cli
from intgraphs.formats import parse_cobordism, parse_graph, to_dot
from intgraphs.functor import functor_bar

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
REGENERATE = "PYTHONPATH=src python tests/test_golden.py"
LONG = 200
DIFF_LINES = 20
HEADER = "$ intgraphs "
ELAPSED = re.compile(r"^elapsed \d+\.\d\ds$", re.M)


class Outcome(NamedTuple):
    code: int
    stdout: str
    stderr: str


def run(command: str) -> Outcome:
    """``intgraphs command`` in process, from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(shlex.split(command))
    finally:
        os.chdir(cwd)
    return Outcome(code, out.getvalue(), err.getvalue())


def _samples(suffix: str) -> list[str]:
    return [f"samples/{p.name}" for p in sorted((ROOT / "samples").glob(f"*{suffix}"))]


def campaign_commands() -> list[str]:
    flag_sets = ("", " --trials 200 --exhaustive-bound 2")
    return [f"check {prop}{flags}" for flags in flag_sets for prop in sorted(cli._CHECKS)]


def graph_commands() -> list[str]:
    graphs = _samples(".graph")
    commands = []
    for f in graphs:
        commands.append(f"dot {f}")
        for g in graphs:
            commands += [
                f"execute {f} {g}",
                f"execute --dot {f} {g}",
                f"execute --measure unoriented {f} {g}",
                f"measure --mode directed {f} {g}",
                f"measure --mode unoriented {f} {g}",
            ]
    return commands


def cobordism_commands() -> list[str]:
    cobs = _samples(".cob")
    commands = []
    for f in cobs:
        commands.append(f"cob functor {f}")
        for g in cobs:
            commands += [f"cob compose {f} {g}", f"cob functor {f} {g}"]
    return commands


FAMILIES = {
    "campaigns": campaign_commands,
    "sample_graphs": graph_commands,
    "sample_cobordisms": cobordism_commands,
}


def _stream(label: str, text: str) -> list[str]:
    if not text:
        return []
    lines = text.removesuffix("\n").split("\n")
    if len(lines) > LONG:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return [f"{label}: {len(lines)} lines, sha256 {digest}"]
    tail = [] if text.endswith("\n") else ["\\ no newline at end"]
    return [f"{label}:", *lines, *tail]


def entry(command: str, outcome: Outcome) -> str:
    """The golden text of one command: header, exit code, both streams."""
    stderr = outcome.stderr
    if command.startswith("check "):
        stderr = ELAPSED.sub("elapsed <masked>", stderr)
    lines = [HEADER + command, f"exit {outcome.code}"]
    return "\n".join(lines + _stream("stdout", outcome.stdout) + _stream("stderr", stderr)) + "\n"


def render(entries: Iterable[str]) -> str:
    return "\n".join(entries)


def parse(text: str) -> dict[str, str]:
    """The entries of a golden file by command; inverts ``render``."""
    chunks = re.split(rf"(?m)^(?={re.escape(HEADER)})", text)[1:]
    # every entry but the last is followed by one blank separator line
    chunks = [c[:-1] for c in chunks[:-1]] + chunks[-1:]
    return {c.split("\n", 1)[0].removeprefix(HEADER): c for c in chunks}


def first_difference(family: str, outcomes: Iterable[tuple[str, Outcome]]) -> str | None:
    """Why ``outcomes`` do not match the family's golden file, naming the
    first command that differs; None when they match.  Stops at the first
    difference, so ``outcomes`` may be a lazy stream of runs."""
    path = GOLDEN / f"{family}.txt"
    name = path.relative_to(ROOT).as_posix()
    golden_text = path.read_text(encoding="utf-8") if path.exists() else ""
    golden = parse(golden_text)
    regenerate = (
        f"if the change is intended, rewrite the file with `{REGENERATE}` and review its diff"
    )
    texts = {}
    for command, outcome in outcomes:
        text = texts[command] = entry(command, outcome)
        if command not in golden:
            return f"`intgraphs {command}` has no entry in {name}; {regenerate}"
        if golden[command] != text:
            diff = difflib.unified_diff(
                golden[command].splitlines(), text.splitlines(), name, "now", lineterm="", n=1
            )
            shown = "\n".join(list(diff)[2:2 + DIFF_LINES])
            return f"`intgraphs {command}` differs from {name}:\n{shown}\n{regenerate}"
    stale = [c for c in golden if c not in texts]
    if stale:
        return f"{name} has an entry for `intgraphs {stale[0]}`, no longer run; {regenerate}"
    if render(texts.values()) != golden_text:
        return f"{name} holds the same entries in another order or spacing; {regenerate}"
    return None


def _check(family: str, outcomes: Iterable[tuple[str, Outcome]]) -> None:
    # pytest.fail, not a helper's assert, so the check also runs under -O
    message = first_difference(family, outcomes)
    if message is not None:
        pytest.fail(message, pytrace=False)


@pytest.fixture(scope="module")
def sample_outcomes() -> dict[str, Outcome]:
    return {c: run(c) for c in graph_commands() + cobordism_commands()}


def test_campaign_reports_match_golden(shared_campaigns):
    _check("campaigns", ((c, run(c)) for c in campaign_commands()))


def test_sample_graph_outputs_match_golden(sample_outcomes):
    _check("sample_graphs", ((c, sample_outcomes[c]) for c in graph_commands()))


def test_sample_cobordism_outputs_match_golden(sample_outcomes):
    _check("sample_cobordisms", ((c, sample_outcomes[c]) for c in cobordism_commands()))


def test_every_execution_of_two_sample_graphs_reads_back_as_a_graph(sample_outcomes):
    graphs = _samples(".graph")
    executed = [sample_outcomes[f"execute {f} {g}"] for f in graphs for g in graphs]
    read_back = [parse_graph(o.stdout) for o in executed if o.code == cli.EXIT_OK]
    for name, graph in read_back:
        to_dot(name, graph)
    assert read_back


def test_every_gluing_of_two_sample_cobordisms_reads_back_as_a_cobordism(sample_outcomes):
    cobs = _samples(".cob")
    glued = [sample_outcomes[f"cob compose {f} {g}"] for f in cobs for g in cobs]
    read_back = [parse_cobordism(o.stdout) for o in glued if o.code == cli.EXIT_OK]
    for _, morphism in read_back:
        functor_bar(morphism)
    assert read_back


SAMPLE_GRAPHS = "tests/golden/sample_graphs.txt"
SAMPLE_COBORDISMS = "tests/golden/sample_cobordisms.txt"


def test_a_changed_edge_order_fails_naming_the_first_differing_command(monkeypatch):
    render_graph = cli.render_graph

    def reversed_edges(name, graph):
        lines = render_graph(name, graph).splitlines()
        edges = [line for line in lines if line.startswith("edge ")]
        rest = [line for line in lines if not line.startswith("edge ")]
        return "\n".join(rest + edges[::-1]) + "\n"

    monkeypatch.setattr(cli, "render_graph", reversed_edges)
    message = first_difference("sample_graphs", ((c, run(c)) for c in graph_commands()))
    first = "execute samples/arrow_ab.graph samples/diamond_f.graph"
    assert message is not None
    assert message.startswith(f"`intgraphs {first}` differs from {SAMPLE_GRAPHS}:\n")
    assert "\n vertex v9\n+edge f8_1 v8 v9\n" in message
    assert len(message.splitlines()) <= 2 + DIFF_LINES


def test_a_command_without_a_golden_entry_fails_with_the_rewrite_command():
    command = "cob functor samples/cap.cob samples/not_a_sample.cob"
    message = first_difference("sample_cobordisms", [(command, Outcome(2, "", "error\n"))])
    assert message == (
        f"`intgraphs {command}` has no entry in {SAMPLE_COBORDISMS}; "
        f"if the change is intended, rewrite the file with `{REGENERATE}` and review its diff"
    )


def test_stale_or_reordered_entries_fail(sample_outcomes):
    commands = cobordism_commands()
    message = first_difference("sample_cobordisms", [])
    assert message is not None
    assert message.startswith(
        f"{SAMPLE_COBORDISMS} has an entry for `intgraphs {commands[0]}`, no longer run;"
    )
    reordered = ((c, sample_outcomes[c]) for c in commands[::-1])
    message = first_difference("sample_cobordisms", reordered)
    assert message is not None
    assert message.startswith(f"{SAMPLE_COBORDISMS} holds the same entries in another order")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for family, commands in FAMILIES.items():
        text = render(entry(c, run(c)) for c in commands())
        (GOLDEN / f"{family}.txt").write_text(text, encoding="utf-8", newline="\n")
