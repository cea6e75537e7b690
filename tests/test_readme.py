"""The README's CLI block and its campaign defaults, checked in process.

Every ``intgraphs`` line of the first ``sh`` block after ``## CLI`` must
exit 0 when run from the repository root, and each ``check`` property must
report at default flags exactly what it reports with the README's defaults
typed out.  Commands run through ``cli.main``, and campaigns through the
session's shared runs, so the golden reports and these checks pay for each
set of campaign arguments once.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from intgraphs import campaigns, cli

ROOT = Path(__file__).resolve().parent.parent

# The defaults that README.md states, typed out.  The bimodular campaigns
# cap the typed 8/8 sizes to their 5/6 defaults.
_RANDOM = "--trials 1000 --seed 42 --max-vertices 8 --max-edges 8"
TYPED_DEFAULTS = {
    "assoc": _RANDOM,
    "trefoil": _RANDOM,
    "bimod-degeneracy": _RANDOM,
    "bimod-well-defined": _RANDOM,
    "cob0-laws": "--exhaustive-bound 3",
    "functor": "--exhaustive-bound 3",
    "faithful": "--exhaustive-bound 6",
}


def run(command: str) -> tuple[int, str]:
    """``intgraphs command`` in process: its exit code and stdout.  Words
    are split at whitespace, as a shell splits an unquoted line."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(command.split())
    return code, out.getvalue()


def cli_commands(readme: str) -> list[str]:
    """The ``intgraphs`` lines of the first ``sh`` block after ``## CLI``,
    each without its comment and its leading ``intgraphs``."""
    commands = []
    section = block = False
    for line in readme.splitlines():
        if line.startswith("## CLI"):
            section = True
        if section and line.startswith("```sh"):
            block = True
        elif block and line.startswith("```"):
            break
        elif block and line.startswith("intgraphs "):
            commands.append(line.split("#", 1)[0].removeprefix("intgraphs ").strip())
    return commands


def readme_failure(readme: str) -> str | None:
    """Why the CLI block of ``readme`` fails, naming the first command that
    does not exit 0; None when every command exits 0.  Paths in the
    commands are read from the working directory."""
    commands = cli_commands(readme)
    if not commands:
        return "no intgraphs commands found in the README's CLI block"
    for command in commands:
        code = run(command)[0]
        if code != cli.EXIT_OK:
            return f"`intgraphs {command}` exits {code}, not {cli.EXIT_OK}"
    return None


def typed_defaults_difference(prop: str) -> str | None:
    """Why ``check prop`` differs from ``check prop`` with the README's
    defaults typed out, in exit code or stdout; None when they agree."""
    bare = f"check {prop}"
    typed = f"{bare} {TYPED_DEFAULTS[prop]}"
    if run(bare) != run(typed):
        return f"`intgraphs {bare}` and `intgraphs {typed}` differ in exit code or stdout"
    return None


def _check(message: str | None) -> None:
    # pytest.fail, not a helper's assert, so the check also runs under -O
    if message is not None:
        pytest.fail(message, pytrace=False)


def test_every_command_in_the_readme_cli_block_exits_0(monkeypatch, shared_campaigns):
    monkeypatch.chdir(ROOT)
    _check(readme_failure((ROOT / "README.md").read_text(encoding="utf-8")))


# a property with no typed defaults fails here with a KeyError
@pytest.mark.parametrize("prop", sorted(cli._CHECKS))
def test_default_flags_report_what_the_readmes_defaults_typed_out_report(shared_campaigns, prop):
    _check(typed_defaults_difference(prop))


def _readme(*block: str) -> str:
    return "\n".join(["# intgraphs", "", "## CLI", "", "```sh", *block, "```", ""])


def test_the_block_is_the_first_sh_block_after_the_cli_heading():
    readme = "\n".join([
        "```sh", "intgraphs dot before.graph", "```",
        "## CLI", "intgraphs dot outside.graph",
        "```sh", "# a comment", "intgraphs cob identity a b   # trailing comment",
        "  intgraphs dot indented.graph", "intgraphs check faithful", "```",
        "```sh", "intgraphs dot later.graph", "```",
    ])
    assert cli_commands(readme) == ["cob identity a b", "check faithful"]


def test_a_failing_command_fails_naming_it(monkeypatch):
    monkeypatch.chdir(ROOT)
    readme = _readme("intgraphs cob identity a", "intgraphs check assoc --no-such-flag")
    assert readme_failure(readme) == "`intgraphs check assoc --no-such-flag` exits 2, not 0"


def test_a_block_without_commands_fails():
    assert readme_failure(_readme("echo no commands here")) == (
        "no intgraphs commands found in the README's CLI block"
    )


def test_a_changed_campaign_default_fails(monkeypatch, shared_campaigns):
    monkeypatch.setattr(campaigns.campaign_faithful, "__defaults__", (5,))
    assert typed_defaults_difference("faithful") == (
        "`intgraphs check faithful` and `intgraphs check faithful --exhaustive-bound 6` "
        "differ in exit code or stdout"
    )
