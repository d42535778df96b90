"""The README's library example and command-line examples give what the README shows."""

import ast
import math
import re
import shlex
from pathlib import Path

import pytest

from mixbench.cli import main
from mixbench.states import parse_term

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    """The first fenced ``python`` block under ``## Library use``."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    assert match is not None, "README.md has no python block under ## Library use"
    return match.group(1)


def stated_values(block: str) -> list[tuple[str, str]]:
    """Each bare expression line with the number its comment opens with."""
    stated = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not comment or not code.strip():
            continue
        if not isinstance(ast.parse(code.strip()).body[0], ast.Expr):
            continue
        number = re.match(r"\s*(-?[\d.]+(?:e[+-]?\d+)?)", comment)
        if number is not None:
            stated.append((code.strip(), number.group(1)))
    return stated


def test_library_use_block_gives_the_values_its_comments_state():
    block = library_use_block()
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)

    stated = stated_values(block)
    assert [code.split("(")[0] for code, _ in stated] == [
        "coefficient_norm",
        "fock_boson_amplitude",
    ]
    values = [eval(code, namespace) for code, _ in stated]
    assert [repr(value) for value in values] == [text for _, text in stated]
    # "closed form 2*sqrt(30)", which the scattered norm matches
    firstq, closed = values
    assert math.isclose(closed, 2 * math.sqrt(30), rel_tol=1e-15)
    assert math.isclose(firstq, closed, rel_tol=1e-12)

    # "{v v u: (its 4 paths, (ca, cb))}"
    report = namespace["report"]
    destination = parse_term("v v u")
    assert list(report) == [destination]
    paths, (ca, cb) = report[destination]
    assert len(paths) == 4
    assert ca == cb
    assert abs(ca - 2 / math.sqrt(6)) < 1e-15


def command_line_examples() -> list[tuple[str, list[str]]]:
    """Each ``$ mixbench ...`` block under ``## Command line``: its command and shown lines."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```\n(.*?)```", section, re.S):
        command, *shown = block.rstrip("\n").split("\n")
        if command.startswith("$ mixbench "):
            examples.append((command[2:], shown))
    return examples


def shown_in(shown: list[str], lines: list[str]) -> bool:
    """Whether the output lines show the README's lines.

    Without a ``...`` the output must be exactly the shown lines.  With
    one, the shown lines must appear in the output in order: a line
    ``...`` stands for lines left out, and a line that opens with ``...``
    for the head of an output line, so it matches a line that ends with
    the rest.
    """
    if not any(line.startswith("...") for line in shown):
        return lines == shown
    rest = iter(lines)
    for line in shown:
        if line == "...":
            continue
        tail = line[3:] if line.startswith("...") else None
        if not any(out == line or (tail is not None and out.endswith(tail)) for out in rest):
            return False
    return True


EXAMPLES = command_line_examples()


def test_the_command_line_section_has_every_subcommands_example():
    assert [shlex.split(command)[1] for command, _ in EXAMPLES] == [
        "run", "run", "run", "paths", "verify"
    ]


@pytest.mark.parametrize(
    "command,shown", EXAMPLES, ids=[" ".join(shlex.split(c)[1:3]) for c, _ in EXAMPLES]
)
def test_a_command_line_example_prints_the_lines_it_shows(
    capsys, monkeypatch, tmp_path, command, shown
):
    monkeypatch.chdir(tmp_path)  # where verify writes its --out report
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert code == 0
    assert shown_in(shown, out.splitlines()), out
