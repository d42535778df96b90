"""The README's library example runs and gives the values its comments state."""

import ast
import math
import re
from pathlib import Path

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
