"""Static checks of each module's imports and public names.

Every name a module or test file imports must be used in it or re-exported
through its ``__all__``, and every literal ``__all__`` entry of a module must
be bound at the top of the module, so a deleted helper cannot leave a dead
import or export behind.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "mixbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module, with its line; star imports bind none."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def top_level_names(tree: ast.Module) -> set[str]:
    names = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def literal_all(tree: ast.Module) -> list[str]:
    """Entries of a literal ``__all__`` list; a computed one is checked at run time."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)) and all(
                isinstance(e, ast.Constant) for e in node.value.elts
            ):
                return [e.value for e in node.value.elts]
    return []


def unused_imports(tree: ast.Module) -> list[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = literal_all(tree)
    return [
        f"{name} (line {line})"
        for name, line in imported_names(tree).items()
        if name not in used and name not in exported
    ]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_are_used_and_exports_are_defined(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = unused_imports(tree)
    assert not unused, f"{path.name} imports names it neither uses nor exports: {unused}"
    undefined = [name for name in literal_all(tree) if name not in top_level_names(tree)]
    assert not undefined, f"{path.name} exports names it does not define: {undefined}"


@pytest.mark.parametrize("path", TESTS, ids=[f"tests/{p.name}" for p in TESTS])
def test_test_imports_are_used(path):
    unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, f"{path.name} imports names it does not use: {unused}"


def test_package_exports_each_library_module_once():
    import mixbench

    assert len(mixbench.__all__) == len(set(mixbench.__all__))
    assert [name for name in mixbench.__all__ if not hasattr(mixbench, name)] == []
    for module in (mixbench.amplitudes, mixbench.engine, mixbench.formulas, mixbench.oracle,
                   mixbench.states):
        assert set(module.__all__) <= set(mixbench.__all__)


def imported_modules(tree: ast.Module) -> set[str]:
    """Every module an import names, relative ones by their bare name."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is not None:
                modules.add(node.module)
            # ``from . import engine`` names the module as an alias.
            modules.update(alias.name for alias in node.names)
    return {name.rpartition(".")[2] for name in modules}


@pytest.mark.parametrize("module,other", [("oracle", "engine"), ("engine", "oracle")])
def test_exact_routes_do_not_import_each_other(module, other):
    tree = ast.parse((ROOT / "src" / "mixbench" / f"{module}.py").read_text(encoding="utf-8"))
    assert other not in imported_modules(tree), f"{module}.py imports from {other}"


def test_no_module_imports_dataclasses():
    """No source module imports ``dataclasses``.

    Record types are NamedTuples and forms a slotted class: ``dataclasses``,
    with the ``inspect`` it loads, would be about half of the package's import
    time.
    """
    importing = [
        path.name
        for path in SOURCES
        if "dataclasses" in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert importing == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Counted as the modules ``import mixbench.cli`` adds, so what site loaded is not."""
    snippet = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import mixbench.cli\n"
        "print(mixbench.cli.__file__)\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True, env=env, check=True
    )
    where, added = proc.stdout.splitlines()
    assert where.startswith(src)
    assert "mixbench.cli" in added.split()
    assert {"dataclasses", "inspect"} & set(added.split()) == set()


def test_neither_the_import_nor_a_one_point_run_loads_the_pool():
    """The pool's modules are imported only for a grid that fans out."""
    snippet = (
        "import os, sys\n"
        "before = set(sys.modules)\n"
        "import mixbench.cli\n"
        "imported = set(sys.modules) - before\n"
        "code = mixbench.cli.main(['run', '--experiment', 'type1', '--statistics', 'boson',"
        " '--n1', '3', '--n2', '3', '--n3', '2', '--out', os.devnull])\n"
        "ran = set(sys.modules) - before\n"
        "print(code, mixbench.cli.__file__)\n"
        "print(' '.join(sorted(imported)))\n"
        "print(' '.join(sorted(ran)))\n"
    )
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run(
        [sys.executable, "-c", snippet], capture_output=True, text=True, env=env, check=True
    )
    status, imported, ran = proc.stdout.splitlines()
    assert status == f"0 {src}{os.sep}mixbench{os.sep}cli.py"
    pool = {"multiprocessing", "concurrent", "concurrent.futures"}
    assert "mixbench.cli" in imported.split()
    assert pool & set(imported.split()) == set()
    assert pool & set(ran.split()) == set()


@pytest.mark.parametrize("module", ["states", "oracle"])
def test_unscattered_stages_do_not_import_amplitudes(module):
    """Initial states and the oracle hold plain complex; only engine builds scattered forms."""
    tree = ast.parse((ROOT / "src" / "mixbench" / f"{module}.py").read_text(encoding="utf-8"))
    assert "amplitudes" not in imported_modules(tree), f"{module}.py imports from amplitudes"


def test_cli_decides_the_experiment_only_in_its_point_types():
    """Only the point types know an experiment's fields; the rest of cli asks them.

    A point is the whole request: both point types end in ``statistics``,
    ``RunConfig`` holds no statistics of its own, and no function takes a
    ``statistics`` argument. No function outside a class takes an
    ``experiment`` argument, and no point is read by a string key, as in
    ``point["n1"]`` or ``point.get("n")``.
    """
    from mixbench import cli

    assert [t._fields[-1] for t in cli.POINT_TYPES.values()] == ["statistics", "statistics"]
    assert "statistics" not in cli.RunConfig._fields

    tree = ast.parse((ROOT / "src" / "mixbench" / "cli.py").read_text(encoding="utf-8"))
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    }

    def takes(node: ast.FunctionDef, name: str) -> bool:
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        return name in [arg.arg for arg in args]

    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    takes_experiment = [
        node.name for node in functions if id(node) not in methods and takes(node, "experiment")
    ]
    assert takes_experiment == []
    takes_statistics = [node.name for node in functions if takes(node, "statistics")]
    assert takes_statistics == []

    fields = {"n1", "n2", "n3", "n", "epsilon"}

    def is_field(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and node.value in fields

    keyed_reads = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Subscript) and is_field(node.slice))
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
            and is_field(node.args[0])
        )
    ]
    assert keyed_reads == [], f"cli.py reads a point by string key at lines {keyed_reads}"
