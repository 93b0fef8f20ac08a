"""Source hygiene: every name a library or test module imports is used in
it, no library module reaches into the private names of ``intervals`` or
``splinter``, the harness alone renders decimals and splinter rows, and
builds splinter rows and run traces in one place each, one function
refines a bracket of alpha and one takes a closed-form floor in it, one
module holds the scale of alpha's integer keys, one function reads the
depth of a tailed set, a check of a splinter run reads its map from the
run, and one function gives the steps of a splinter run."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ergolab"
# __init__.py imports names only to re-export them
MODULES = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py")))


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_imports(tree) == []


def private_imports(tree: ast.Module, module: str) -> list[str]:
    """The ``_``-prefixed names that ``tree`` imports from the ergolab
    module ``module``."""
    return sorted(f"{alias.name} (line {node.lineno})"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.module == f"ergolab.{module}"
                       or (node.level == 1 and node.module == module))
                  for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_private_interval_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert private_imports(tree, "intervals") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_private_splinter_imports(path):
    # the recursion hands the harness its records, not its helpers
    tree = ast.parse(path.read_text(), filename=str(path))
    assert private_imports(tree, "splinter") == []


def importers(name: str) -> set[str]:
    """The library modules but ``__init__.py`` that import ``name``."""
    return {path.name for path in MODULES if path.parent == SRC
            and any(alias.name == name
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names)}


def test_harness_alone_renders_splinter_rows():
    # ``splinter`` computes the recursion; the harness writes every trace
    assert importers("render") == {"harness.py"}
    assert "splinter.py" not in importers("groupby") | importers("Callable")
    tree = ast.parse((SRC / "harness.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {"_once", "trace_rows", "Rows"} <= defined


def harness_callers(name: str) -> set[str]:
    """The functions of ``harness.py`` that call ``name``."""
    tree = ast.parse((SRC / "harness.py").read_text())
    return {fn.name for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == name}


def test_harness_builds_splinter_rows_through_trace_rows():
    # the success path and the error path of ``run`` render the same rows
    assert ".row(" not in (SRC / "harness.py").read_text()
    assert harness_callers("trace_rows") == {"_run_splinter", "run"}


def test_harness_builds_traces_in_run_and_demo_only():
    # commands return (records, summary); ``run`` adds the one header
    assert harness_callers("RunTrace") == {"run", "demo_kakutani"}


def callers(name: str) -> set[str]:
    """``module.py:Class.method`` (or ``:function``) for each piece of
    library code that calls ``name(...)`` or ``x.name(...)``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                sep = "" if scope.endswith(":") else "."
                visit(child, f"{scope}{sep}{child.name}")
                continue
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "attr", None),
                    getattr(child.func, "id", None)):
                found.add(scope)
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.name}:")
    return found


def test_one_rounding_path():
    # README: Scalar.floor, and mod1 through it, is the one place that
    # still approximates alpha; the decimal rendering is in closed form
    assert callers("bounds") == {"scalars.py:Scalar.floor"}


def test_one_closed_form():
    # every closed-form floor in alpha is ``_floor_of``; ``bounds`` reads
    # its brackets off an isqrt of its own
    assert callers("isqrt") == {"scalars.py:_floor_of",
                                "scalars.py:IrrationalTag.bounds"}


def test_one_key_scale():
    # the scale of the integer keys of alpha points is ``_floor_key``'s;
    # a walk over the keys reads it from there
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if any(type(node.value) is int and node.value == 62
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Constant))] == ["scalars.py"]


def test_one_tail_depth_rule():
    # a tailed operation and ``_assemble`` read their depths from
    # ``_depths_for``; ``_clip`` reads one gap of the tail-free operand
    assert callers("_depth_for_gap") == {"intervals.py:_depths_for",
                                         "intervals.py:_clip"}


def parameter_types(path: Path) -> dict[str, list[set[str]]]:
    """For each public module-level function of ``path``, the names that
    the annotation of each of its parameters mentions."""
    tree = ast.parse(path.read_text())
    return {fn.name: [{node.id for node in ast.walk(arg.annotation)
                       if isinstance(node, ast.Name)}
                      if arg.annotation else set()
                      for arg in (fn.args.posonlyargs + fn.args.args
                                  + fn.args.kwonlyargs)]
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")}


@pytest.mark.parametrize("name", ["splinter.py", "caratheodory.py"])
def test_checks_read_the_map_from_the_run(name):
    # a run carries the T that produced it; a second T could disagree
    found = parameter_types(SRC / name)
    assert all(all(types) for types in found.values())  # all annotated
    assert [fn for fn, types in found.items()
            if any("SplinterDecomposition" in t for t in types)
            and any("Transformation" in t for t in types)] == []


def called_names(path: Path) -> dict[str, set[str]]:
    """For each module-level function of ``path``, the names it calls:
    ``f`` for ``f(...)`` and ``m`` for ``x.m(...)``."""
    tree = ast.parse(path.read_text())
    return {fn.name: {node.func.id if isinstance(node.func, ast.Name)
                      else node.func.attr
                      for node in ast.walk(fn) if isinstance(node, ast.Call)
                      and isinstance(node.func, (ast.Name, ast.Attribute))}
            for fn in tree.body if isinstance(fn, ast.FunctionDef)}


def test_splinter_steps_come_from_runs():
    # ``_runs`` picks each step's source, a walk or a preimage; ``splinter``
    # keeps the records, the checks and the stops
    calls = called_names(SRC / "splinter.py")
    assert {fn for fn, names in calls.items()
            if "ShiftSteps" in names} == {"_runs"}
    assert "_runs" in calls["splinter"]
    assert not {"ShiftSteps", "preimage"} & calls["splinter"]
