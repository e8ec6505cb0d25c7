"""Source checks: every module keeps every invariant under python -O,
host-graph searches live in graph.py, and the solver calls no public step
that checks its input.

A bare assert and an `if __debug__:` block both vanish when Python runs
with -O, so an invariant kept that way silently stops being checked.  An
invariant is tested one way, through errors.require.  A module that walks
the host's adjacency lists itself keeps a private copy of a search that
graph.py already has; only the verifiers in oracle.py keep their own.
"""

import ast
from pathlib import Path

import pytest

import pathpack

SRC = Path(pathpack.__file__).parent


def optimize_only_checks(source: str) -> list[str]:
    """Line-tagged asserts and __debug__ names in the given source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            out.append(f"line {node.lineno}: assert")
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            out.append(f"line {node.lineno}: __debug__")
    return out


def unrequired_checks(source: str) -> list[str]:
    """Line-tagged `if` statements that raise InternalInvariantError, which
    errors.require spells in one call."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and any(
                isinstance(stmt, ast.Raise) and stmt.exc is not None
                and "InternalInvariantError" in ast.unparse(stmt.exc)
                for stmt in node.body):
            out.append(f"line {node.lineno}: if-raise")
    return out


MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def test_every_module_is_scanned():
    assert {"augment", "frame", "model", "topominor", "tripod"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_optimize_only_checks(module):
    assert optimize_only_checks((SRC / f"{module}.py").read_text()) == []


def test_detector_sees_both_forms():
    source = "assert x\nif __debug__:\n    y()\n"
    assert optimize_only_checks(source) == ["line 1: assert",
                                            "line 2: __debug__"]


# errors.require is the one place that spells the check out
@pytest.mark.parametrize("module", [m for m in MODULES if m != "errors"])
def test_module_tests_invariants_with_require(module):
    assert unrequired_checks((SRC / f"{module}.py").read_text()) == []


def test_require_detector_sees_an_if_raise():
    source = ("if bad:\n    raise InternalInvariantError('x')\n"
              "try:\n    f()\nexcept PreconditionError as exc:\n"
              "    raise InternalInvariantError('y') from exc\n")
    assert unrequired_checks(source) == ["line 1: if-raise"]


def host_adjacency_readers(source: str) -> list[str]:
    """Top-level functions and methods of the given source that read g.adj,
    the host graph's adjacency lists, each named once."""
    out = []
    for top in ast.parse(source).body:
        defs = top.body if isinstance(top, ast.ClassDef) else [top]
        for node in defs:
            if not isinstance(node, ast.FunctionDef):
                continue
            if any(isinstance(sub, ast.Attribute) and sub.attr == "adj"
                   and isinstance(sub.value, ast.Name) and sub.value.id == "g"
                   for sub in ast.walk(node)):
                out.append(node.name)
    return out


# tripod._rounds counts a region endpoint's neighbors and picks one; that
# is no search
HOST_ADJACENCY_READERS = {"tripod": ["_rounds"]}


@pytest.mark.parametrize("module", [m for m in MODULES
                                    if m not in ("graph", "oracle")])
def test_host_searches_live_in_graph(module):
    assert (host_adjacency_readers((SRC / f"{module}.py").read_text())
            == HOST_ADJACENCY_READERS.get(module, []))


def test_adjacency_detector_names_the_reading_functions():
    source = ("def f(g):\n    return g.adj[0]\n"
              "def h(tree):\n    return tree.adj\n"
              "class C:\n    def m(self, g):\n        adj = g.adj\n")
    assert host_adjacency_readers(source) == ["f", "m"]


# The public steps check their input before they run; the solver has built
# and checked each of those inputs itself, so it calls the private bodies.
CHECKED_STEPS = {"extend_or_hit", "frame_to_packing", "fat_to_clean",
                 "augment", "fatness", "is_clean"}


def checked_step_calls(source: str, functions: set[str]) -> list[str]:
    """Line-tagged calls of the input-checking public steps inside the
    named top-level functions of the given source."""
    out = []
    for top in ast.parse(source).body:
        if not (isinstance(top, ast.FunctionDef) and top.name in functions):
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name in CHECKED_STEPS:
                out.append(f"line {node.lineno}: {name}")
    return out


def test_solver_path_calls_no_checked_step():
    source = (SRC / "frame.py").read_text()
    assert checked_step_calls(source, {"solve", "_round"}) == []


def test_checked_step_detector_sees_plain_and_module_calls():
    source = ("def solve(g):\n    return fat_to_clean(g)\n"
              "def _round(g):\n    model.augment(g)\n    _augment(g)\n"
              "def other(g):\n    is_clean(g)\n")
    assert checked_step_calls(source, {"solve", "_round"}) == [
        "line 2: fat_to_clean", "line 4: augment"]
