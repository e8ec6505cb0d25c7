"""Source checks: every module keeps every invariant under python -O,
host-graph searches live in graph.py, Graph.__init__ alone builds a graph,
the solver calls no public step that checks its input, and only the
exact reports call _fatness without a bound.

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


def graph_builders(source: str) -> list[str]:
    """Where the given source calls __new__ or assigns an .adj attribute,
    as "scope: what" in line order; the scope is the top-level function, or
    the class and method, that holds the line."""
    out = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            scopes = [(f"{top.name}.{getattr(node, 'name', '')}", node)
                      for node in top.body]
        else:
            scopes = [(getattr(top, "name", "<module>"), top)]
        for scope, node in scopes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and (
                        getattr(sub.func, "attr", None) == "__new__"
                        or getattr(sub.func, "id", None) == "__new__"):
                    out.append((sub.lineno, f"{scope}: __new__"))
                if isinstance(sub, ast.Assign):
                    targets = sub.targets
                elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                    targets = [sub.target]
                else:
                    continue
                # a target's own attribute, or one in a tuple it unpacks
                out += [(sub.lineno, f"{scope}: .adj") for target in targets
                        for t in [target, *getattr(target, "elts", [])]
                        if isinstance(t, ast.Attribute) and t.attr == "adj"]
    return [what for _, what in sorted(out)]


# forest's working trees keep adjacency sets of their own, not a Graph's
GRAPH_BUILDERS = {"graph": ["Graph.__init__: .adj"],
                  "forest": ["_Tree.__init__: .adj"]}


@pytest.mark.parametrize("module", MODULES)
def test_only_graph_init_builds_a_graph(module):
    assert (graph_builders((SRC / f"{module}.py").read_text())
            == GRAPH_BUILDERS.get(module, []))


def test_builder_detector_sees_new_and_adj_assignments():
    source = ("class Graph:\n    def __init__(self, n):\n"
              "        self.n, self.adj = n, []\n"
              "    @classmethod\n    def make(cls):\n"
              "        g = cls.__new__(cls)\n        g.adj = []\n"
              "def f(g):\n    g.adj[0] = []\n    g.adj += []\n"
              "    adj = g.adj\n    object.__new__(Graph)\n")
    assert graph_builders(source) == [
        "Graph.__init__: .adj", "Graph.make: __new__", "Graph.make: .adj",
        "f: .adj", "f: __new__"]


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


def fatness_calls(source: str) -> list[str]:
    """Every _fatness call in the given source as "function: bounded" or
    "function: exact", after the top-level function or method that holds
    it and whether it passes a bound."""
    out = []
    for top in ast.parse(source).body:
        defs = top.body if isinstance(top, ast.ClassDef) else [top]
        for node in defs:
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                fn = sub.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name != "_fatness":
                    continue
                bounded = len(sub.args) >= 3 or any(
                    kw.arg == "bound" for kw in sub.keywords)
                out.append(f"{node.name}: {'bounded' if bounded else 'exact'}")
    return out


# fatness and pathpack topo report the exact value; every check compares
# with a bound, so it passes that bound and its searches stop there
EXACT_FATNESS = {"model": ["fatness: exact"], "cli": ["_cmd_topo: exact"]}


@pytest.mark.parametrize("module", MODULES)
def test_fatness_checks_pass_their_bound(module):
    calls = fatness_calls((SRC / f"{module}.py").read_text())
    assert [c for c in calls if c.endswith("exact")] == EXACT_FATNESS.get(module, [])


def test_fatness_detector_tells_bounded_from_exact():
    source = ("def f(g, m):\n    return _fatness(g, m)\n"
              "def h(g, m, q):\n    model._fatness(g, m, q)\n"
              "    _fatness(g, m, bound=q)\n"
              "class C:\n    def k(self, g, m):\n        fatness(g, m)\n")
    assert fatness_calls(source) == ["f: exact", "h: bounded", "h: bounded"]
