"""Source checks: every module keeps every invariant under python -O,
host-graph searches, down to one BFS layer over adj[...], live in
graph.py's pinned kernels, Graph.__init__ alone builds a graph, the
solver calls no public step that checks its input, only fatness calls
_check_model with an inf bound, the verifiers import a pinned set
of names from graph.py, only graph.py compares a value with the vertex
count g.n, no set operator takes a dict view on its left, and every
module parses at the Python floor that pyproject.toml names.

A bare assert and an `if __debug__:` block both vanish when Python runs
with -O, so an invariant kept that way silently stops being checked.  An
invariant is tested one way, through errors.require.  A module that walks
the host's adjacency lists itself keeps a private copy of a search that
graph.py already has; only the verifiers in oracle.py keep their own.
Which ids are vertices is decided once, by Graph.foreign; a module that
compares an id with g.n itself keeps a screen of its own.
"""

import ast
import re
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


# tripod._rounds picks a region endpoint's neighbours, and hands g.adj to
# graph.py's kernels: _take_component for its shrink and _grow for its
# sphere chains
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


def adjacency_loops(source: str) -> list[str]:
    """Top-level functions and methods of the given source that hold a for
    statement over adj[...] or x.adj[...], each named once: a search step
    walking an adjacency list.  A comprehension is no for statement."""
    out = []
    for top in ast.parse(source).body:
        defs = top.body if isinstance(top, ast.ClassDef) else [top]
        for node in defs:
            if not isinstance(node, ast.FunctionDef):
                continue
            if any(isinstance(sub, ast.For) and isinstance(sub.iter, ast.Subscript)
                   and _names_adj(sub.iter.value) for sub in ast.walk(node)):
                out.append(node.name)
    return out


def _names_adj(node: ast.expr) -> bool:
    """True for the name adj and for any attribute .adj."""
    return (isinstance(node, ast.Name) and node.id == "adj"
            or isinstance(node, ast.Attribute) and node.attr == "adj")


# Every module but the verifiers' leaves its BFS loops to graph.py, so that
# one place can count the vertices a search visits.
@pytest.mark.parametrize("module", [m for m in MODULES
                                    if m not in ("graph", "oracle")])
def test_adjacency_loops_live_in_graph(module):
    assert adjacency_loops((SRC / f"{module}.py").read_text()) == []


# graph.py's search kernels, in source order, and Graph.__init__'s check
# of bool endpoints.  A new loop over adj[...] there is one more place
# for item-by-item costs and counts to live: add it here and say why.
GRAPH_KERNELS = ["__init__", "dist", "_grow", "st_path", "_levels",
                 "_take_component", "_search_tree"]


def test_graph_keeps_the_pinned_search_kernels():
    assert adjacency_loops((SRC / "graph.py").read_text()) == GRAPH_KERNELS


def test_adjacency_loop_detector_sees_each_for_statement():
    source = ("def f(adj, front):\n    for u in front:\n"
              "        for v in adj[u]:\n            pass\n"
              "def h(g):\n    for v in g.adj[0]:\n        pass\n"
              "def k(adj, c):\n    return [u for u in adj[0] if u in c]\n"
              "def r(adj):\n    for u in adj:\n        pass\n"
              "class C:\n    def m(self):\n"
              "        for v in self.adj[1]:\n            pass\n")
    assert adjacency_loops(source) == ["f", "h", "m"]


def view_set_operators(source: str) -> list[str]:
    """Line-tagged set operators (&, |, -, ^) whose left operand is a
    .keys() or .items() call.  CPython runs such an operator by iterating
    the whole right operand unless that is an exact set, so a view & a
    large frozenset costs the frozenset's size however small the view."""
    ops = (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    lines = {node.lineno for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.BinOp) and isinstance(node.op, ops)
             and isinstance(node.left, ast.Call)
             and isinstance(node.left.func, ast.Attribute)
             and node.left.func.attr in ("keys", "items")}
    return [f"line {line}" for line in sorted(lines)]


@pytest.mark.parametrize("module", MODULES)
def test_no_set_operator_iterates_its_right_operand(module):
    assert view_set_operators((SRC / f"{module}.py").read_text()) == []


def test_view_operator_detector_sees_each_operator_on_a_view():
    source = ("def f(tree, a, b):\n"
              "    x = sorted(tree.keys() & a)\n"
              "    y = tree.items() | b\n"
              "    z = a.intersection(tree), set(tree) & a, a & tree.keys()\n"
              "    w = tree.keys() - a, [tree.keys() ^ b]\n"
              "    return tree.values() & a, len(tree.keys()) - 1\n")
    assert view_set_operators(source) == ["line 2", "line 3", "line 5"]


def graph_imports(source: str) -> set[str]:
    """Names the given source imports from graph.py; an import of the
    module itself counts as its dotted name, since it reaches every name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("graph", "pathpack.graph"):
                out |= {alias.name for alias in node.names}
            elif node.module in (None, "pathpack"):
                out |= {f"{node.module or ''}.graph" for alias in node.names
                        if alias.name == "graph"}
        elif isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names
                    if alias.name == "pathpack.graph"}
    return out


# what the verifiers share with the solver's searches; the oracle's own
# kernel (ROADMAP item 3) is to shrink this to Graph alone
ORACLE_GRAPH_IMPORTS = {"Graph", "UNREACHABLE", "ball", "components", "dist",
                        "distance_map", "is_path"}


def test_oracle_imports_only_the_pinned_graph_names():
    assert graph_imports((SRC / "oracle.py").read_text()) == ORACLE_GRAPH_IMPORTS


@pytest.mark.parametrize("planted, name", [
    ("from .graph import _take_component", "_take_component"),
    ("from pathpack.graph import st_path as path", "st_path"),
    ("from . import graph", ".graph"),
    ("from pathpack import graph", "pathpack.graph"),
    ("import pathpack.graph", "pathpack.graph")])
def test_graph_import_detector_sees_a_planted_import(planted, name):
    source = (SRC / "oracle.py").read_text() + planted + "\n"
    assert graph_imports(source) == ORACLE_GRAPH_IMPORTS | {name}


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
    """Every _check_model call in the given source as "function: bounded"
    or "function: exact", after the top-level function or method that
    holds it; a call is exact when its bound is inf."""
    out = []
    for top in ast.parse(source).body:
        defs = top.body if isinstance(top, ast.ClassDef) else [top]
        for node in defs:
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                fn = sub.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name != "_check_model":
                    continue
                bound = sub.args[2:] + [kw.value for kw in sub.keywords
                                        if kw.arg == "bound"]
                exact = any(getattr(b, "id", getattr(b, "attr", None)) == "inf"
                            for b in bound)
                out.append(f"{node.name}: {'exact' if exact else 'bounded'}")
    return out


# only fatness reports the exact value; every check compares with a
# bound, so it passes that bound and its searches stop there
EXACT_FATNESS = {"model": ["fatness: exact"]}


@pytest.mark.parametrize("module", MODULES)
def test_fatness_checks_pass_their_bound(module):
    calls = fatness_calls((SRC / f"{module}.py").read_text())
    assert [c for c in calls if c.endswith("exact")] == EXACT_FATNESS.get(module, [])


def test_fatness_detector_tells_bounded_from_exact():
    source = ("def f(g, m):\n    return _check_model(g, m, inf)\n"
              "def h(g, m, q):\n    model._check_model(g, m, q)\n"
              "    _check_model(g, m, bound=math.inf)\n"
              "    _check_model(g, m, 0)\n"
              "class C:\n    def k(self, g, m):\n        fatness(g, m)\n"
              "        _check_model(g, m, bound=inf)\n")
    assert fatness_calls(source) == ["f: exact", "h: bounded", "h: exact",
                                     "h: bounded", "k: exact"]


def vertex_count_comparisons(source: str) -> list[str]:
    """Line-tagged comparisons in the given source that read g.n, the host
    graph's vertex count, each line once."""
    lines = {node.lineno for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Compare) and any(
                 isinstance(sub, ast.Attribute) and sub.attr == "n"
                 and isinstance(sub.value, ast.Name) and sub.value.id == "g"
                 for sub in ast.walk(node))}
    return [f"line {line}" for line in sorted(lines)]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "graph"])
def test_only_graph_decides_vertex_ids(module):
    assert vertex_count_comparisons((SRC / f"{module}.py").read_text()) == []


def test_vertex_count_detector_sees_each_comparison_form():
    source = ("def f(g, v, p, x):\n"
              "    ok = 0 <= v < g.n\n"
              "    if p and (min(p) < 0 or max(p) >= g.n):\n"
              "        return x in range(g.n)\n"
              "    left = g.n - len(p)\n"
              "    return [w for w in range(g.n) if w < left], v < self.n\n")
    assert vertex_count_comparisons(source) == ["line 2", "line 3", "line 4"]


def python_floor() -> tuple[int, int]:
    """The least Python version pyproject.toml promises, read with a
    regex, since tomllib only comes with 3.11."""
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.M)
    assert found, "pyproject.toml names no requires-python floor"
    return int(found[1]), int(found[2])


def test_python_floor_is_read():
    assert python_floor() >= (3, 10)


@pytest.mark.parametrize("module", MODULES)
def test_module_parses_at_the_python_floor(module):
    ast.parse((SRC / f"{module}.py").read_text(), feature_version=python_floor())


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",    # 3.11
    "type Pair = tuple[int, int]\n",                       # 3.12, PEP 695
    "def first[T](xs: list[T]) -> T:\n    return xs[0]\n",  # 3.12, PEP 695
])
def test_floor_parse_refuses_newer_syntax(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
