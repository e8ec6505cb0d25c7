"""Source checks: every module keeps every invariant under python -O.

A bare assert and an `if __debug__:` block both vanish when Python runs
with -O, so an invariant kept that way silently stops being checked.  An
invariant is tested one way, through errors.require.
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
