"""Source checks: the junction path keeps every invariant under python -O.

A bare assert and an `if __debug__:` block both vanish when Python runs
with -O, so an invariant kept that way silently stops being checked.
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


@pytest.mark.parametrize("module", ["augment", "tripod"])
def test_junction_path_has_no_optimize_only_checks(module):
    assert optimize_only_checks((SRC / f"{module}.py").read_text()) == []


def test_detector_sees_both_forms():
    source = "assert x\nif __debug__:\n    y()\n"
    assert optimize_only_checks(source) == ["line 1: assert",
                                            "line 2: __debug__"]
