"""Rules on the library source itself."""

import ast
from pathlib import Path

import pytest

import gencusp

_MODULES = sorted(Path(gencusp.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_library_has_no_assert(path):
    # `python -O` strips assert statements, so a check the library relies on
    # must raise an exception instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], "%s has assert statements at lines %s" % (path.name, lines)



@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_einsum_over_six_indices(path):
    # an einsum without an optimize path is one loop over every index it
    # names, O(d^k) in k letters: contract through matrix products instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    wide = [
        (node.lineno, node.args[0].value) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "einsum" and node.args and isinstance(node.args[0], ast.Constant)
        and len({ch for ch in node.args[0].value if ch.isalpha()}) >= 6
    ]
    assert wide == [], "%s has einsum calls over six or more indices: %s" % (path.name, wide)
