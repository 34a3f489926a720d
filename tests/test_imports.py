"""Modules of the package use only each other's public names."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "novas").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    private = [
        f"line {node.lineno}: from .{node.module or ''} import {alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert not private, private


# build_weights is the one judge of a grid point's admissibility; the
# package __init__ only re-exports the bound
@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p.name not in ("weights.py", "__init__.py")],
    ids=lambda p: p.name,
)
def test_admissibility_bound_stays_in_weights(path):
    names = [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Name) and node.id == "A0_MAX")
        or (isinstance(node, ast.alias) and node.name == "A0_MAX")
        or (isinstance(node, ast.Attribute) and node.attr == "A0_MAX")
    ]
    assert not names, names
