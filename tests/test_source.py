"""Checks on the package source itself."""

import ast
from pathlib import Path

import bsp

SRC = Path(bsp.__file__).parent


def test_package_has_no_assert_statements():
    """``python -O`` strips assert statements, so a check written as one
    would silently stop running; the package raises explicitly instead."""
    paths = sorted(SRC.glob("*.py"))
    assert SRC / "bounds.py" in paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
