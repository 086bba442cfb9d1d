"""The dense Fraction solve_affine is a test reference: no library module
but linalg, which defines it, may call it."""

import ast
from pathlib import Path

import baryalg

PACKAGE = Path(baryalg.__file__).parent


def _called_name(node: ast.Call):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_only_linalg_calls_solve_affine():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called_name(node) == "solve_affine"
        ]
    assert found == []
