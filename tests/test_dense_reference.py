"""Exact rationals stay out of the integer kernels.  The dense Fraction
solve_affine is a test reference: no library module but linalg, which
defines it, may call it.  The chain-formula solver builds a Fraction only
in the values it returns, never while it eliminates.  hull builds its
membership LP in ints, as a standard form, with no LinearConstraint, and
the simplex builds its tableau from that form with no Fraction."""

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


def test_formula_kernel_builds_no_fraction():
    kernel = {"_reduce", "_eliminate", "_back_substitute"}
    tree = ast.parse((PACKAGE / "formula.py").read_text())
    functions = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in kernel]
    assert {f.name for f in functions} == kernel
    found = [
        f"{f.name}:{node.lineno}"
        for f in functions
        for node in ast.walk(f)
        if isinstance(node, ast.Call) and _called_name(node) == "Fraction"
    ]
    assert found == []


def test_membership_lp_is_built_in_ints():
    hull_tree = ast.parse((PACKAGE / "hull.py").read_text())
    found = [
        f"hull.py:{node.lineno}"
        for node in ast.walk(hull_tree)
        if isinstance(node, ast.Call) and _called_name(node) == "LinearConstraint"
    ]
    linalg_tree = ast.parse((PACKAGE / "linalg.py").read_text())
    (simplex,) = [
        c for c in linalg_tree.body if isinstance(c, ast.ClassDef) and c.name == "_Simplex"
    ]
    (init,) = [f for f in simplex.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
    found += [
        f"linalg.py:{node.lineno}"
        for node in ast.walk(init)
        if isinstance(node, ast.Call) and _called_name(node) == "Fraction"
    ]
    assert found == []
