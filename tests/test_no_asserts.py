"""No library result may rest on an assert: `python -O` strips them."""

import ast
from pathlib import Path

import baryalg

PACKAGE = Path(baryalg.__file__).parent


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
