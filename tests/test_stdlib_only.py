"""The runtime is pure standard library: no module imports a third-party package."""

import ast
import sys
from pathlib import Path

import baryalg

PACKAGE = Path(baryalg.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"baryalg"}


def test_library_imports_only_the_standard_library():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in ALLOWED
            ]
    assert found == []
