"""No module of the package or its tests imports an undeclared package."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# pyproject.toml declares numpy, and pytest for the tests. hypothesis is
# installed on some hosts but declared nowhere, so no test may import it.
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "pytest", "speq"}


def _imported_packages(path: Path):
    """(line, top-level package) of each absolute import in the file, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_imports_only_the_standard_library_numpy_pytest_and_speq():
    files = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
    assert any(p.name == "test_imports.py" for p in files)
    undeclared = [
        f"{p.relative_to(ROOT)}:{line} imports {name}"
        for p in files
        for line, name in _imported_packages(p)
        if name not in ALLOWED
    ]
    assert undeclared == []
