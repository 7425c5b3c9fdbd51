"""Every dependency the package declares must import here."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_declared_dependencies_import():
    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    assert deps
    for spec in deps:
        name = re.match(r"[A-Za-z0-9_.-]+", spec).group(0)
        importlib.import_module(name.replace("-", "_"))
