"""Every public name a speq module exports resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import speq

MODULES = sorted(m.name for m in pkgutil.iter_modules(speq.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"speq.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_imports():
    assert speq.__version__
    assert callable(speq.pe_quant_mac)
