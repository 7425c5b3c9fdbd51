"""Every public name a speq module exports resolves, and so does every
``module.name`` its docstrings and comments name."""

from __future__ import annotations

import functools
import importlib
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import pytest

import speq
from speq import container
from speq.container import _HEADER

MODULES = sorted(m.name for m in pkgutil.iter_modules(speq.__path__))

# ``kernels.gemm_traffic`` or ``speq.kernels.gemm_traffic``: one of speq's
# own modules, then a dotted name
_REF = re.compile(r"``(?:speq\.)?(%s)\.(\w+(?:\.\w+)*)" % "|".join(map(re.escape, MODULES)))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"speq.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_imports():
    assert speq.__version__
    assert callable(speq.pe_quant_mac)


def _doc_refs(path: Path):
    """(line, module, dotted name) of each reference in the file's strings and comments."""
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type in (tokenize.STRING, tokenize.COMMENT):
            for mod, name in _REF.findall(tok.string):
                yield tok.start[0], mod, name


def _resolves(mod: str, name: str) -> bool:
    try:
        functools.reduce(getattr, name.split("."), importlib.import_module(f"speq.{mod}"))
    except AttributeError:
        return False
    return True


def test_container_header_table_is_the_header_struct():
    # bytes per row of the container docstring's layout table: "5 bytes",
    # "u32", "u32 * 2" and so on
    row = r"^    (\w+) +(?:(\d+) bytes?|[uf](\d+)(?: \* (\d+)(?= ))?)"
    sizes = {
        name: int(n or 0) or int(bits) // 8 * int(count or 1)
        for name, n, bits, count in re.findall(row, container.__doc__, re.M)
    }
    header = ("flags", "ndims", "dims", "gsize", "tscale")
    assert sum(sizes[name] for name in header) == _HEADER.size


def test_doc_references_resolve():
    paths = sorted(Path(speq.__file__).parent.glob("*.py"))
    refs = [(path.name, *ref) for path in paths for ref in _doc_refs(path)]
    assert refs
    assert [r for r in refs if not _resolves(*r[2:])] == []
