"""Every public name a speq module exports resolves and has a caller or a
reason to stay, and every ``module.name`` its docstrings and comments name
resolves."""

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
SRC = Path(speq.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

# The exports no other speq module and no bench script calls, each with the
# reason it stays. A name that gains a caller leaves the list.
KEEP = {
    "bsfp.REMAP_QCODE": "truth table: the remap encoder's reference vector",
    "bsfp.REMAP_FLAG": "truth table: the remap encoder's reference vector",
    "bsfp.DECODE_QEXP": "truth table: the draft decoder's reference vector",
    "bsfp.MalformedWordError": "exception type: what the PackedTensor constructor raises",
    "container.BadMagicError": "exception type: what read_container raises",
    "container.ChecksumError": "exception type: what read_container raises",
    "container.TruncatedError": "exception type: what read_container raises",
    "container.MAGIC": "the file signature, for readers outside speq",
    "model.KvCache": "return type of ToyModel.new_cache",
    "model.draw_weights": "the seeded FP16 weights a model is quantized from",
    "model.forward_reference": "oracle: the forward pass over plain FP16 weights",
    "pe.ACTIVATION_BITS": "PE bit width of an activation",
    "pe.FULL_WEIGHT_BITS": "PE bit width of a full-mode weight",
    "pe.QUANT_WEIGHT_BITS": "PE bit width of three draft weights",
    "pe.CycleReport": "return type of pe.estimate",
    "pe.decompose_fp16": "oracle: the PE's split of an FP16 operand",
    "pe.pe_full_mac": "oracle: the full-mode PE product",
    "pe.pe_quant_mac": "oracle: the quantize-mode PE product",
    "pe.simulate_gemm": "oracle: a GEMM checked product by product on the PE datapath",
    "quantize.ExpHistogram": "return type of exponent_histogram",
    "report.parse": "reads back the lines RunReport renders",
}

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


def _names(path: Path) -> set[str]:
    """The file's NAME tokens: a name in a string or comment is not one."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return {tok.string for tok in tokens if tok.type == tokenize.NAME}


def test_every_export_has_a_caller_or_a_reason():
    # a re-export in __init__.py is not a caller
    callers = [*SRC.glob("*.py"), *BENCH.glob("*.py")]
    names = {path: _names(path) for path in callers if path.name != "__init__.py"}
    uncalled = {
        f"{mod}.{name}"
        for mod in MODULES
        for name in getattr(importlib.import_module(f"speq.{mod}"), "__all__", ())
        if not any(name in toks for path, toks in names.items() if path != SRC / f"{mod}.py")
    }
    # delete each name left here, or give it a caller or a line in KEEP
    assert sorted(uncalled - KEEP.keys()) == []
    # each name left here has a caller now: drop it from KEEP
    assert sorted(KEEP.keys() - uncalled) == []


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
