"""Shared test fixtures."""

from __future__ import annotations

import pytest

REMAINDER_READ = "poisoned remainder stream read"


class _Poisoned:
    """Stands in for a weight array; any read of it raises."""

    def _read(self, *args, **kwargs):
        raise RuntimeError(REMAINDER_READ)

    __array__ = __getattr__ = __getitem__ = _read


@pytest.fixture
def poison_remainder():
    """Replace a PackedTensor's 12-bit stream and its exact decode with objects
    that raise on any read, so a pass that succeeds provably never read them."""

    def poison(p):
        p.wr = p._full32 = _Poisoned()

    return poison
