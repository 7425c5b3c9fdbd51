"""The one check for counts and rates, and the configs that must use it."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from speq.kernels import GemmMode, GemmSpec, reference_gemm
from speq.model import ModelConfig
from speq.pe import PeConfig
from speq.quantize import check_int, check_real
from speq.specdec import PerfParams, SpecDecConfig

# valid arguments for the configs that have required fields
BASE = {
    ModelConfig: {},
    SpecDecConfig: {},
    PeConfig: {},
    PerfParams: {"t_draft": 1.0, "t_verify": 1.0, "t_ar": 1.0},
    GemmSpec: {"m": 1, "n": 1, "k": 1, "mode": GemmMode.FULL},
}
NUMERIC = (int, float, "int", "float")  # "int" under postponed annotations
NUMERIC_FIELDS = [
    (cls, f.name) for cls in BASE for f in dataclasses.fields(cls) if f.type in NUMERIC
]


def test_every_config_field_is_known():
    # a field of another type (say ``int | None``) would skip the guard below
    other = {(cls.__name__, f.name) for cls in BASE for f in dataclasses.fields(cls)}
    other -= {(cls.__name__, name) for cls, name in NUMERIC_FIELDS}
    assert other == {("GemmSpec", "mode")}


@pytest.mark.parametrize(
    "cls, name", NUMERIC_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in NUMERIC_FIELDS]
)
def test_config_numbers_go_through_the_check(cls, name):
    for bad in (True, "1"):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            cls(**{**BASE[cls], name: bad})
    # a valid numpy scalar is held as a plain Python number
    value = getattr(cls(**BASE[cls]), name)
    held = getattr(cls(**{**BASE[cls], name: np.array(value)[()]}), name)
    assert type(held) is type(value) in (int, float) and held == value


def test_check_int():
    assert check_int("n", np.uint8(3)) == 3 and type(check_int("n", np.int64(3))) is int
    assert check_int("n", 0, lo=0) == 0 and check_int("n", 5, hi=5) == 5
    for bad in (0, 2.0, True, np.True_, "2", None):
        with pytest.raises(ValueError, match="^n must be an integer >= 1, got"):
            check_int("n", bad)
    with pytest.raises(ValueError, match="^n must be <= 5, got 6"):
        check_int("n", 6, hi=5)


def test_check_real():
    assert type(check_real("x", np.float32(0.5))) is float and check_real("x", 2) == 2.0
    assert check_real("x", 0, 0, 1) == 0.0 and check_real("x", 1, 0, 1) == 1.0
    for bad in (0.0, -1.0, float("nan"), float("inf"), True, "0.5", None):
        with pytest.raises(ValueError, match=r"^x must be a finite real > 0, got"):
            check_real("x", bad)
    for bad in (-0.1, 1.1, float("nan"), True, "0.5"):
        with pytest.raises(ValueError, match=r"^x must be a real in \[0, 1\], got"):
            check_real("x", bad, 0, 1)


@pytest.mark.parametrize("bad", [0, -3, 2.5, True])
def test_reference_gemm_group_size_goes_through_the_check(bad):
    a, w = np.ones((1, 4), np.float16), np.ones((4, 2), np.float16)
    with pytest.raises(ValueError, match="^group_size must be an integer >= 1, got"):
        reference_gemm(a, w, bad)
