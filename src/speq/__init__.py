"""SPEQ: bit-sharing weight quantization with self-speculative decoding.

A packed weight store whose 16-bit words each restore one FP16 weight
exactly and whose top 4 bits (``word >> 12``: sign and remapped exponent
code) form a standalone draft model, plus the kernels, decoding
controller, PE-array model, and file format built around it.

Outputs do not depend on OpenBLAS's thread count, but speed does: a
second CPU-bound process can slow a multi-threaded GEMM manyfold, so on a
shared host set ``OPENBLAS_NUM_THREADS=1`` before numpy is imported.
"""

from ._accel import active_backend
from .bsfp import ExponentRangeError, MalformedWordError
from .container import read_container, write_container
from .kernels import GemmMode, GemmSpec, TrafficCounter, gemm_draft, gemm_full
from .model import (
    ContextOverflowError,
    KvCache,
    ModelConfig,
    ToyModel,
    forward_draft,
    forward_full,
    init_model,
)
from .pe import CycleReport, PeConfig, estimate, pe_full_mac, pe_quant_mac, simulate_gemm
from .quantize import (
    ExpHistogram,
    PackedTensor,
    QuantFormat,
    exponent_histogram,
    handle_outliers,
    ingest_bf16,
    quantize_tensor,
)
from .specdec import (
    PerfParams,
    SpecDecConfig,
    SpecDecStats,
    expected_accept_length,
    expected_speedup,
    greedy_generate,
    speculative_generate,
)

__version__ = "0.1.0"
