"""Per-layer spans recorded from outside the ``speq`` package.

The tracer replaces a fixed set of public functions with timing wrappers,
at the names their callers look up (``speq.model.gemm_full`` is what
``ToyModel._lin_full`` calls, ``speq.specdec.forward_draft`` is what the
decoding loop calls), and puts the originals back when the ``installed()``
block ends. Nothing inside ``speq`` knows it is being traced.

A target that no longer exists (a refactor renamed or deleted it) is
recorded in ``Tracer.absent`` instead of raising, so the metrics built on
it can be reported as absent.

Each wrapper records one span: calls, inclusive time (``busy``) and self
time (``busy`` minus the time of wrapped calls made inside it). Spans are
aggregated in memory under ``(phase, request, layer, tag)``:

* ``phase``   — set by the benchmark: ``build``, ``setup`` or ``decode``;
* ``request`` — set by the benchmark around each request: ``spec`` or
  ``greedy`` (``None`` outside requests);
* ``tag``     — computed from the call's arguments: ``prefill`` /
  ``decode`` / ``verify`` for full forwards, ``m1`` / ``mN`` for GEMMs.

GEMM calls also record their shape, so the PE cycle model can be run over
exactly the shapes a run issued.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["Stat", "Target", "TARGETS", "Tracer"]


@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0
    self_s: float = 0.0

    def add(self, other: "Stat") -> None:
        self.calls += other.calls
        self.busy += other.busy
        self.self_s += other.self_s


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``module.attr`` (``attr`` may be ``Class.method``)."""

    layer: str
    module: str
    attr: str


TARGETS = (
    Target("model.forward_full", "speq.specdec", "forward_full"),
    Target("model.forward_draft", "speq.specdec", "forward_draft"),
    Target("kernels.gemm_full", "speq.model", "gemm_full"),
    Target("kernels.gemm_draft", "speq.model", "gemm_draft"),
    Target("accel.attn_scores", "speq._accel", "attn_scores_f32"),
    Target("accel.rowsum", "speq._accel", "rowsum_f32"),
    Target("accel.attn_ctx", "speq._accel", "attn_ctx_f32"),
    Target("quantize.decode", "speq.quantize", "PackedTensor.draft_values"),
    Target("quantize.decode", "speq.quantize", "PackedTensor.full_values"),
    Target("quantize.decode", "speq.quantize", "PackedTensor.full_values_f32"),
    Target("quantize.quantize_tensor", "speq.model", "quantize_tensor"),
    Target("container.read", "speq.container", "read_container"),
)


def _arg(args, kwargs, index: int, name: str):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.phase = "build"
        self.request: str | None = None
        self.stats: dict[tuple, Stat] = {}
        self.shapes: Counter = Counter()  # (request, forward tag, mode, m, k, n) -> calls
        self.read_bytes = 0
        self.absent: list[str] = []
        self._installed: set[str] = set()
        self._children: list[float] = []
        self._forward_tag: str | None = None

    # -- installation ---------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every present target; always restore the originals."""
        restore = []
        try:
            for target in self.targets:
                owner, leaf = self._resolve(target)
                if owner is None:
                    self.absent.append(f"{target.module}.{target.attr}")
                    continue
                original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
                restore.append((owner, leaf, original))
                self._installed.add(target.layer)
                setattr(owner, leaf, self._wrap(target, original))
            yield self
        finally:
            for owner, leaf, original in reversed(restore):
                setattr(owner, leaf, original)

    @staticmethod
    def _resolve(target: Target):
        try:
            owner = importlib.import_module(target.module)
        except ImportError:
            return None, None
        *path, leaf = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, leaf, None)):
            return None, None
        return owner, leaf

    # -- spans ----------------------------------------------------------

    def _tag(self, target: Target, args, kwargs) -> str:
        layer = target.layer
        if layer == "model.forward_full":
            cache = _arg(args, kwargs, 2, "cache")
            if getattr(cache, "len", None) == 0:
                return "prefill"
            return "decode" if self.request == "greedy" else "verify"
        if layer == "model.forward_draft":
            return "draft"
        if layer in ("kernels.gemm_full", "kernels.gemm_draft"):
            a = _arg(args, kwargs, 0, "a")
            p = _arg(args, kwargs, 1, "p")
            m, k, n = a.shape[0], p.rows, p.cols
            mode = "full" if layer == "kernels.gemm_full" else "draft"
            self.shapes[(self.request, self._forward_tag, mode, m, k, n)] += 1
            return "m1" if m == 1 else "mN"
        if layer == "container.read":
            try:
                self.read_bytes += os.stat(_arg(args, kwargs, 0, "path")).st_size
            except (OSError, TypeError):
                pass
        return ""

    def _wrap(self, target: Target, fn):
        is_forward = target.layer.startswith("model.forward")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                tag = self._tag(target, args, kwargs)
            except Exception:  # a changed signature must not break the traced call
                tag = "?"
            outer_tag = self._forward_tag
            if is_forward:
                self._forward_tag = tag
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._children.pop()
                if self._children:
                    self._children[-1] += dt
                self._forward_tag = outer_tag
                key = (self.phase, self.request, target.layer, tag)
                st = self.stats.setdefault(key, Stat())
                st.calls += 1
                st.busy += dt
                st.self_s += dt - child

        return wrapper

    # -- queries --------------------------------------------------------

    def present(self, layer: str) -> bool:
        """True when at least one target of ``layer`` was wrapped."""
        return layer in self._installed

    def total(self, layer: str, phase=None, request=None, tag=None) -> Stat:
        """Sum of the spans of ``layer``; ``None`` filters match anything."""
        out = Stat()
        for (ph, req, lay, tg), st in self.stats.items():
            if lay != layer:
                continue
            if phase is not None and ph not in _as_tuple(phase):
                continue
            if request is not None and req not in _as_tuple(request):
                continue
            if tag is not None and tg not in _as_tuple(tag):
                continue
            out.add(st)
        return out


def _as_tuple(x):
    return x if isinstance(x, tuple) else (x,)
