"""Host-speed sampling, so that timings from a shared host stay comparable.

While a ``SpeedProbe`` is active, a timer signal every ``interval`` seconds
runs ``calibration_s()``, a fixed numpy loop of small vector adds shaped
like the decoder's hot loop. ``measure`` reports each call's wall time,
less the time spent in the handler, and that time scaled by
``CAL_REF_S × mean(1 / calibration)`` over the calibrations during the call: the seconds it would
have taken at the speed at which the loop takes ``CAL_REF_S``. A call too
short to catch a sample uses the last few samples. Without an active probe
there are no samples, and the scaled time equals the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

__all__ = ["CAL_REF_S", "calibration_s", "SpeedProbe"]

CAL_REF_S = 1.2e-4  # calibration_s() on the reference host in its fast state
_CAL_ROWS = np.random.default_rng(0).normal(size=(64, 256)).astype(np.float32)


def calibration_s() -> float:
    """Wall time of 256 float32 adds of 256-element rows."""
    out = np.zeros(256, dtype=np.float32)
    t0 = time.perf_counter()
    for _ in range(4):
        for row in _CAL_ROWS:
            out += row
    return time.perf_counter() - t0


class SpeedProbe:
    def __init__(self, interval: float = 0.02, recent: int = 5):
        self.interval = interval
        self.recent = recent
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibration_s())
        self.handler_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn, *args):
        """``(fn(*args), wall seconds, reference-speed seconds)``."""
        n0, h0 = len(self.samples), self.handler_s
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0 - (self.handler_s - h0)
        during = self.samples[n0:] or self.samples[-self.recent :]
        # Samples are evenly spaced in time, so the mean speed is the mean of 1/c.
        ref = dt * CAL_REF_S * statistics.fmean(1.0 / c for c in during) if during else dt
        return out, dt, ref
