"""Order statistics and host-speed calibration.

A shared 2-vCPU host's speed drifts by 20-30% within seconds, and CPU time
drifts with wall time.  Every time metric is therefore reported at a
*reference host speed* (raw wall times are printed too): while a run
measures, each client thread times a fixed pure-Python kernel after a
call once ``SAMPLE_EVERY_S`` has passed since its last sample, and
wall times are scaled by ``REFERENCE_KERNEL_S / time-weighted mean
kernel time``.  Sampled between the calls, the
kernel tracked the program's speed closely (correlation 0.91 over
2 s windows of fixed CarDB work); sampled only around the measured
work it did not (0.4-0.5).  The kernel is benchmark code, so a change
to the program cannot move it.  Its time is thread CPU time, so a
kernel run next to a second client thread does not count the wait for
the GIL.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable

__all__ = ["REFERENCE_KERNEL_S", "HostClock", "percentile"]

#: Kernel time that defines the reference host speed (the kernel's
#: median on an idle 2-vCPU x86-64 container, CPython 3.11).
REFERENCE_KERNEL_S = 0.0012
#: A client thread samples the kernel after a call once this much time
#: has passed since its last sample (~2% of a run).
SAMPLE_EVERY_S = 0.05

_KERNEL_RNG = random.Random(20060403)
_KERNEL_ROWS = [
    (
        _KERNEL_RNG.choice("ABCDEFGH"),
        _KERNEL_RNG.randrange(50),
        _KERNEL_RNG.random(),
        str(_KERNEL_RNG.randrange(1990, 2006)),
    )
    for _ in range(2000)
]
_KERNEL_WEIGHTS = {"A": 0.2, "B": 0.3, "C": 0.1}


class _Eq:
    __slots__ = ("position", "value")

    def __init__(self, position: int, value: object) -> None:
        self.position = position
        self.value = value

    def matches(self, row: tuple) -> bool:
        return row[self.position] == self.value


_KERNEL_PREDICATES = (_Eq(0, "C"), _Eq(3, "1999"))


def _kernel() -> float:
    """Row verification and weighted scoring, like the source and scorer."""
    hits = 0
    total = 0.0
    weights = _KERNEL_WEIGHTS
    for row in _KERNEL_ROWS:
        if all(p.matches(row) for p in _KERNEL_PREDICATES):
            hits += 1
        total += weights.get(row[0], 0.05) * (1.0 - abs(row[2] - 0.5))
    return total + hits


def kernel_s() -> float:
    """One kernel run, in thread CPU seconds."""
    started = time.thread_time()
    _kernel()
    return time.thread_time() - started


class HostClock:
    """Kernel samples, each weighted by the wall time it stands for."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._weighted = 0.0
        self._weight = 0.0
        self.samples = 0

    def sample(self, weight: float = 1.0) -> None:
        seconds = kernel_s()
        with self._lock:
            self._weighted += seconds * weight
            self._weight += weight
            self.samples += 1

    def sampler(self) -> Callable[[], None]:
        """A per-thread hook to call after each call: samples once
        ``SAMPLE_EVERY_S`` has passed, weighted by the time since the
        thread's last sample."""
        last = [time.perf_counter()]

        def after_call() -> None:
            now = time.perf_counter()
            if now - last[0] >= SAMPLE_EVERY_S:
                self.sample(now - last[0])
                last[0] = time.perf_counter()

        return after_call

    @property
    def kernel_s(self) -> float:
        return self._weighted / self._weight

    @property
    def factor(self) -> float:
        """Multiply wall seconds by this to get reference-host seconds."""
        return REFERENCE_KERNEL_S / self.kernel_s


def percentile(
    values: list[float], pct: float, weights: list[float] | None = None
) -> float:
    """Linear-interpolated percentile (``pct`` in [0, 100]).

    With ``weights``, each sorted value sits at the middle of its weight
    on a scale running from the first value's middle to the last one's;
    equal weights give the unweighted percentile exactly.
    """
    if not values:
        raise ValueError("percentile of no values")
    pairs = sorted(zip(values, weights or [1.0] * len(values)))
    if len(pairs) == 1:
        return pairs[0][0]
    first, last = pairs[0][1] / 2, pairs[-1][1] / 2
    target = (sum(w for _, w in pairs) - first - last) * pct / 100.0
    before = 0.0
    for (low, w_low), (high, w_high) in zip(pairs, pairs[1:]):
        step = w_low / 2 + w_high / 2
        if target <= before + step:
            return low + (high - low) * (target - before) / step
        before += step
    return pairs[-1][0]
