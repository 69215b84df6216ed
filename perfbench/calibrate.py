"""Machine-speed calibration, sampled while the simulator runs.

On a shared virtual machine, the host time of one unchanged repetition
drifts by tens of percent within minutes (other tenants contend for the
cores and caches). :class:`SpeedProbe` measures that drift. A fixed
NumPy kernel, which shares no code with the simulator, is timed from a
``SIGALRM`` handler every ``INTERVAL_S`` of wall time while a cell runs.
The median of those samples shows how fast the machine ran during the
cell. Scaling host-time figures by ``median / REFERENCE_S`` removes most
of the drift: on three workloads, it roughly halved the coefficient of
variation of identical repetitions.

The handler touches no simulator state. The fingerprint checks confirm
that repetitions stay bit-identical. The time spent in the handler is
reported so that callers can take it out of their wall times.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.2

#: The kernel's typical time on the machine the benchmark was written
#: on (2-CPU Xeon virtual machine, Python 3.11, NumPy 2.4). It only sets
#: the scale of normalised figures; comparisons do not depend on it.
REFERENCE_S = 0.0008


class SpeedProbe:
    """Use as a context manager around the code whose speed drifts."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._a = np.arange(2048, dtype=float)
        self._b = np.ones(2048)
        self._index = np.arange(2048) % 256
        self._previous = None

    def _kernel(self) -> None:
        a, b = self._a, self._b
        for _ in range(60):
            c = a * b + a
            np.minimum(c, b, out=c)
            np.bincount(self._index, weights=c, minlength=256)

    def _on_alarm(self, signum, frame) -> None:
        started = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def spent_s(self) -> float:
        """Wall time spent in the kernel so far."""
        return sum(self.samples)

    def slowdown(self) -> float:
        """Median kernel time ÷ ``REFERENCE_S`` (> 1: slower machine)."""
        return statistics.median(self.samples) / REFERENCE_S
