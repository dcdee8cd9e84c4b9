"""Fixed reference computation that timings are divided by.

The benchmark shares its machine with other work, and the machine's speed
drifts by tens of percent within seconds and from minute to minute.  A
`Sampler` runs this kernel every quarter second of wall time inside the
measuring process, on SIGALRM, so the kernel's mean time over an interval
tracks the machine's speed over that same interval.  Dividing a task's time
(its wall time minus the sampler's share) by that mean cancels most of the
drift.  The kernel uses no memwave code, so a change to memwave moves only
the numerator.  Its mix mirrors memwave's: vectorised bisection on a mode
array, sums of complex logs, a small dense solve and an interpreter-bound
scalar loop.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.25

_N2 = np.arange(1, 1001, dtype=float) ** 2
_Z = np.arange(1, 4001) + 1j
_A = np.eye(60) + 0.01 * np.add.outer(np.arange(60.0), np.arange(60.0)) ** 0.5
_B = np.ones(60)


def reference_kernel() -> float:
    lo = np.zeros_like(_N2)
    hi = np.ones_like(_N2)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        left = (lo**3 + _N2 * (lo - 1.0)) * (mid**3 + _N2 * (mid - 1.0)) <= 0.0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
    s = sum(np.sum(np.log(1.0 - (0.3 + 1j * k) / _Z)) for k in range(8))
    x = np.linalg.solve(_A, _B)
    acc = sum(abs(complex(k, 1.0)) for k in range(3000))
    return float(lo.sum() + s.real + x.sum() + acc)


class Sampler:
    """Runs reference_kernel every INTERVAL_S of wall time while active.

    `seconds` and `calls` accumulate the kernel's own time and call count;
    read them before and after an interval to split it into work time and
    the machine-speed unit `seconds / calls`.
    """

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.seconds += time.perf_counter() - t0
        self.calls += 1

    def __enter__(self) -> "Sampler":
        reference_kernel()  # first-call costs stay out of the samples
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
