"""Machine-speed probe: wall times rescaled to a reference machine speed.

On a shared virtual machine the same code runs up to about 1.5x slower
for seconds to minutes at a time, with steal time near zero (other
tenants on the sibling hardware threads).  Raw wall times then differ
between two sets of runs of the same code by more than any useful bound.

The probe is a fixed kernel of pure-Python integer and dict work plus
small numpy array operations.  It touches no ``repro`` code.  While a
measurement runs, a wall-clock timer (``SIGALRM``) runs the kernel every
``INTERVAL_S`` seconds and records its time.  :meth:`SpeedProbe.clock`
leaves the kernel's time out, so the measured work is timed as if the
probe were not there.  A measurement is then multiplied by
``REFERENCE_S`` over the kernel's median time while it ran.  A program
change moves the measured work but not the kernel, so a gain or a
regression shows at full size, while a slow phase of the machine slows
both and mostly cancels.  Scaled values read as seconds on a machine
where the kernel takes ``REFERENCE_S``.

The raw wall times go into each run's provenance next to the scaled
ones.  A change that slows the whole process, the kernel included (a
busy background thread, say), would be hidden by the scaling; the raw
figures still show it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

__all__ = ["INTERVAL_S", "REFERENCE_S", "WINDOW", "SpeedProbe", "block_factors"]

#: About the kernel's time in the fast phases of a 2-vCPU Xeon (2.0 GHz)
#: virtual machine, Python 3.11, numpy 2.x.
REFERENCE_S = 0.002
#: Wall time between two kernel samples while a probe runs.
INTERVAL_S = 0.05
#: Samples on each side of a block that its scale factor takes the
#: median over (see :func:`block_factors`).
WINDOW = 2

_RNG = np.random.default_rng(0)
_FLOATS = _RNG.random(4096)
_INTS = _RNG.integers(0, 1 << 30, 4096, dtype=np.uint64)


def _kernel() -> float:
    started = time.perf_counter()
    total = 0
    table: dict[int, int] = {}
    for i in range(8_000):
        total += i * i % 7
        table[i & 511] = total
    for _ in range(30):
        np.bitwise_and(_INTS, _INTS[::-1]).sum()
        np.sort(_FLOATS)
    return time.perf_counter() - started


class SpeedProbe:
    """Kernel samples taken while :meth:`running`; see the module docstring."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Wall seconds spent in the kernel so far.
        self.spent = 0.0

    def clock(self) -> float:
        """``time.perf_counter()`` minus the time spent in the kernel."""
        return time.perf_counter() - self.spent

    def sample(self, *_: object) -> None:
        """Run the kernel once and record its time (also the signal handler)."""
        elapsed = _kernel()
        self.samples.append(elapsed)
        self.spent += elapsed

    @property
    def block(self) -> int:
        """The block running now: the one after ``samples[block]``."""
        return len(self.samples) - 1

    @contextmanager
    def running(self) -> Iterator["SpeedProbe"]:
        """Sample at entry, every :data:`INTERVAL_S` of wall time, and at exit.

        Must be entered from the main thread (signal handlers run there).
        """
        self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def factor(self) -> float:
        """``REFERENCE_S`` over the median of all samples."""
        return REFERENCE_S / statistics.median(self.samples)

    def factors(self) -> list[float]:
        """One scale factor per block; see :func:`block_factors`."""
        return block_factors(self.samples)


def block_factors(samples: Sequence[float]) -> list[float]:
    """Scale factors of the blocks between consecutive samples.

    Block ``i`` ran between ``samples[i]`` and ``samples[i + 1]``.  Its
    factor is ``REFERENCE_S`` over the median of those two samples and
    the :data:`WINDOW` samples on each side of them (fewer at the ends).
    """
    if len(samples) < 2:
        raise ValueError("need a sample before and after every block")
    return [
        REFERENCE_S / statistics.median(samples[max(0, i - WINDOW) : i + 2 + WINDOW])
        for i in range(len(samples) - 1)
    ]
