"""Host-speed normalisation of measured execution times.

On a shared 2-vCPU virtual machine the speed of a vCPU flips between a fast
and a slow state (about 1.6x apart) on time scales from a second to
minutes, so the same execution can take 7.4 s or 13.6 s. A `Speedometer`
samples that speed while an execution runs: every PERIOD_S of wall time a
timer signal runs a fixed pure-Python kernel and records how long it took.
The execution's wall time, without the probes, is then rescaled to the
reference speed at which the kernel takes REFERENCE_PROBE_S:

    normalised = wall x mean(REFERENCE_PROBE_S / probe_i)

Probes are evenly spaced in wall time, so this sums each interval's wall
time weighted by the speed measured in it. The rescaled time changes with
the work the program does, not with the host's state.
"""

from __future__ import annotations

import math
import signal
import time

PERIOD_S = 0.05
# the kernel's duration in the fast state of a 2-vCPU Intel Xeon VM
# (Python 3.11): on that host a normalised second is a wall second
REFERENCE_PROBE_S = 0.29e-3
KERNEL_LOOPS = 1500


def kernel() -> float:
    """Dict updates and float arithmetic, like the interpreter-bound work
    of the simulator and the placement search."""
    d: dict = {}
    acc = 0.0
    for i in range(KERNEL_LOOPS):
        d[i & 63] = d.get(i & 63, 0.0) + math.sqrt(i + 1.0)
        acc += d[i & 63] * 0.5
    return acc


class Speedometer:
    """Context manager probing host speed during the enclosed block.

    `paused` is the context manager of the clock the block is timed on;
    probes run inside it, so their time is excluded from that clock."""

    def __init__(self, paused):
        self._paused = paused
        self.probes: list = []

    def _probe(self, *_):
        with self._paused():
            t0 = time.perf_counter()
            kernel()
            self.probes.append(time.perf_counter() - t0)

    def __enter__(self):
        self.probes = []
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        return False

    def factor(self) -> float:
        """Reference speed over measured speed, averaged over the block."""
        return math.fsum(REFERENCE_PROBE_S / p for p in self.probes) / len(self.probes)
