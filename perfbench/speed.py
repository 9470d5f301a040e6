"""Correct timings for the changing speed of a shared machine.

On the shared 2-CPU host of the baseline the CPU switches, often within
a second, between two speeds about 2x apart as other tenants load it
(the kernel below takes either about 0.28 ms or about 0.54 ms), and the
switch slows every timing of a run together.  A fixed pure-Python kernel
timed next to quivercy's own work tracks it: over 20-operation windows
the spread of `cut_algebra` + `decide_nrf` times fell from 15% to 3%
when divided by the kernel's time.

`SpeedProbe` times the kernel from a SIGALRM timer every
PROBE_INTERVAL_S while operations run.  `normalize(t0, t1)` removes the
probe's own time from an operation that ran over [t0, t1] and rescales it
by the kernel's median time around it, to a machine on which the kernel
takes KERNEL_NOMINAL_S (the fast state of the baseline host).
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

KERNEL_NOMINAL_S = 0.0003
PROBE_INTERVAL_S = 0.05
# samples this far either side of an operation set its scale
PROBE_WINDOW_S = 0.15


def kernel():
    """Exact Fraction arithmetic and dict updates, like quivercy's inner
    loops."""
    s = Fraction(0)
    acc = {}
    for i in range(1, 45):
        s += Fraction(i % 97 + 1, i % 13 + 1) * Fraction(3, i % 7 + 1)
        acc[i % 10] = acc.get(i % 10, 0) + s
    return s


class SpeedProbe:
    """Context manager that samples the kernel in the background of the
    main thread; use one per run."""

    def __init__(self):
        self.when = []
        self.took = []
        self._old = None

    def sample(self, *_signal_args):
        t0 = perf_counter()
        kernel()
        self.when.append(t0)
        self.took.append(perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.sample()

    def normalize(self, t0, t1):
        """Time of an operation that ran over [t0, t1], without the
        samples taken inside it, in nominal-kernel seconds."""
        inside = slice(bisect_left(self.when, t0), bisect_left(self.when, t1))
        own = t1 - t0 - sum(self.took[inside])
        near = self.took[bisect_left(self.when, t0 - PROBE_WINDOW_S):
                         bisect_left(self.when, t1 + PROBE_WINDOW_S)] or self.took
        return own * KERNEL_NOMINAL_S / statistics.median(near)
