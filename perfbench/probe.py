"""Machine-speed probe that turns measured seconds into nominal seconds.

The machines this benchmark runs on change speed by up to 2x over tens
of seconds to minutes, because other tenants share the host: one pass of
a workload can take 0.85 s and the next 1.6 s, with no change to the
program.  So while a pass runs, a timer interrupts it every ``PERIOD_S``
to time ``probe()``, a fixed block of exact ``Fraction`` arithmetic that
does not touch mdrg, so a change to the program cannot move it.  Of the
probes tried (Fraction arithmetic, dict and list building, an integer
matrix product, and a mix of these) this one tracked the slowdowns of
all four workloads best.  Probe time is subtracted from the measured
commands, and every reported time is multiplied by ``NOMINAL_S /
mean(probe times)`` of its pass.  The unscaled times are printed and
recorded next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Probe time in seconds that maps to a scale factor of 1.  On a shared
# 2-CPU Xeon virtual machine the probe takes about 0.9 ms when the host
# is quiet and about 1.5 ms when it is busy.
NOMINAL_S = 0.0015
PERIOD_S = 0.05


def probe() -> float:
    """Seconds that one fixed block of ``Fraction`` work takes right now."""
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 160):
        acc = acc + Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i + 1)
        table[(i, i % 5)] = acc
    return time.perf_counter() - start


class Sampler:
    """Times ``probe()`` every ``PERIOD_S`` seconds while entered.

    The probe runs in a SIGALRM handler, so it interrupts the measured
    code between bytecodes; ``measure`` reports the probe time that fell
    inside the call it times, for the caller to subtract.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "Sampler":
        probe()                      # a first call may still run cold
        self.samples = [probe()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn, *args):
        """``fn(*args)``, the seconds it took and the probe seconds that
        fell inside them."""
        before = len(self.samples)
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        return result, elapsed, sum(self.samples[before:])

    def scale(self) -> float:
        """Factor that turns the seconds measured while entered into
        nominal seconds."""
        return NOMINAL_S / statistics.mean(self.samples)
