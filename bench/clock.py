"""Contention-corrected time: wall time scaled by the CPU's measured speed.

The reference machine is a VM on a shared host.  Its vCPUs switch, for
seconds at a time, between a fast state and a slow one in which the same
pure-Python code takes about 1.8 times as long; the share of slow time
drifts over minutes.  Raw wall time of identical rounds then spreads by
about 30%, too much to judge a change by.

A ``Sampler`` measures the CPU's speed while the program runs.  A timer
signal every ``PROBE_INTERVAL_S`` of wall time runs a fixed probe, a small
``Fraction``-and-dict loop like dcrlab's own arithmetic, and records how
long it took.  A span of wall time is then converted to the time it would
have taken with the probe at ``PROBE_REF_S``:

    corrected = (wall - probe time inside) * PROBE_REF_S * mean(1 / probe)

over the probes inside the span (or the nearest ones, for a span shorter
than the interval).  On eight rounds of the same gap-grid inputs, wall
time spread by 0.107 (quartile distance over median; range 0.217) and
corrected time by 0.022 (range 0.053).  The probe's own time is excluded
from both.
"""

import bisect
import signal
from fractions import Fraction
from time import perf_counter

PROBE_INTERVAL_S = 0.01
# The probe's time in the CPU's fast state on the reference machine,
# rounded; it only sets the scale of the corrected seconds.
PROBE_REF_S = 100e-6


def _probe() -> dict:
    mass = {}
    for i in range(1, 40):
        key = i % 7
        mass[key] = mass.get(key, Fraction(0)) + Fraction(1, i)
    return mass


class Sampler:
    def __init__(self):
        self.starts: list[float] = []
        self.lengths: list[float] = []

    def _sample(self, signum, frame) -> None:
        began = perf_counter()
        _probe()
        self.starts.append(began)
        self.lengths.append(perf_counter() - began)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def span(self, began: float, ended: float) -> tuple[float, float]:
        """(wall seconds, corrected seconds) of [began, ended], both
        without the probes that ran inside it."""
        lo = bisect.bisect_left(self.starts, began)
        hi = bisect.bisect_left(self.starts, ended)
        inside = self.lengths[lo:hi]
        wall = ended - began - sum(inside)
        speed = inside or self.lengths[max(lo - 1, 0):lo + 1]
        if not speed:  # no probe ran yet: count the span at the reference speed
            return wall, wall
        return wall, wall * PROBE_REF_S * sum(1 / p for p in speed) / len(speed)
