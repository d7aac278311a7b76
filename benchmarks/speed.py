"""Reference-speed clock: times scaled to a fixed speed of the machine.

The benchmark shares a small machine with other tenants, which slow it
by up to 1.9x, in episodes from a fraction of a second to minutes. A
fixed kernel, unrelated to geolorenz, measures how fast the machine runs
right now: a timer signal runs it every ``PERIOD_S`` seconds inside the
worker, between the library's bytecodes. Each stretch of time between
samples is scaled by ``REF_KERNEL_S`` over the mean kernel time of the
samples around it, and the kernel's own time is taken out. A stretch
measured while a neighbour halves the machine's speed therefore counts
half. What is left is the program's time at the reference speed, in
seconds: the time it would take on the idle reference machine.

The kernel mixes the kinds of work geolorenz does: tuples and dicts,
float arithmetic, method calls and numpy ufuncs on a few thousand
floats. Each sample runs it twice and times the second run only, so that
the time does not depend on how much of the kernel's code and data the
library's own work pushed out of the caches in between: the probe
measures the speed of the core, not the program's memory footprint. The
kernel holds no state the library can see, and garbage collection is off
while it runs, so it changes no result of the library.
"""

import gc
import signal
import time

import numpy as np

PERIOD_S = 0.02
# samples per scaling block: each stretch of about BLOCK * PERIOD_S
# seconds is scaled by the mean kernel time of its own samples
BLOCK = 16
# kernel time inside a worker on the idle reference machine (2 vCPUs,
# x86-64, Python 3.11, numpy 2.4); it fixes the unit and nothing else
REF_KERNEL_S = 0.00031

_FLOATS = np.linspace(0.0, 1.0, 2048)


class _Affine:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def apply(self, x):
        return (self.a * x + self.b) % 1.0


def kernel():
    """A fixed unit of interpreter and numpy work."""
    counts = {}
    x = 0.5
    for i in range(200):
        key = (i % 13, i % 7, i >> 3)
        counts[key] = counts.get(key, 0) + 1
        x = 3.7 * x * (1.0 - x)
    total = len(sorted(counts.items())) + x
    for _ in range(6):
        y = np.sin(_FLOATS) * _FLOATS + np.sqrt(_FLOATS)
        total += float(y @ _FLOATS)
    f = _Affine(0.5, 0.25)
    for _ in range(400):
        x = f.apply(x)
    return total + x


class SpeedProbe:
    """Samples the kernel on a timer and scales intervals by it."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        # (start, timed run, both runs) of each sample
        self.samples = []
        self._previous = None

    def sample(self, *_):
        enabled = gc.isenabled()
        gc.disable()
        try:
            first = time.perf_counter()
            kernel()
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            # the warm-up run counts as kernel time, not as its speed
            self.samples.append((first, end - start, end - first))
        finally:
            if enabled:
                gc.enable()

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def kernel_time(self, a, b):
        """Seconds the kernel ran between a and b."""
        return sum(d for s, _, d in self.samples if a <= s < b)

    def factor(self, a, b):
        """Mean kernel time near [a, b] over the reference kernel time.

        Uses the samples that start in [a, b], or the BLOCK samples
        nearest its middle when there are fewer.
        """
        inside = [d for s, d, _ in self.samples if a <= s < b]
        if len(inside) < BLOCK:
            mid = 0.5 * (a + b)
            near = sorted(self.samples, key=lambda sample: abs(sample[0] - mid))
            inside = [d for _, d, _ in near[:BLOCK]]
        return sum(inside) / len(inside) / REF_KERNEL_S

    def scaled(self, a, b):
        """Seconds of work between a and b at the reference speed.

        [a, b] is cut into blocks of BLOCK samples; each block's time,
        less its kernel time, is divided by that block's own factor.
        """
        starts = [s for s, _, _ in self.samples if a <= s < b]
        cuts = [a] + starts[BLOCK:len(starts) - BLOCK // 2:BLOCK] + [b]
        total = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            total += (hi - lo - self.kernel_time(lo, hi)) / self.factor(lo, hi)
        return total
