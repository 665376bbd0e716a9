"""The speed of the host, sampled inside each measured process.

The vCPUs of a shared host run a fixed Python loop up to 1.8 times
slower for seconds to minutes at a time, with CPU time equal to wall
time, so no run length averages the drift out and CPU time does not
remove it.  The benchmark therefore reports every time in reference
seconds: the time the operation would take on a host where the fixed
kernel below takes REFERENCE_S.

A Sampler in each measured process runs the kernel a few times at start
and then every INTERVAL_S from a SIGALRM handler, which runs between two
bytecodes of the process's own thread, on the vCPU the process runs on.
Speed.reference_seconds takes an interval of the process's time, drops
the kernel runs inside it, and scales each stretch between two kernel
runs by REFERENCE_S over the local median of the kernel's time.  The
kernel uses only Fraction, tuples and dicts, never qgal, so a change to
qgal cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
START_SAMPLES = 3
# the local speed at a kernel run is the median over this many runs
# around it, so 0.9 s of the process's time at INTERVAL_S
SMOOTH = 9
# the kernel's time, in seconds, at the reference speed: about its
# median on the host that measured the README's figures (1.1 ms at its
# fastest)
REFERENCE_S = 0.002


def kernel():
    """Fixed pure-Python work in the style of qgal's inner loops: words
    as tuples, a dict keyed by them, rational arithmetic."""
    memo = {}
    acc = Fraction(0)
    word = (0,)
    for i in range(300):
        word = (word + (i % 5,))[-6:]
        prev = memo.get(word)
        acc += Fraction(i % 11 - 5, i % 7 + 1)
        memo[word] = acc if prev is None else prev + acc
    return len(memo)


class Sampler:
    """Runs the kernel on a timer and keeps [start, end] of each run."""

    def __init__(self):
        self.samples = []
        self._busy = False

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        self.samples.append([start, time.perf_counter()])
        self._busy = False

    def start(self):
        for _ in range(START_SAMPLES):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


class Speed:
    """Converts intervals of one or more processes' time into reference
    seconds, from the kernel runs those processes recorded.  Times are
    time.perf_counter() values, which on Linux are CLOCK_MONOTONIC and
    so agree between processes."""

    def __init__(self, samples):
        samples = sorted(samples)
        if not samples:
            raise ValueError("no host speed samples")
        self.starts = [s for s, _ in samples]
        self.ends = [e for _, e in samples]
        took = [e - s for s, e in samples]
        h = SMOOTH // 2
        self.local = [statistics.median(took[max(0, i - h):i + h + 1])
                      for i in range(len(took))]

    def factor(self, i):
        """REFERENCE_S over the local kernel time between runs i-1 and i."""
        n = len(self.local)
        lo, hi = self.local[max(0, min(i - 1, n - 1))], \
            self.local[min(i, n - 1)]
        return 2 * REFERENCE_S / (lo + hi)

    def reference_seconds(self, a, b):
        """The interval [a, b] less the kernel runs in it, each stretch
        scaled by the speed measured around it."""
        total = 0.0
        i = bisect.bisect_right(self.ends, a)
        t = a
        while t < b:
            stop = min(b, self.starts[i]) if i < len(self.starts) else b
            if stop > t:
                total += (stop - t) * self.factor(i)
            if stop >= b:
                break
            t = max(t, self.ends[i])
            i += 1
        return total

    def raw_factor(self):
        """Median of REFERENCE_S over the kernel time: below 1 when the
        host ran slower than the reference."""
        return REFERENCE_S / statistics.median(
            e - s for s, e in zip(self.starts, self.ends))
