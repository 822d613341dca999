"""Machine-speed sampling for the timed runs.

On a shared virtual machine a vCPU runs at changing speeds: other load on
the host cores slows it by up to about 1.6x, in spells from a fraction of a
second to minutes, and the guest sees no steal time. Every timing of a run
moves with it, so two runs of the same code can differ by more than any
useful bound.

`SpeedSampler` times a fixed piece of work every `interval` seconds of wall
time, from a SIGALRM handler: a pure-Python loop of about a millisecond,
then `exp` over a 4 MB array, which is bound by memory bandwidth as the
large attention arrays of a 480x640 match are. The handler runs on the
thread that runs the workload, between its bytecodes, so each sample times
the vCPU the workload is on at that moment.

`scale(t0, t1)` is `REFERENCE_S` divided by the median sample taken in
[t0, t1], or of the `min_samples` samples nearest its middle when the
interval holds fewer. A duration multiplied by it reads as seconds on a
machine where one sample takes `REFERENCE_S`. The samples cost about 3% of
the run, the same on every commit, and no code of the program runs in them.

Interpreted code and memory-bound numpy code slow down by different shares.
Over 14 calls of a 480x640 `match_pair` (7.2 to 10.3 s), the call's time
correlated 0.88 with the loop alone and 0.94 with `exp` alone, but it
slowed by 0.7 and 1.6 times their relative slowdowns; against the sum of
the two, 0.93 and 1.1 times, which left the scaled times a coefficient of
variation of 0.04 against 0.10 unscaled.
"""

import bisect
import signal
import statistics
import time

LOOP = 16_000
EXP_FLOATS = 1 << 20
# The median time of one sample, alone on an idle 2-vCPU virtual machine
# (Python 3.11, numpy 2.4); it fixes the unit of every scaled time.
REFERENCE_S = 0.002


class SpeedSampler:
    def __init__(self, interval=0.1, min_samples=9):
        import numpy as np   # imported late: the harness sets the BLAS threads first

        self._array = np.linspace(-1.0, 1.0, EXP_FLOATS, dtype=np.float32)
        self._out = np.empty_like(self._array)
        self._exp = np.exp
        self.interval = interval
        self.min_samples = min_samples
        self.times = []      # start of each sample, perf_counter seconds
        self.seconds = []    # how long each sample took
        self._previous = None

    def sample_seconds(self):
        """Seconds one sample of the fixed work takes."""
        t0 = time.perf_counter()
        total = 0
        for i in range(LOOP):
            total += i * i
        self._exp(self._array, out=self._out)
        return time.perf_counter() - t0

    def _sample(self, signum, frame):
        self.times.append(time.perf_counter())
        self.seconds.append(self.sample_seconds())

    def __enter__(self):
        self._sample(None, None)   # so that even the shortest run has a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, t0, t1):
        """Factor that turns a duration measured over [t0, t1] into
        seconds at the reference speed."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo < self.min_samples:   # the samples nearest the middle instead
            mid = (t0 + t1) / 2
            lo = hi = bisect.bisect_left(self.times, mid)
            while hi - lo < self.min_samples and (lo > 0 or hi < len(self.times)):
                if hi == len(self.times) or (lo > 0 and mid - self.times[lo - 1]
                                             <= self.times[hi] - mid):
                    lo -= 1
                else:
                    hi += 1
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])
