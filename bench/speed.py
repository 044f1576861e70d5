"""Machine-speed sampling, so that timings survive a shared host's noise.

On the 2-core box this benchmark was built on, the CPU a process gets
switches between a fast and a slow state about 1.8x apart, flipping every
few tens of milliseconds, while the share of slow time drifts over minutes;
raw medians of 20-second runs moved by 30-50% from one run to the next.
``SpeedSampler`` runs a fixed pure-Python kernel from a SIGALRM handler every
``INTERVAL_S`` and logs how long it took.  ``seconds(t0, t1)`` then gives the
cost of the interval ``[t0, t1]`` in reference seconds: its wall time, minus
the sampler's own time inside it, times ``REF_KERNEL_S`` over the mean kernel
time sampled inside it (or just before it, for an interval too short to hold
a sample).  A reference second is a second of the box's fast state.

The kernel is benchmark code and pure Python, so no change to the program
moves it, and a child interpreter can sample before it imports numpy.

The correction assumes the program slows in the slow state as the kernel
does.  Code that waits on memory, such as a sparse solve, slows less, so in a
slow stretch its reference seconds read low; a change that moves work from
Python calls into large arrays can therefore look faster in reference seconds
than on the wall clock.  That is why the run reports both, and a gain counts
only when both show it.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.02
REF_KERNEL_S = 2.1e-4  # the kernel's time in the fast state, on that box


def _kernel():
    acc = 0.0
    for i in range(3000):
        acc += (i % 7) * 0.5
    return acc


class SpeedSampler:
    """Context manager: samples machine speed while active (main thread only)."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def seconds(self, t0, t1):
        """Reference seconds spent in the wall-clock interval [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.durations[lo:hi]
        speed = inside or self.durations[max(lo - 1, 0):lo] or self.durations[:1]
        net = (t1 - t0) - sum(inside)
        return net * REF_KERNEL_S * len(speed) / sum(speed)

    def overhead(self):
        """Share of the sampled span spent in the kernel."""
        span = self.starts[-1] + self.durations[-1] - self.starts[0]
        return sum(self.durations) / span if span > 0 else 0.0
