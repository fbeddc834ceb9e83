"""Machine-speed probe used to scale measured times.

On a shared host the speed of one CPU drifts by up to 2x, on time scales
from a fraction of a second to minutes, and identical requests and
identical pure-Python loops slow down and speed up together.  Over 90 s on
a 2-CPU sandbox, 3-second medians of a 2x1x1 report ranged from 77 to
138 ms (a spread of 0.31 between windows), with a correlation of 0.97 to
the time of a fixed kernel; the report's time over the kernel's time had a
spread of 0.056.

So the worker times a fixed kernel between requests, and during them from
a timer signal every ``INTERVAL_S``, and multiplies each request's time by
``REFERENCE_S`` over the median kernel time in a window around the
request: the request itself, widened to ``WINDOW_S`` when it is shorter.
A time of 1 ms means 1 ms at the reference speed.  Single kernel times are
noisy; the window keeps a short request's scale from resting on a few.  The kernel uses only the
standard library and none of lagfib, so no change to lagfib moves it, and
it creates no objects the garbage collector tracks, so it does not change
when lagfib's collections run.  Time spent in the signal handler is taken
out of the request's time.  Unscaled figures are printed beside the
result.
"""

import signal
from bisect import bisect_left, bisect_right
from math import gcd
from statistics import median
from time import perf_counter

# About the median kernel time during benchmark runs on a 2-CPU x86-64
# sandbox with Python 3.11.7.  Fixed: changing it rescales every reported
# time.
REFERENCE_S = 0.0003

INTERVAL_S = 0.025
WINDOW_S = 2.0

_WEIGHTS = tuple((i * 7919) % 1009 - 504 for i in range(256))


def kernel():
    """Exact rational accumulation with gcd reduction and an integer dot
    product: the kinds of work lagfib's exact algebra does."""
    num, den = 0, 1
    for i in range(1, 600):
        p, q = i % 7 - 3, i % 11 + 1
        num, den = num * q + p * den, den * q
        g = gcd(num, den)
        num, den = num // g, den // g
    acc = 0
    w = _WEIGHTS
    for _ in range(4):
        for i in range(256):
            acc += w[i] * w[255 - i]
    return num, den, acc


def timed_kernel():
    start = perf_counter()
    kernel()
    return perf_counter() - start


def sample(repeats=3):
    """Median time of ``repeats`` kernel runs, in seconds."""
    return median(timed_kernel() for _ in range(repeats))


class SpeedProbe:
    """Kernel times with their start times, taken between and during
    requests.

    Use as a context manager around a pass: it installs the SIGALRM
    handler and restores the previous one on exit.  ``arm``/``disarm``
    bracket one request; ``handler_s`` is the total time the handler ran.
    With ``interval`` None no timer runs and only ``between`` samples.
    """

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.starts = []
        self.samples = []
        self.handler_s = 0.0
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.between()
        return self

    def __exit__(self, *exc):
        self.disarm()
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _on_alarm(self, signum, frame):
        start = perf_counter()
        self.starts.append(start)
        self.samples.append(timed_kernel())
        self.handler_s += perf_counter() - start

    def arm(self):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def disarm(self):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def between(self):
        self.starts.append(perf_counter())
        self.samples.append(timed_kernel())

    def scale(self, start, end, window=WINDOW_S):
        """Reference speed over the median kernel time in [start, end],
        widened evenly to ``window`` seconds when shorter, and always
        taking the nearest sample on each side."""
        pad = max(0.0, (window - (end - start)) / 2)
        lo = min(bisect_left(self.starts, start - pad),
                 bisect_left(self.starts, start) - 1)
        hi = max(bisect_right(self.starts, end + pad),
                 bisect_right(self.starts, end) + 1)
        return REFERENCE_S / median(self.samples[max(0, lo):hi])
