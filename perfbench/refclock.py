"""Times scaled to a fixed reference speed, sampled while they are measured.

On a shared host the CPU's speed drifts by tens of percent, both within a
second and between minutes, and wall time and CPU time drift together.  A
fixed pure-Python loop timed beside the program slows down with it.  A time
measured together with the loop's mean time ``ref_s`` over the same stretch
is reported at reference speed, ``seconds * REFERENCE_S / ref_s``: the time
it would have taken on a CPU that runs the loop in ``REFERENCE_S``.  The
drift common to both cancels.

While a timed pass runs, ``Sampler`` has SIGALRM interrupt it every
``PERIOD_S`` seconds and times the loop once.  ``clock`` is the clock every
timed operation reads; it leaves out the time spent in the signal handler,
so the samples never count as program time.  No thread is started: the
handler runs in the main thread between bytecodes.  A set-up probe runs in
a child process and is bracketed by ``reference_s`` instead.
"""

import signal
import statistics
import time

PERIOD_S = 0.02
REFERENCE_STEPS = 1500  # about 0.1-0.2 ms per loop, under 1% of a pass
# The loop's time that defines reference speed: about its median on the
# host README.md describes.  Fixed, so that runs and commits compare.
REFERENCE_S = 100e-6
# A sample this many times its block's median was interrupted (the process
# descheduled for milliseconds); it measures the interruption, not speed.
INTERRUPTED_FACTOR = 5

_handler_s = 0.0  # total time spent in the handler; per process, like SIGALRM


def clock():
    return time.perf_counter() - _handler_s


def reference_loop():
    acc = 0
    for i in range(REFERENCE_STEPS):
        acc += (i * i) % 13
    return acc


def at_reference_speed(seconds, ref_s):
    return seconds * REFERENCE_S / ref_s


def reference_s(loops=10):
    """Mean time of ``loops`` reference loops run back to back."""
    start = time.perf_counter()
    for _ in range(loops):
        reference_loop()
    return (time.perf_counter() - start) / loops


class Sampler:
    """``with Sampler() as s:`` samples the reference loop until the block
    ends; ``s.mean_s`` is then its mean time over the block."""

    def __init__(self):
        self.samples = []

    def sample(self):
        global _handler_s
        start = time.perf_counter()
        reference_loop()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        _handler_s += time.perf_counter() - start

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        self.samples = []
        self.sample()  # a block shorter than PERIOD_S still gets two samples
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    @property
    def mean_s(self):
        """Mean loop time over the block, interrupted samples left out."""
        limit = INTERRUPTED_FACTOR * statistics.median(self.samples)
        return statistics.fmean(s for s in self.samples if s <= limit)
