"""The host's current speed, read from a fixed piece of reference work.

The virtual machines this benchmark runs on share their cores: the same
Python loop takes up to 1.7 times longer for seconds to minutes at a time,
and a whole run can fall in such a period.  Timings are therefore scaled to a
nominal host speed.  The process that times a piece of work also times
`reference_s()` just before and just after it, and every `Sampler.INTERVAL_S`
during it: pure-Python work with tuples, sorting and a dict, the kind of work
cantorfull does, that never enters cantorfull.  A program change cannot move
it, so the scaled time moves only with the program.  It is plain time when
the host runs at nominal speed.
"""

import signal
import statistics
import time

# The best time of reference_s() on a calm host (2-vCPU virtual machine,
# Python 3.11).  It only sets the scale of the reported times.
NOMINAL_S = 0.00033

_ITEMS = [tuple((i * 31 + j * 17) % 5 for j in range(8)) for i in range(400)]


def reference_s(repeats=3):
    """Best of `repeats` timings of the reference work, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        table = {}
        for item in _ITEMS:
            key = tuple(sorted(item))
            table[key] = table.get(key, ()) + item[:2]
        best = min(best, time.perf_counter() - started)
    return best


def scaled(seconds, references):
    """`seconds` at nominal speed, given the reference times taken around
    and during them."""
    return seconds * NOMINAL_S / statistics.fmean(references)


class Sampler:
    """Times the reference work every INTERVAL_S seconds of a long task, from a
    timer signal handled in the main thread between bytecodes.  `busy_s` is
    the time the samples took, which the caller takes out of the task's.  An
    inactive sampler takes no samples."""

    INTERVAL_S = 0.05

    def __init__(self, active=True):
        self.active, self.samples, self.busy_s = active, [], 0.0

    def _tick(self, signum, frame):
        started = time.perf_counter()
        self.samples.append(reference_s(repeats=1))
        self.busy_s += time.perf_counter() - started

    def __enter__(self):
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
