"""A yardstick of machine speed, timed between the operations of a pass.

The virtual machines this benchmark runs on change speed by tens of per
cent for seconds to minutes at a time, whatever the process does (see
README.md).  No statistic taken over the operations alone can undo a slow
phase that lasts a whole run.  So a pass also times a fixed piece of pure
Python work, the yardstick, before its first operation, after its last and
between operations every ``EVERY_S`` seconds of operations, and puts its
operations at the reference speed: an operation that took ``t`` seconds in
a pass whose yardsticks took ``y`` seconds at the median counts as

    t * NOMINAL_S / y

``NOMINAL_S`` is the yardstick's time on the reference machine (see
README.md), so on that machine at its usual speed a scaled time reads
close to the wall time.  The yardstick does not call ``dpl``: a change to
the program moves the scaled times exactly as it moves the wall times.
"""

import statistics
import time

NOMINAL_S = 0.022   # the yardstick on the reference machine, typical phase
EVERY_S = 0.25      # operation time between two yardsticks, at least


def _work():
    """A fixed mix of what dpl's code does: small tuples, rotations,
    dict and set lookups, integer arithmetic."""
    seen = {}
    word = (1, -2, 3, -4, 5, -1, 2, -3, 4, -5)
    acc = 0
    for k in range(3300):
        sign = 1 if k & 1 else -1
        img = tuple(sign * ((abs(x) + k) % 5 + 1) * (1 if x > 0 else -1)
                    for x in word)
        key = min(img[i:] + img[:i] for i in range(len(img)))
        seen.setdefault(key, []).append(k)
        acc = (acc * 31 + len(seen)) % 1000003
    return acc, len(seen)


def yardstick():
    """Seconds the yardstick takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class Scale:
    """The yardsticks of one stretch of work, and its operation times put
    at the reference speed.

    Call :meth:`tick` before every operation, :meth:`record` after it and
    :meth:`close` after the last; :meth:`scaled` then gives each
    operation's time at the reference speed.
    """

    def __init__(self):
        self.samples = [yardstick()]
        self.raw = []           # seconds per operation, as measured
        self._since = 0.0

    def tick(self):
        if self._since >= EVERY_S:
            self.samples.append(yardstick())
            self._since = 0.0

    def record(self, seconds):
        self.raw.append(seconds)
        self._since += seconds

    def close(self):
        self.samples.append(yardstick())

    def scaled(self):
        factor = NOMINAL_S / statistics.median(self.samples)
        return [t * factor for t in self.raw]


def scaled_call(fn, *args):
    """``fn(*args)`` between two yardsticks: (result, seconds at the
    reference speed, seconds as measured)."""
    s = Scale()
    t0 = time.perf_counter()
    out = fn(*args)
    wall = time.perf_counter() - t0
    s.record(wall)
    s.close()
    return out, s.scaled()[0], wall
