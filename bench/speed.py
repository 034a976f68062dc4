"""Timing scaled to the host's speed, sampled around and during the work.

On the 2-core box this benchmark was written on, the CPU runs in speed
regimes that switch every few seconds as other tenants load the host: the
same ``forkjoin(10)`` analysis takes ~240 ms in one and ~390 ms in the other,
and raw medians of 20-second runs spread by 15-30% (README, "Drift").  So
``Meter.time`` samples a short fixed loop right before the work, every
``INTERVAL_S`` during it (from a SIGALRM handler, on the same thread), and
right after it.  It reports the work's time both as measured and scaled to
the loop's reference time:

    scaled = (measured - time spent sampling) * REFERENCE_S / mean(loop samples)

Sampling during the work follows a regime switch in the middle of an
operation, which samples taken only outside it would miss.  The loop is
fixed code outside the program, of the two kinds lucentnet runs: small
dicts sorted into tuples, frozensets, slotted objects and string joins, then
a breadth-first search over token-count tuples of a small fork-join net.  It
runs with the cyclic collector off so the program's heap cannot slow it.  A
change to the program moves the measured time and leaves the loop alone, so
the scaled figure moves by the same share as the measured one would on a
quiet host.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Callable, List, Tuple

# about the loop's time in the fast regime of the reference box, so scaled
# figures read roughly as seconds on that box unloaded; any constant would
# do, as long as it never changes
REFERENCE_S = 0.0004
INTERVAL_S = 0.015


class _Node:
    __slots__ = ("key", "rank")

    def __init__(self, key, rank):
        self.key = key
        self.rank = rank


def _fork_join(k):
    """Input and output place indices of each transition of forkjoin(k)."""
    a, d = range(1, k + 1), range(k + 1, 2 * k + 1)
    return ([((0,), tuple(a)), (tuple(d), (0,))]
            + [((a[i],), (d[i],)) for i in range(k) for _ in "xy"])


_NET = _fork_join(4)
_START = (1,) + (0,) * 8


def reference_loop() -> float:
    """Seconds the fixed loop takes now."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen = {}
        for i in range(85):
            key = tuple(sorted({(i * 7) % 13: 1, (i * 5) % 11: 2, i % 17: 3}.items()))
            members = frozenset(k for k, _ in key)
            if key not in seen:
                seen[key] = _Node(members, len(seen))
            " ".join(str(k) for k in members)
        states = {_START: 0}
        queue = [_START]
        for m in queue:
            for pre, post in _NET:
                if all(m[p] for p in pre):
                    nxt = list(m)
                    for p in pre:
                        nxt[p] -= 1
                    for p in post:
                        nxt[p] += 1
                    nxt = tuple(nxt)
                    if nxt not in states:
                        states[nxt] = len(states)
                        queue.append(nxt)
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class Meter:
    """Times calls, scaled by loop samples taken before, during and after.

    The SIGALRM handler is installed once and kept for the life of the
    process; between calls the timer is off and the handler idle.
    """

    def __init__(self):
        self.last_samples: List[float] = []
        self._stolen = 0.0
        self._active = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if not self._active:
            return
        t0 = time.perf_counter()
        self.last_samples.append(reference_loop())
        self._stolen += time.perf_counter() - t0

    def time(self, fn: Callable, *args) -> Tuple[object, float, float]:
        """Call ``fn(*args)``; returns its result, its measured seconds (less
        the sampling) and its scaled seconds."""
        self.last_samples = [reference_loop()]
        self._stolen = 0.0
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._active = False
        self.last_samples.append(reference_loop())
        measured = t1 - t0 - self._stolen
        return result, measured, measured * REFERENCE_S / statistics.fmean(self.last_samples)
