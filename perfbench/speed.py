"""Host speed reference: a fixed pure-Python loop timed next to every op.

A shared host can change speed by a factor of up to 2 in phases of seconds to
minutes: on a 2-core VM one odd-cycle op on a fixed point has been timed
at 0.07 s and at 0.125 s within one minute, with CPU time equal to wall
time, so the slowdown is the processor's, not the scheduler's.  That is
wider than the benchmark's bounds.  The loop below does the same kind of
work as the program (heap, dict, set and list operations in the
interpreter) and none of the program's code, so it slows with the host
but not with a change to cgcuts.

An op's time is scaled by ``(REF_S / t) ** ALPHA`` with ``t`` the mean of
the loop's times just before and just after it, so that it reads as
seconds on a host where the loop takes ``REF_S``.  The loop slows more
than the ops do: with the loop between 0.0034 s and 0.0063 s, the ops
followed its time to the power 0.73 (odd-cycle), 0.61 (clique) and
about 0.64 (one CLI call), fitted over 5-second buckets of 150 s of
alternating ops on the same 2-core VM.  With ALPHA = 1 a slow phase read
up to 15% faster than a quiet one.
"""

from __future__ import annotations

import heapq
import time

REF_S = 0.0035  # the loop's time on a 2-core Xeon VM in a quiet phase
ALPHA = 0.7


def loop_s() -> float:
    """Time of the reference loop, in seconds: the least of three passes,
    so that a pass slowed by an interrupt or by caches that the op before
    it left cold does not count.  Its data stay small (1,000 heap entries),
    so it runs from cache: a loop over a 1 MB heap slowed more than the
    ops in slow phases and over-corrected."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(4):
            heap: list[tuple[int, int]] = []
            dist: dict[int, int] = {}
            seen: set[int] = set()
            for i in range(1000):
                key = (i * 7919) % 10007
                heapq.heappush(heap, (key, i))
                dist[key & 255] = dist.get(key & 255, 0) + key
                if key & 3:
                    seen.add(key)
            while heap:
                key, i = heapq.heappop(heap)
                if key in seen:
                    seen.discard(key)
        best = min(best, time.perf_counter() - t0)
    return best


class Scale:
    """Brackets each op between two loop passes; ``after()`` returns the
    factor that turns the op's wall time into reference seconds."""

    def __init__(self) -> None:
        self.before = loop_s()
        self.loops: list[float] = [self.before]

    def after(self) -> float:
        now = loop_s()
        self.loops.append(now)
        factor = (2 * REF_S / (self.before + now)) ** ALPHA
        self.before = now
        return factor
