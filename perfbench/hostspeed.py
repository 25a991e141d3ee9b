"""Host speed probe: a fixed pure-Python loop timed next to every measured
replay, so that timings can be expressed in units of the host's speed at
that moment.

The benchmark was defined on a shared 2-vCPU VM whose speed swings by up to
1.9x for seconds to minutes at a time, and whole 50-second runs land in a
slow stretch. CPU time does not help: the slow-down is not time spent
descheduled, so `process_time` moves with the wall clock. The probe runs the
same kinds of interpreter work the replays do (attribute access, dict and set
updates, a heap, tuple and string building) and touches no midcache code, so
a change to midcache cannot move it. A replay's time divided by the mean of
the probes around it cancels the slow drift of the host; the run's medians
remove the rest.
"""

from __future__ import annotations

import heapq
import time

# Median probe time on the machine the benchmark was defined on (2-vCPU
# shared VM, Intel Xeon 2.0 GHz, Python 3.11.7). Normalised timings are
# multiplied by it, so they read as seconds on that machine at its median
# speed.
REFERENCE_S = 0.0119

_STEPS = 5_000


class _Item:
    __slots__ = ("key", "size", "stamp")

    def __init__(self, key: int, size: int, stamp: int):
        self.key = key
        self.size = size
        self.stamp = stamp


def kernel(steps: int = _STEPS) -> float:
    """The probe's work; deterministic, returns a checksum."""
    table: dict[int, _Item] = {}
    live: set[int] = set()
    heap: list[tuple[float, int]] = []
    acc = 0.0
    for i in range(steps):
        key = (i * 7919) % 997
        item = table.get(key)
        if item is None:
            item = table[key] = _Item(key, i % 13 + 1, i)
        else:
            item.stamp = i
        if key in live:
            live.discard(key)
        else:
            live.add(key)
        heapq.heappush(heap, (item.size * 0.5 + i % 17, key))
        if len(heap) > 256:
            acc += heapq.heappop(heap)[0]
        if isinstance(item, _Item) and i % 11 == 0:
            acc += sum(x.size for x in list(table.values())[:8])
    text = ",".join(f"{k}:{v.size}:{v.stamp}" for k, v in sorted(table.items()))
    return acc + len(text) + len(live)


def probe() -> float:
    """Seconds one run of the probe takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
