"""Load manager: decides which missing objects a shipped query should pull
into the cache. A policy keeps one `GdsState` and one random stream for the
whole run. For each shipped query it calls `offer`, whose spending rule
names the load candidates, and hands the batch to `gds_lazy_apply`, whose
admission and eviction follow Greedy-Dual-Size, run lazily. Both read each
object's catalog entry once; an id the catalog lacks raises UnknownObject.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from .core import CacheState, Decision, Evict, Load, ObjectId, Query, shuffle


@dataclass
class GdsState:
    """Greedy-Dual-Size bookkeeping: a global inflation level and a credit
    per resident object. Credits never fall below the inflation level. After
    each batch the credit keys are the resident set.

    `heap` takes victims by lazy deletion: it holds a (credit, oid) entry for
    every live credit, plus stale ones, left when a credit is replaced or
    dropped and skipped when they surface, so its minimum valid entry is the
    minimum-(credit, oid) resident. It is built from `credit` here; `credit`
    must change only through `gds_lazy_apply`, which pushes each new pair.

    `synced_cache` and `synced_moves` are the cache the credits were last
    synced against and the `moves` count it reaches once the last returned
    decisions are applied (none for a fresh state, whose first call syncs).
    The credits are checked against the resident set only when some other
    change came between, so breaking the decision-application contract
    leaves them, and so the victims, wrong."""

    inflation: float = 0.0
    credit: dict[ObjectId, float] = field(default_factory=dict)
    heap: list[tuple[float, ObjectId]] = field(init=False, repr=False, compare=False)
    synced_cache: CacheState | None = field(init=False, repr=False, compare=False)
    synced_moves: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rebuild_heap()
        self.synced_cache, self.synced_moves = None, -1

    def rebuild_heap(self) -> None:
        self.heap = [(h, oid) for oid, h in self.credit.items()]
        heapify(self.heap)


def offer(q: Query, cache: CacheState, rng: random.Random) -> list[ObjectId]:
    """Spend the query's shipping cost across its missing objects in uniformly
    random order, emitting load candidacies: distinct ids, none resident at
    batch start, in candidacy order. An object whose load cost the cost left
    covers becomes a candidate outright and uses that much up; the first one
    covered only in part becomes one with probability (cost left)/load_cost,
    and spending stops. So, with no per-object counter, an object turns
    candidate in expectation exactly when the traffic spent querying it
    matches the cost of loading it once. The order is
    `rng.shuffle(sorted(missing))`, drawn by `core.shuffle`."""
    missing = q.objects - cache.resident
    if len(missing) > 1:   # shuffling one object would draw nothing
        missing = sorted(missing)
        shuffle(missing, rng)
    entries, c = cache.catalog.entries, q.ship_cost
    batch: list[ObjectId] = []
    for oid in missing:
        if c <= 0:
            break
        lc = entries[oid].load_cost
        if c >= lc:
            batch.append(oid)
            c -= lc
        else:
            if rng.random() < c / lc:
                batch.append(oid)
            c = 0
    return batch


def gds_lazy_apply(state: GdsState, cache: CacheState,
                   batch: list[ObjectId]) -> tuple[GdsState, list[Decision]]:
    """Run Greedy-Dual-Size lazily over the batch of candidacies one query
    generates, on `state` in place, and emit only the net residency
    difference, so no batch both loads and evicts one object, and one admitted
    then evicted within it never touches the network; returns `state` itself
    with the decisions. First the credit keys become the resident set: other
    credits are dropped, and a resident without a credit (one loaded or
    seeded outside this function) gets the batch-start inflation, so
    inflation never falls. That walk is skipped while the state is in sync
    (see `GdsState`), and an empty batch returns here. The credit keys then
    stand in for the resident set. Each candidacy evicts minimum-(credit,
    oid) residents until the candidate fits (inflation rises to each victim's
    credit) and then admits it; a candidate bigger than the whole cache is
    skipped. An admitted candidate, and a resident one, gets the credit
    inflation + load_cost/size, pushed onto the heap. The heap is rebuilt
    from the credits once stale entries outnumber live ones."""
    credit, moves = state.credit, cache.moves
    if state.synced_cache is not cache or state.synced_moves != moves:
        resident = cache.resident
        if credit.keys() != resident:
            for oid in credit.keys() - resident:
                del credit[oid]
            for oid in resident.difference(credit):
                credit[oid] = state.inflation
                heappush(state.heap, (state.inflation, oid))
        state.synced_cache = cache
    if not batch:
        state.synced_moves = moves
        return state, []
    state.synced_moves = -1   # unsynced until the batch completes without an error
    if len(state.heap) > 2 * len(credit) + 16:
        state.rebuild_heap()
    heap, entries, capacity = state.heap, cache.catalog.entries, cache.capacity
    free = capacity - cache._used
    admitted: dict[ObjectId, None] = {}
    evicted: list[ObjectId] = []

    for oid in batch:
        info = entries[oid]
        size = info.size
        if oid not in credit:
            if size > capacity:
                continue
            while free < size:
                h, victim = heappop(heap)
                if credit.get(victim) != h:
                    continue   # stale: the credit was replaced or dropped
                state.inflation = h
                del credit[victim]
                free += entries[victim].size   # a resident, so in the catalog
                if victim in admitted:
                    del admitted[victim]
                else:
                    evicted.append(victim)
            free -= size
            admitted[oid] = None
        credit[oid] = h = state.inflation + info.load_cost / size
        heappush(heap, (h, oid))

    state.synced_moves = moves + len(evicted) + len(admitted)
    return state, [*map(Evict, evicted), *map(Load, admitted)]
