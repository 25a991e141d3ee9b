"""Load manager: decides which missing objects a shipped query should pull
into the cache.

Instead of keeping a per-object counter of attributed shipping cost, the
query's cost is spent across its missing objects in random order; an object
whose load cost is fully covered becomes a load candidate outright, a
partially covered one becomes a candidate with probability cost/load_cost.
In expectation an object turns candidate exactly when the traffic spent
querying it matches the cost of loading it once.

Admission and eviction follow Greedy-Dual-Size, run lazily over the whole
batch of candidacies one query generates: the batch is simulated first and
only the net residency changes are emitted, so an object admitted and then
evicted within the same batch never touches the network. The simulation runs
on the GDS state itself, whose credit map stands in for the resident set:
after each batch, the credit keys are exactly the objects the emitted
decisions leave resident.

Victims come off a heap of (credit, oid) entries with lazy deletion. Every
live credit has its pair on the heap; an entry whose pair no longer matches
the credit map is stale and is skipped when it surfaces. Credits change only
through `gds_lazy_apply`, which pushes each new pair, so the heap's minimum
valid entry is always the minimum-(credit, oid) resident.

A policy keeps one `GdsState` and one random stream for the whole run; for
each shipped query it calls `offer` and hands the batch to `gds_lazy_apply`.
Both read each object's entry in the cache's catalog once, and an id it
lacks raises UnknownObject. `offer` shuffles only two or more missing
objects (shuffling one draws nothing), and an empty batch returns once the
credits match the residents.

The caller keeps `CacheState`'s decision-application contract. The state
remembers the cache it last synced against and the `moves` count the
decisions bring it to, so the credits are checked against the resident set
only when some other change came between; breaking the contract leaves the
credits, and so the victims, wrong.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from .core import CacheState, Decision, Evict, Load, ObjectId, Query


@dataclass
class GdsState:
    """Greedy-Dual-Size bookkeeping: a global inflation level and a credit
    per resident object. Credits never fall below the inflation level. After
    each batch the credit keys are the resident set.

    `heap` holds a (credit, oid) entry for every live credit, plus stale
    entries left behind when a credit is replaced or dropped. It is built
    from `credit` here, and `credit` must change only through
    `gds_lazy_apply`, which keeps the heap in step.

    `synced_cache` is the cache the credits were last synced against and
    `synced_moves` the `moves` count it reaches once the last returned
    decisions are applied; a fresh state has none, so its first call syncs."""

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
    batch start, in candidacy order.

    The order is `rng.shuffle(sorted(missing))`, drawn as `Random.shuffle`
    draws it on CPython 3.10-3.13 (each index by `getrandbits` until it is in
    range) without its calls, so the permutation and the stream's state after
    it are the same."""
    missing = q.objects - cache.resident
    if len(missing) > 1:   # shuffling one object would draw nothing
        missing = sorted(missing)
        getrandbits = rng.getrandbits
        for i in range(len(missing) - 1, 0, -1):
            k = (i + 1).bit_length()
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            missing[i], missing[j] = missing[j], missing[i]
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
    """Run Greedy-Dual-Size over the batch on `state` in place and emit only
    the net residency difference; returns `state` itself with the decisions.

    First the credit keys become the resident set: other credits are
    dropped, and a resident without a credit (one loaded or seeded outside
    this function) gets the batch-start inflation, so inflation never falls.
    That walk is skipped when `cache` is the one the state last synced
    against and its `moves` count is the one the last returned decisions
    bring it to, as `CacheState`'s decision-application contract allows.
    The keys then stay the resident set: after the batch they are the
    residents the decisions leave. Each candidacy evicts minimum-(credit,
    oid) residents until the candidate fits (inflation rises to each
    victim's credit) and then admits it; a candidate bigger than the whole
    cache is skipped. An admitted candidate, and a resident one, gets the
    credit inflation + load_cost/size, pushed onto the heap. Since the diff
    is taken at the end, no batch ever both loads and evicts the same
    object. The heap is rebuilt from the credits once stale entries
    outnumber live ones.
    """
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
