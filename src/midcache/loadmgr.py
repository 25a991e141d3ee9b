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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .core import CacheState, Decision, Evict, Load, ObjectCatalog, ObjectId, Query


@dataclass
class GdsState:
    """Greedy-Dual-Size bookkeeping: a global inflation level and a credit
    per resident object. Credits never fall below the inflation level. After
    each batch the credit keys are the resident set."""

    inflation: float = 0.0
    credit: dict[ObjectId, float] = field(default_factory=dict)


CandidacyBatch = list  # ordered ObjectIds, no duplicates, non-resident at batch start


def offer(q: Query, cache: CacheState, catalog: ObjectCatalog,
          rng: random.Random) -> CandidacyBatch:
    """Spend the query's shipping cost across its missing objects in uniformly
    random order, emitting load candidacies."""
    missing = sorted(o for o in q.objects if not cache.is_resident(o))
    rng.shuffle(missing)
    c = q.ship_cost
    batch: CandidacyBatch = []
    for oid in missing:
        if c <= 0:
            break
        lc = catalog.load_cost(oid)
        if c >= lc:
            batch.append(oid)
            c -= lc
        else:
            if rng.random() < c / lc:
                batch.append(oid)
            c = 0
    return batch


def gds_touch(state: GdsState, oid: ObjectId, catalog: ObjectCatalog) -> None:
    """Refresh an object's credit to inflation + load_cost/size. Idempotent;
    called on admission and on candidacy for an already-resident object."""
    state.credit[oid] = state.inflation + catalog.load_cost(oid) / catalog.size(oid)


def gds_lazy_apply(state: GdsState, cache: CacheState, catalog: ObjectCatalog,
                   batch: CandidacyBatch) -> tuple[GdsState, list[Decision]]:
    """Run Greedy-Dual-Size over the batch on `state` in place and emit only
    the net residency difference; returns `state` itself with the decisions.

    First the credit keys become the resident set (a resident without a
    credit gets 0.0, other credits are dropped), and they stay it: after the
    batch they are the resident set the decisions leave. Each candidacy
    evicts minimum-(credit, oid) residents until the candidate fits
    (inflation rises to each victim's credit) and then admits it; a
    candidate bigger than the whole cache is skipped. Since the diff is
    taken at the end, no batch ever both loads and evicts the same object.
    """
    credit = state.credit
    for oid in credit.keys() - cache.resident:
        del credit[oid]
    for oid in cache.resident.difference(credit):
        credit[oid] = 0.0
    free = cache.free
    admitted: dict[ObjectId, None] = {}
    evicted: list[ObjectId] = []

    for oid in batch:
        if oid in credit:
            gds_touch(state, oid, catalog)
            continue
        size = catalog.size(oid)
        if size > cache.capacity:
            continue
        while free < size:
            state.inflation, victim = min((h, o) for o, h in credit.items())
            del credit[victim]
            free += catalog.size(victim)
            if victim in admitted:
                del admitted[victim]
            else:
                evicted.append(victim)
        gds_touch(state, oid, catalog)
        free -= size
        admitted[oid] = None

    return state, [Evict(o) for o in evicted] + [Load(o) for o in admitted]


class LoadManager:
    """Per-policy wrapper owning the GDS state and the randomness stream."""

    def __init__(self, catalog: ObjectCatalog, rng: random.Random):
        self.catalog = catalog
        self.rng = rng
        self.state = GdsState()

    def handle(self, q: Query, cache: CacheState) -> list[Decision]:
        batch = offer(q, cache, self.catalog, self.rng)
        _, decisions = gds_lazy_apply(self.state, cache, self.catalog, batch)
        return decisions
