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
evicted within the same batch never touches the network.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .core import CacheState, Decision, Evict, Load, ObjectCatalog, ObjectId, Query


@dataclass
class GdsState:
    """Greedy-Dual-Size bookkeeping: a global inflation level and a credit
    per resident object. Credits never fall below the inflation level."""

    inflation: float = 0.0
    credit: dict[ObjectId, float] = field(default_factory=dict)

    def copy(self) -> "GdsState":
        return GdsState(self.inflation, dict(self.credit))


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
    """Run Greedy-Dual-Size over the batch in simulation, then emit only the
    net residency difference.

    Each candidacy evicts minimum-credit residents until the candidate fits
    (inflation rises to each victim's credit) and then admits it; a candidate
    bigger than the whole cache is skipped. Since the diff is taken at the
    end, no batch ever both loads and evicts the same object.
    """
    sim = state.copy()
    resident = set(cache.resident)
    initial = set(resident)
    free = cache.free
    admitted_order: list[ObjectId] = []
    evicted_order: list[ObjectId] = []

    for oid in batch:
        if oid in resident:
            gds_touch(sim, oid, catalog)
            continue
        size = catalog.size(oid)
        if size > cache.capacity:
            continue
        while free < size:
            victim = min(resident, key=lambda o: (sim.credit.get(o, 0.0), o))
            sim.inflation = sim.credit.get(victim, 0.0)
            sim.credit.pop(victim, None)
            resident.discard(victim)
            free += catalog.size(victim)
            if victim in initial:
                evicted_order.append(victim)
            else:
                admitted_order.remove(victim)
        gds_touch(sim, oid, catalog)
        resident.add(oid)
        free -= size
        admitted_order.append(oid)

    decisions: list[Decision] = [Evict(o) for o in evicted_order]
    decisions += [Load(o) for o in admitted_order]
    sim.credit = {o: h for o, h in sim.credit.items() if o in resident}
    return sim, decisions


class LoadManager:
    """Per-policy wrapper owning the GDS state and the randomness stream."""

    def __init__(self, catalog: ObjectCatalog, rng: random.Random):
        self.catalog = catalog
        self.rng = rng
        self.state = GdsState()

    def handle(self, q: Query, cache: CacheState) -> list[Decision]:
        batch = offer(q, cache, self.catalog, self.rng)
        self.state, decisions = gds_lazy_apply(self.state, cache, self.catalog, batch)
        return decisions
