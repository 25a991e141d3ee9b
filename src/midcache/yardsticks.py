"""Reference policies that bracket what a practical policy can achieve:
ship everything (nocache), replicate everything (replica), and a static
cache composition chosen with full-trace hindsight (soptimal). The static
set is `benefit`'s scoring model run as one window over the whole trace from
an empty cache and filled greedily, so it is not guaranteed optimal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .benefit import ShareTable, WindowStats, fill, window_benefits
from .core import (AnswerFromCache, CacheState, Decision, Event, Load,
                   ObjectCatalog, ObjectId, Query, ShipQuery, ShipUpdates,
                   Update, interacting_updates)


class NoCachePolicy:
    """Ship every query to the server; the cache stays empty."""

    def __init__(self, catalog: ObjectCatalog, cache: CacheState):
        pass   # stateless; takes the arguments every policy takes

    def startup(self) -> list[Decision]:
        return []

    def on_query(self, q: Query) -> list[Decision]:
        return [ShipQuery(q.qid)]

    def on_update(self, u: Update) -> list[Decision]:
        return []


class ReplicaPolicy:
    """Cache as large as the server holding all data from the start (no load
    charged; `RunConfig.capacity` sizes it to the whole catalog); every
    update ships the moment it arrives, so every query answers at the cache."""

    def __init__(self, catalog: ObjectCatalog, cache: CacheState):
        cache.seed_resident(catalog.ids())

    def startup(self) -> list[Decision]:
        return []

    def on_query(self, q: Query) -> list[Decision]:
        return [AnswerFromCache(q.qid)]

    def on_update(self, u: Update) -> list[Decision]:
        return [ShipUpdates((u.uid,))]


@dataclass(frozen=True)
class SOptimalPlan:
    """Static set picked after seeing the whole trace; loaded up front and
    never changed."""

    static_set: frozenset[ObjectId]
    initial_loads: tuple[Load, ...]


def plan_static_set(events: list[Event], catalog: ObjectCatalog,
                    capacity: int) -> SOptimalPlan:
    """One `benefit` window over the whole trace from an empty cache: every
    query credits its objects with their shares, every update charges its
    object, every object pays one load, and `fill` takes the positive scorers
    greedily up to capacity. Greedy, so the set is not guaranteed optimal.
    Each distinct (object set, cost) split is computed once, for this plan."""
    shares = ShareTable(catalog)
    stats = WindowStats()
    for ev in events:
        if isinstance(ev, Query):
            stats.add_query(ev, shares)
        else:
            stats.add_update_cost(ev.object, ev.ship_cost)
    chosen = fill(window_benefits(stats, frozenset(), catalog), capacity, catalog)
    return SOptimalPlan(frozenset(chosen), tuple(Load(o) for o in chosen))


class SOptimalPolicy:
    """Replays the trace against the precomputed static set. In eager mode
    (default) updates for set members ship on arrival; in lazy mode they queue
    until a query needs them."""

    def __init__(self, catalog: ObjectCatalog, cache: CacheState,
                 events: list[Event], mode: str = "eager"):
        if mode not in ("eager", "lazy"):
            raise ValueError(f"unknown soptimal mode {mode!r}")
        self.cache = cache
        self.mode = mode
        self.plan = plan_static_set(events, catalog, cache.capacity)

    def startup(self) -> list[Decision]:
        return list(self.plan.initial_loads)

    def on_query(self, q: Query) -> list[Decision]:
        if not q.objects <= self.plan.static_set:
            return [ShipQuery(q.qid)]
        ius = interacting_updates(q, self.cache, q.time)
        if not ius:
            return [AnswerFromCache(q.qid)]
        return [ShipUpdates(tuple(u.uid for u in ius)), AnswerFromCache(q.qid)]

    def on_update(self, u: Update) -> list[Decision]:
        if self.mode == "eager" and u.object in self.plan.static_set:
            return [ShipUpdates((u.uid,))]
        return []
