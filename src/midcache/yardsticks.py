"""Reference policies that bracket what a practical policy can achieve:
ship everything (nocache), replicate everything (replica), and a static
cache composition chosen with full-trace hindsight (soptimal). The static
set is `benefit`'s scoring model run as one window over the whole trace from
an empty cache and filled greedily, so it is not guaranteed optimal. The plan
accrues per query shape into two local dicts, `saved` and `update_cost`: it
counts each distinct (object set, cost) once and credits its split times the
count, which is exact in integers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .benefit import fill, split_shape, window_benefits
from .core import (AnswerFromCache, CacheState, Decision, Event, Load,
                   ObjectCatalog, ObjectId, Query, ShipQuery, ShipUpdates,
                   Update, interacting_updates)


class NoCachePolicy:
    """Ship every query to the server; the cache stays empty."""

    def __init__(self, cache: CacheState):
        pass   # stateless; takes the cache every policy takes

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

    def __init__(self, cache: CacheState):
        cache.seed_resident(cache.catalog.ids())

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


def plan_static_set(events: Sequence[Event], catalog: ObjectCatalog,
                    capacity: int) -> SOptimalPlan:
    """One `benefit` window over the whole trace from an empty cache: every
    query credits its objects with their shares, every update charges its
    object, every object pays one load, and `fill` takes the positive scorers
    greedily up to capacity. Greedy, so the set is not guaranteed optimal.
    One pass counts each query shape (object set, cost) and sums each
    object's update bytes; each shape is then split once, for this plan, and
    its shares are credited times its count. The trace reader and the
    generator give equal object sets one frozenset, so a shape hit compares
    its set by identity."""
    shapes: dict[tuple[frozenset[ObjectId], int], int] = {}
    saved: dict[ObjectId, int] = {}
    update_cost: dict[ObjectId, int] = {}
    for ev in events:
        if isinstance(ev, Query):
            shape = (ev.objects, ev.ship_cost)
            shapes[shape] = shapes.get(shape, 0) + 1
        else:
            update_cost[ev.object] = update_cost.get(ev.object, 0) + ev.ship_cost
    for (objects, cost), n in shapes.items():
        for oid, share in split_shape(objects, cost, catalog):
            saved[oid] = saved.get(oid, 0) + share * n
    chosen = fill(window_benefits(saved, update_cost, frozenset(), catalog), capacity, catalog)
    return SOptimalPlan(frozenset(chosen), tuple(Load(o) for o in chosen))


class SOptimalPolicy:
    """Replays the trace against the precomputed static set. In eager mode
    (default) updates for set members ship on arrival; in lazy mode they queue
    until a query needs them."""

    def __init__(self, cache: CacheState, events: Sequence[Event], mode: str = "eager"):
        if mode not in ("eager", "lazy"):
            raise ValueError(f"unknown soptimal mode {mode!r}")
        self.cache = cache
        self.mode = mode
        self.plan = plan_static_set(events, cache.catalog, cache.capacity)

    def startup(self) -> list[Decision]:
        return list(self.plan.initial_loads)

    def on_query(self, q: Query) -> list[Decision]:
        if not q.objects <= self.plan.static_set:
            return [ShipQuery(q.qid)]
        if not self.cache.outstanding:   # always so in eager mode
            return [AnswerFromCache(q.qid)]
        ius = interacting_updates(q, self.cache, q.time)
        if not ius:
            return [AnswerFromCache(q.qid)]
        return [ShipUpdates(tuple(u.uid for u in ius)), AnswerFromCache(q.qid)]

    def on_update(self, u: Update) -> list[Decision]:
        if self.mode == "eager" and u.object in self.plan.static_set:
            return [ShipUpdates((u.uid,))]
        return []
