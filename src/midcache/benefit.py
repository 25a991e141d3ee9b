"""Windowed-benefit heuristic policy.

The event sequence is cut into fixed-length windows. Each object accrues a
per-window benefit: shipping cost saved by answering queries at the cache
(split across a query's objects in proportion to size), minus the update
traffic it caused; objects not in the cache accrue the benefit they would
have earned had they been resident, less one load cost. An exponentially
smoothed forecast ranks objects at every window boundary and the cache is
recomposed greedily from the top of the ranking.

The `soptimal` yardstick plans with the same pieces (`split_shape`,
`WindowStats`, `window_benefits`, `fill`): one window over the whole trace,
empty cache.

A query's split depends only on its shape (object set, cost) and the
catalog, so each run computes every distinct shape's split once: `benefit`
in a `ShareTable` that the run owns and that dies with it, `soptimal` by
counting the shapes before it splits them. Regrained catalogs reuse object
ids with other sizes, so no split outlives its run.

Between boundaries the cache protocol is plain: fully resident and current
enough answers at the cache, fully resident but stale ships the interacting
updates first, anything else ships the query.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass, field

from .core import (AnswerFromCache, CacheState, Decision, Evict, Load,
                   ObjectCatalog, ObjectId, Query, ShipQuery, ShipUpdates,
                   UnknownObject, Update, interacting_updates)


def proportional_shares(amount: int, sizes: list[tuple[ObjectId, int]]) -> dict[ObjectId, int]:
    """Split an integer amount across objects in proportion to size, exactly:
    floor each share, then hand the leftover units out by largest remainder
    (ties to the smaller object id, whatever the input order). Integer
    arithmetic throughout. Sizes are positive and the list non-empty, as for
    every query's objects; one object takes the whole amount."""
    if len(sizes) == 1:
        return {sizes[0][0]: amount}
    total = sum(s for _, s in sizes)
    shares: dict[ObjectId, int] = {}
    remainders: list[tuple[int, ObjectId]] = []
    leftover = amount
    for oid, s in sizes:
        share, rem = divmod(amount * s, total)
        shares[oid] = share
        leftover -= share
        remainders.append((-rem, oid))
    if leftover:
        remainders.sort()
        for _, oid in remainders[:leftover]:
            shares[oid] += 1
    return shares


def split_shape(objects: frozenset[ObjectId], cost: int,
                catalog: ObjectCatalog) -> tuple[tuple[ObjectId, int], ...]:
    """The `(oid, share)` pairs of `proportional_shares` for one query shape
    (object set, cost), in sorted-oid order. An object missing from the
    catalog raises UnknownObject, naming the smallest such id."""
    entries = catalog.entries
    try:
        sizes = [(oid, entries[oid].size) for oid in sorted(objects)]
    except KeyError as e:
        raise UnknownObject(f"object {e.args[0]} not in catalog") from None
    return tuple(proportional_shares(cost, sizes).items())


class ShareTable:
    """One run's splits: query shape (object set, cost) -> its `split_shape`
    pairs. A policy that meets queries one at a time splits each distinct
    shape once, on first use; the table belongs to one run over one catalog.
    A planner that sees every query up front counts the shapes instead and
    calls `split_shape` once per shape (see `yardsticks.plan_static_set`)."""

    def __init__(self, catalog: ObjectCatalog):
        self.catalog = catalog
        self.splits: dict[tuple[frozenset[ObjectId], int], tuple[tuple[ObjectId, int], ...]] = {}

    def split(self, q: Query) -> tuple[tuple[ObjectId, int], ...]:
        key = (q.objects, q.ship_cost)
        pairs = self.splits.get(key)
        if pairs is None:
            pairs = self.splits[key] = split_shape(q.objects, q.ship_cost, self.catalog)
        return pairs


@dataclass
class WindowStats:
    """Per-object accruals inside one window. Non-resident objects carry
    hypothetical numbers (what residency would have saved / cost)."""

    saved: dict[ObjectId, int] = field(default_factory=dict)
    update_cost: dict[ObjectId, int] = field(default_factory=dict)

    def add_query(self, q: Query, shares: ShareTable,
                  skip: Set[ObjectId] = frozenset()) -> None:
        """Credit every object the query accesses, except those in `skip`,
        with its size-proportional share of the query's shipping cost. The
        split comes from the run's `shares`, which computes each distinct
        (object set, cost) split once per run."""
        saved = self.saved
        for oid, share in shares.split(q):
            if oid not in skip:
                saved[oid] = saved.get(oid, 0) + share

    def add_update_cost(self, oid: ObjectId, amount: int) -> None:
        self.update_cost[oid] = self.update_cost.get(oid, 0) + amount


@dataclass
class Forecast:
    """Smoothed per-object benefit: mu <- (1-alpha)*mu + alpha*b."""

    mu: dict[ObjectId, float]
    alpha: float
    delta: int

    def step(self, benefits: dict[ObjectId, int]) -> None:
        a = self.alpha
        for oid in self.mu:
            self.mu[oid] = (1.0 - a) * self.mu[oid] + a * benefits.get(oid, 0)


def window_benefits(stats: WindowStats, resident: Set[ObjectId],
                    catalog: ObjectCatalog) -> dict[ObjectId, int]:
    """Benefit of the closing window for every catalog object; objects not
    in `resident` pay their load cost once."""
    out: dict[ObjectId, int] = {}
    for oid in catalog.ids():
        b = stats.saved.get(oid, 0) - stats.update_cost.get(oid, 0)
        if oid not in resident:
            b -= catalog.load_cost(oid)
        out[oid] = b
    return out


def fill(scores: dict[ObjectId, float], capacity: int,
         catalog: ObjectCatalog) -> list[ObjectId]:
    """Positive scorers in decreasing order of score (ties by id), skipping
    any that no longer fits in the capacity left."""
    chosen: list[ObjectId] = []
    space = capacity
    for oid in sorted((o for o, v in scores.items() if v > 0), key=lambda o: (-scores[o], o)):
        size = catalog.size(oid)
        if size <= space:
            chosen.append(oid)
            space -= size
    return chosen


def greedy_recompose(forecast: Forecast, cache: CacheState,
                     catalog: ObjectCatalog) -> list[Decision]:
    """The evictions and loads that turn the current residency into the
    greedy `fill` of the forecast. Selections already resident are kept,
    not reloaded."""
    selected = fill(forecast.mu, cache.capacity, catalog)
    evictions = [Evict(o) for o in sorted(cache.resident.difference(selected))]
    return evictions + [Load(o) for o in selected if o not in cache.resident]


def check_window(alpha: float, delta: int) -> None:
    """Raise ValueError unless alpha is in [0,1] and delta is at least 1."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0,1]")
    if delta < 1:
        raise ValueError("delta must be >= 1")


class BenefitPolicy:
    def __init__(self, catalog: ObjectCatalog, cache: CacheState,
                 alpha: float = 0.5, delta: int = 1000):
        check_window(alpha, delta)
        self.catalog = catalog
        self.cache = cache
        self.forecast = Forecast(mu={oid: 0.0 for oid in catalog.ids()},
                                 alpha=alpha, delta=delta)
        self.shares = ShareTable(catalog)
        self.stats = WindowStats()
        self.events_in_window = 0

    def startup(self) -> list[Decision]:
        return []

    def on_query(self, q: Query) -> list[Decision]:
        return self._route_query(q) + self._tick()

    def on_update(self, u: Update) -> list[Decision]:
        if u.object not in self.cache.resident:
            # Hypothetical: had the object been resident, this update would
            # eventually have been shipped for it.
            self.stats.add_update_cost(u.object, u.ship_cost)
        return self._tick()

    def _route_query(self, q: Query) -> list[Decision]:
        resident = self.cache.resident
        if not q.objects <= resident:
            self.stats.add_query(q, self.shares, skip=resident)
            return [ShipQuery(q.qid)]
        self.stats.add_query(q, self.shares)
        ius = interacting_updates(q, self.cache, q.time)
        if not ius:
            return [AnswerFromCache(q.qid)]
        for u in ius:
            self.stats.add_update_cost(u.object, u.ship_cost)
        return [ShipUpdates(tuple(u.uid for u in ius)), AnswerFromCache(q.qid)]

    def _tick(self) -> list[Decision]:
        self.events_in_window += 1
        if self.events_in_window < self.forecast.delta:
            return []
        return self.roll_window()

    def roll_window(self) -> list[Decision]:
        self.forecast.step(window_benefits(self.stats, self.cache.resident, self.catalog))
        decisions = greedy_recompose(self.forecast, self.cache, self.catalog)
        self.stats = WindowStats()
        self.events_in_window = 0
        return decisions
