"""Windowed-benefit heuristic policy.

The event sequence is cut into fixed-length windows. Each object accrues a
per-window benefit: shipping cost saved by answering queries at the cache
(split across a query's objects in proportion to size), minus the update
traffic it caused; objects not in the cache accrue the benefit they would
have earned had they been resident, less one load cost. An exponentially
smoothed forecast ranks objects at every window boundary and the cache is
recomposed greedily from the top of the ranking.

Between boundaries the cache protocol is plain: fully resident and current
enough answers at the cache, fully resident but stale ships the interacting
updates first, anything else ships the query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (AnswerFromCache, CacheState, Decision, Evict, Load,
                   ObjectCatalog, ObjectId, Query, ShipQuery, ShipUpdates,
                   Update, interacting_updates)


def proportional_shares(amount: int, sizes: list[tuple[ObjectId, int]]) -> dict[ObjectId, int]:
    """Split an integer amount across objects in proportion to size, exactly:
    floor each share, then hand the remainder out by largest fractional part
    (ties to the smaller object id)."""
    total = sum(s for _, s in sizes)
    if total <= 0 or not sizes:
        return {oid: 0 for oid, _ in sizes}
    base: dict[ObjectId, int] = {}
    fracs: list[tuple[float, ObjectId]] = []
    handed = 0
    for oid, s in sizes:
        exact = amount * s / total
        share = amount * s // total
        base[oid] = share
        handed += share
        fracs.append((exact - share, oid))
    fracs.sort(key=lambda t: (-t[0], t[1]))
    for i in range(amount - handed):
        base[fracs[i][1]] += 1
    return base


@dataclass
class WindowStats:
    """Per-object accruals inside one window. Non-resident objects carry
    hypothetical numbers (what residency would have saved / cost)."""

    saved: dict[ObjectId, int] = field(default_factory=dict)
    update_cost: dict[ObjectId, int] = field(default_factory=dict)

    def add_saved(self, oid: ObjectId, amount: int) -> None:
        self.saved[oid] = self.saved.get(oid, 0) + amount

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


def window_benefits(stats: WindowStats, cache: CacheState,
                    catalog: ObjectCatalog) -> dict[ObjectId, int]:
    """Benefit of the closing window for every catalog object; non-resident
    objects pay their load cost once."""
    out: dict[ObjectId, int] = {}
    for oid in catalog.ids():
        b = stats.saved.get(oid, 0) - stats.update_cost.get(oid, 0)
        if oid not in cache.resident:
            b -= catalog.load_cost(oid)
        out[oid] = b
    return out


def greedy_recompose(forecast: Forecast, cache: CacheState,
                     catalog: ObjectCatalog) -> tuple[list[Decision], list[ObjectId]]:
    """Pick positive-forecast objects in decreasing order (ties by id),
    skipping any that no longer fit, and emit the evictions and loads that
    turn the current residency into the selection. Selections already
    resident are kept, not reloaded."""
    ranked = sorted((oid for oid, m in forecast.mu.items() if m > 0.0),
                    key=lambda o: (-forecast.mu[o], o))
    selected: list[ObjectId] = []
    space = cache.capacity
    for oid in ranked:
        size = catalog.size(oid)
        if size <= space:
            selected.append(oid)
            space -= size
    keep = set(selected)
    evictions = [Evict(o) for o in sorted(cache.resident - keep)]
    loads = [Load(o) for o in selected if o not in cache.resident]
    return evictions + loads, selected


class BenefitPolicy:
    def __init__(self, catalog: ObjectCatalog, cache: CacheState,
                 alpha: float = 0.5, delta: int = 1000):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0,1]")
        if delta < 1:
            raise ValueError("delta must be >= 1")
        self.catalog = catalog
        self.cache = cache
        self.forecast = Forecast(mu={oid: 0.0 for oid in catalog.ids()},
                                 alpha=alpha, delta=delta)
        self.stats = WindowStats()
        self.events_in_window = 0

    def startup(self) -> list[Decision]:
        return []

    def on_query(self, q: Query) -> list[Decision]:
        decisions = self._route_query(q)
        return decisions + self._tick()

    def on_update(self, u: Update) -> list[Decision]:
        if u.object not in self.cache.resident:
            # Hypothetical: had the object been resident, this update would
            # eventually have been shipped for it.
            self.stats.add_update_cost(u.object, u.ship_cost)
        return self._tick()

    def _route_query(self, q: Query) -> list[Decision]:
        sizes = [(oid, self.catalog.size(oid)) for oid in sorted(q.objects)]
        shares = proportional_shares(q.ship_cost, sizes)
        if q.objects <= self.cache.resident:
            for oid in q.objects:
                self.stats.add_saved(oid, shares[oid])
            ius = interacting_updates(q, self.cache, q.time)
            if not ius:
                return [AnswerFromCache(q.qid)]
            for u in ius:
                self.stats.add_update_cost(u.object, u.ship_cost)
            return [ShipUpdates(tuple(u.uid for u in ius)), AnswerFromCache(q.qid)]
        for oid in q.objects:
            if oid not in self.cache.resident:
                self.stats.add_saved(oid, shares[oid])
        return [ShipQuery(q.qid)]

    def _tick(self) -> list[Decision]:
        self.events_in_window += 1
        if self.events_in_window < self.forecast.delta:
            return []
        return self.roll_window()

    def roll_window(self) -> list[Decision]:
        benefits = window_benefits(self.stats, self.cache, self.catalog)
        self.forecast.step(benefits)
        decisions, _ = greedy_recompose(self.forecast, self.cache, self.catalog)
        self.stats = WindowStats()
        self.events_in_window = 0
        return decisions
