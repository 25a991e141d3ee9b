"""Windowed-benefit heuristic policy.

The event sequence is cut into fixed-length windows. Each object accrues a
per-window benefit: shipping cost saved by answering queries at the cache,
minus the update traffic it caused; objects not in the cache accrue the
benefit they would have earned had they been resident, less one load cost.
An exponentially smoothed forecast ranks objects at every window boundary
and the cache is recomposed greedily from the top of the ranking.

Share splitting. A query's saved cost is split across its objects in
proportion to size (`proportional_shares`). The split depends only on the
query's shape (object set, cost) and the catalog, so each run splits every
distinct shape once (`split_shape`): `benefit` in its `splits` dict, which
dies with the policy, and the `soptimal` planner, which plans with the same
pieces, by counting the shapes before it splits them. Regrained catalogs
reuse object ids with other sizes, so no split outlives its run.

Between boundaries the cache protocol is plain: fully resident and current
enough answers at the cache, fully resident but stale ships the interacting
updates first, anything else ships the query.
"""

from __future__ import annotations

from collections.abc import Set
from numbers import Real

from .core import (AnswerFromCache, CacheState, Decision, Evict, Load,
                   ObjectCatalog, ObjectId, Query, ShipQuery, ShipUpdates,
                   Update, interacting_updates)


def proportional_shares(amount: int, sizes: list[tuple[ObjectId, int]]) -> dict[ObjectId, int]:
    """Split an integer amount across objects in proportion to size, exactly:
    floor each share, then hand the leftover units out by largest remainder
    (ties to the smaller object id, whatever the input order). Integer
    arithmetic throughout. Sizes are positive and the list non-empty, as for
    every query's objects; one object takes the whole amount."""
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
    sizes = [(oid, catalog.entries[oid].size) for oid in sorted(objects)]
    return tuple(proportional_shares(cost, sizes).items())


def window_benefits(saved: dict[ObjectId, int], update_cost: dict[ObjectId, int],
                    resident: Set[ObjectId], catalog: ObjectCatalog) -> dict[ObjectId, int]:
    """Benefit of the closing window for every catalog object: the bytes
    `saved` minus the `update_cost` it accrued; objects not in `resident` pay
    their load cost once."""
    out: dict[ObjectId, int] = {}
    for oid in catalog.ids():
        b = saved.get(oid, 0) - update_cost.get(oid, 0)
        if oid not in resident:
            b -= catalog.load_cost(oid)
        out[oid] = b
    return out


def smooth(mu: dict[ObjectId, float], benefits: dict[ObjectId, int], alpha: float) -> None:
    """Step the forecast in place: mu <- (1-alpha)*mu + alpha*b."""
    for oid in mu:
        mu[oid] = (1.0 - alpha) * mu[oid] + alpha * benefits.get(oid, 0)


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


def greedy_recompose(mu: dict[ObjectId, float], cache: CacheState) -> list[Decision]:
    """The evictions and loads that turn the current residency into the
    greedy `fill` of the forecast `mu`. Selections already resident are
    kept, not reloaded."""
    selected = fill(mu, cache.capacity, cache.catalog)
    evictions = [Evict(o) for o in sorted(cache.resident.difference(selected))]
    return evictions + [Load(o) for o in selected if o not in cache.resident]


def check_window(alpha: float, delta: int) -> None:
    """Raise ValueError unless alpha is a real number in [0,1], not a bool,
    and delta is of type `int` exactly and at least 1."""
    if isinstance(alpha, bool) or not (isinstance(alpha, Real) and 0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must be a real number in [0,1], got {alpha!r}")
    if not (type(delta) is int and delta >= 1):
        raise ValueError(f"delta must be an int >= 1, got {delta!r}")


class BenefitPolicy:
    """Inside a window, `saved` and `update_cost` accrue each object's bytes
    (hypothetical ones for objects not resident); `mu` is the smoothed
    forecast, one entry per catalog object in id order; `splits` maps each
    query shape met in this run to its split, made on first use (module
    docstring, share splitting). Each hook accrues and routes its own event,
    then counts it; the event that fills the window appends `roll_window`'s
    recomposition to its own decisions. A query credits its shares to every
    object it accesses (only to the missing ones when it ships)."""

    def __init__(self, cache: CacheState, alpha: float = 0.5, delta: int = 1000):
        check_window(alpha, delta)
        self.cache = cache
        self.alpha = alpha
        self.delta = delta
        self.mu = {oid: 0.0 for oid in cache.catalog.ids()}
        self.saved: dict[ObjectId, int] = {}
        self.update_cost: dict[ObjectId, int] = {}
        self.splits: dict[tuple[frozenset[ObjectId], int], tuple[tuple[ObjectId, int], ...]] = {}
        self.events_in_window = 0

    def startup(self) -> list[Decision]:
        return []

    def on_query(self, q: Query) -> list[Decision]:
        key = (q.objects, q.ship_cost)
        pairs = self.splits.get(key)
        if pairs is None:
            pairs = self.splits[key] = split_shape(q.objects, q.ship_cost, self.cache.catalog)
        resident, saved = self.cache.resident, self.saved
        hit = q.objects <= resident
        for oid, share in pairs:
            if hit or oid not in resident:
                saved[oid] = saved.get(oid, 0) + share
        if not hit:
            decisions: list[Decision] = [ShipQuery(q.qid)]
        elif ius := interacting_updates(q, self.cache, q.time):
            update_cost = self.update_cost
            for u in ius:
                update_cost[u.object] = update_cost.get(u.object, 0) + u.ship_cost
            decisions = [ShipUpdates(tuple(u.uid for u in ius)), AnswerFromCache(q.qid)]
        else:
            decisions = [AnswerFromCache(q.qid)]
        self.events_in_window += 1
        if self.events_in_window < self.delta:
            return decisions
        return decisions + self.roll_window()

    def on_update(self, u: Update) -> list[Decision]:
        if u.object not in self.cache.resident:
            # Hypothetical: had the object been resident, this update would
            # eventually have been shipped for it.
            self.update_cost[u.object] = self.update_cost.get(u.object, 0) + u.ship_cost
        self.events_in_window += 1
        if self.events_in_window < self.delta:
            return []
        return self.roll_window()

    def roll_window(self) -> list[Decision]:
        smooth(self.mu, window_benefits(self.saved, self.update_cost, self.cache.resident,
                                        self.cache.catalog), self.alpha)
        decisions = greedy_recompose(self.mu, self.cache)
        self.saved, self.update_cost = {}, {}
        self.events_in_window = 0
        return decisions
