"""Cover-driven decoupling policy.

Fully cached queries go to the update manager, which weighs shipping the
query against shipping its outstanding interacting updates by keeping both
on a weighted interaction graph and taking the minimum-weight vertex cover;
shipped queries stay on the graph so repeated arrivals accumulate pressure
toward shipping the updates instead. Queries touching any missing object are
shipped outright and handed to the load manager (`loadmgr`), which may pull
the missing objects in. The policy owns the load manager's Greedy-Dual-Size
state and calls `loadmgr.offer` and `loadmgr.gds_lazy_apply` through the
module, so a wrapper installed on either name sees every call.
"""

from __future__ import annotations

import random

from .core import (AnswerFromCache, CacheState, Decision, Evict, Query, ShipQuery,
                   ShipUpdates, Update, interacting_updates)
from . import loadmgr
from .covergraph import FlowState, InteractionGraph, min_weight_cover, prune_remainder


class VCoverPolicy:
    """Online policy: interaction graph + incremental cover for update-vs-query
    shipping, randomized lazy Greedy-Dual-Size for loads."""

    def __init__(self, cache: CacheState, seed: int = 0):
        self.cache = cache
        self.rng = random.Random(seed)
        self.graph = InteractionGraph()
        self.flow = FlowState()
        self.gds = loadmgr.GdsState()

    def startup(self) -> list[Decision]:
        return []

    def on_query(self, q: Query) -> list[Decision]:
        if q.objects <= self.cache.resident:
            return self.update_manager(q)
        batch = loadmgr.offer(q, self.cache, self.rng)
        _, loads = loadmgr.gds_lazy_apply(self.gds, self.cache, batch)
        if self.cache.outstanding:   # otherwise no evicted object has a queue
            for d in loads:
                if type(d) is Evict:
                    self._forget_object_updates(d.oid)
        return [ShipQuery(q.qid), *loads]

    def update_manager(self, q: Query) -> list[Decision]:
        """Choose between shipping the query and shipping all its outstanding
        interacting updates, by incremental minimum-weight vertex cover.

        `on_query` calls it only when every object of `q` is resident, and
        the caller keeps `CacheState`'s decision-application contract. So
        when no object of `q` has an update queue, the cache answers at
        once, without gathering interacting updates."""
        if self.cache.outstanding.keys().isdisjoint(q.objects):
            return [AnswerFromCache(q.qid)]
        ius = interacting_updates(q, self.cache, q.time)
        if not ius:
            return [AnswerFromCache(q.qid)]
        self.graph.add_query(q.qid, q.ship_cost)
        for u in ius:
            if u.uid not in self.graph.update_weight:
                self.graph.add_update(u.uid, u.ship_cost)
            self.graph.add_edge(u.uid, q.qid)
        cover, self.flow = min_weight_cover(self.graph, self.flow)
        if q.qid in cover.cover_queries:
            decisions: list[Decision] = [ShipQuery(q.qid)]
        else:
            # Every edge of q is covered on the update side; ship them all,
            # then the cached copy is current enough to answer.
            shipped = tuple(u.uid for u in ius)
            assert all(uid in cover.cover_updates for uid in shipped)
            decisions = [ShipUpdates(shipped), AnswerFromCache(q.qid)]
        prune_remainder(self.graph, cover, self.flow)
        return decisions

    def on_update(self, u: Update) -> list[Decision]:
        # Arrival bookkeeping (queueing + invalidation) already happened at
        # the cache; nothing is shipped until a query demands it.
        return []

    def _forget_object_updates(self, oid: int) -> None:
        # Eviction throws away the object's queue; any graph nodes for those
        # updates would otherwise outlive them and poison later covers. The
        # flow records their surviving neighbours, so the next cover also
        # revisits the components they leave behind. Without a queue there is
        # nothing to drop; the call would only clear the flow's last cover,
        # which the next cover replaces before any prune reads it.
        if queue := self.cache.outstanding.get(oid):
            self.graph.remove_nodes(self.flow, drop_updates={u.uid for u in queue})
