"""Cover-driven decoupling policy.

Fully cached queries go to the update manager, which weighs shipping the
query against shipping its outstanding interacting updates by keeping both
on a weighted interaction graph and taking the minimum-weight vertex cover;
shipped queries stay on the graph so repeated arrivals accumulate pressure
toward shipping the updates instead. Queries touching any missing object are
shipped outright and handed to the load manager, which may pull the missing
objects in.
"""

from __future__ import annotations

import random

from .core import (AnswerFromCache, CacheState, Decision, Evict, ObjectCatalog,
                   Query, ShipQuery, ShipUpdates, Update, interacting_updates)
from .covergraph import FlowState, InteractionGraph, min_weight_cover, prune_remainder
from .loadmgr import LoadManager


class VCoverPolicy:
    """Online policy: interaction graph + incremental cover for update-vs-query
    shipping, randomized lazy Greedy-Dual-Size for loads."""

    name = "vcover"

    def __init__(self, catalog: ObjectCatalog, cache: CacheState, seed: int = 0):
        self.catalog = catalog
        self.cache = cache
        self.rng = random.Random(seed)
        self.graph = InteractionGraph()
        self.flow = FlowState()
        self.loadmgr = LoadManager(catalog, self.rng)

    def startup(self) -> list[Decision]:
        return []

    def on_query(self, q: Query, now: int) -> list[Decision]:
        if all(self.cache.is_resident(o) for o in q.objects):
            return self.update_manager(q, now)
        decisions: list[Decision] = [ShipQuery(q.qid)]
        loads = self.loadmgr.handle(q, self.cache)
        for d in loads:
            if isinstance(d, Evict):
                self._forget_object_updates(d.oid)
        decisions.extend(loads)
        return decisions

    def update_manager(self, q: Query, now: int) -> list[Decision]:
        """Choose between shipping the query and shipping all its outstanding
        interacting updates, by incremental minimum-weight vertex cover."""
        ius = interacting_updates(q, self.cache, now)
        if not ius:
            return [AnswerFromCache(q.qid)]
        self.graph.add_query(q.qid, q.ship_cost)
        for u in ius:
            if not self.graph.has_update(u.uid):
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

    def on_update(self, u: Update, now: int) -> list[Decision]:
        # Arrival bookkeeping (queueing + invalidation) already happened at
        # the cache; nothing is shipped until a query demands it.
        return []

    def finalize(self) -> list[Decision]:
        return []

    def _forget_object_updates(self, oid: int) -> None:
        # Eviction throws away the object's queue; any graph nodes for those
        # updates would otherwise outlive them and poison later covers. The
        # flow records their surviving neighbours, so the next cover also
        # revisits the components they leave behind.
        uids = {u.uid for u in self.cache.outstanding_for(oid)
                if self.graph.has_update(u.uid)}
        if uids:
            self.graph.remove_nodes(self.flow, drop_updates=uids)
