"""Cover-driven decoupling policy.

Fully cached queries go to the update manager, which weighs shipping the query
against shipping its outstanding interacting updates by keeping both on a
weighted interaction graph and taking the minimum-weight vertex cover
(`covergraph`); shipped queries stay on the graph so repeated arrivals
accumulate pressure toward shipping the updates instead. Queries touching any
missing object are shipped outright and handed to the load manager
(`loadmgr`), which may pull the missing objects in. The policy owns the load
manager's state and calls it as the package's call rule says (`midcache`).

Twin groups. Each update node of the graph is a group of twin updates: updates
of one object with the same neighbour set, all of zero cost or all of positive
cost, named by the oldest member's uid and weighing the members' summed cost.
Positive-weight twins are all source-reachable in the residual network or none
are, and a zero-weight node never is, so the canonical cover of the grouped
graph, each group read as its members, is that of the graph with one node per
update. So a zero-cost update, covered whenever it stands alone, never joins a
group of positive weight: there it would go uncovered whenever the group does.
When a query joins with cutoff `c = q.time - q.tolerance`, each group of its
objects whose members all have `time <= c` gets an edge to it; a group that
`c` cuts in two leaves the graph and comes back as its two parts, each with
every old edge, the older under the group's id and the newer named by its own
oldest member; and the interacting updates not on the graph form one new group
per object and cost sign. A query left uncovered ships its groups' members in
(object id, arrival) order, as `interacting_updates` returns them. The prune
after each cover takes the covered groups, each with all its members, and the
answered queries; nothing else removes a query. An eviction removes the
object's groups, found through its queue, where every member is outstanding. A
cut and an eviction are the only removals outside a prune, and each makes the
next cover treat the whole graph.

The star answer. A query whose interacting updates are all off the graph
would join as a *star*, a component of its own: itself and its new groups.
On a `quiet` flow that is the next cover's whole scope, and if the updates
cost no more than the query, every update node is saturated, so none is
source-reachable and all are covered, and the query, not reached, is not (a
tie goes to the updates, as the canonical cover prefers). The prune would
take the whole star away again, changing only `augmentations`, which no
decision reads. So such a query ships its updates and is answered at once,
leaving graph, flow and groups untouched.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from operator import attrgetter

from .core import (AnswerFromCache, CacheState, Decision, Evict, ObjectId, Query,
                   ShipQuery, ShipUpdates, Update, interacting_updates)
from . import loadmgr
from .covergraph import (FlowState, InteractionGraph, min_weight_cover, prune_remainder,
                         quiet)

_time, _cost, _uid = attrgetter("time"), attrgetter("ship_cost"), attrgetter("uid")


class VCoverPolicy:
    """Online policy: interaction graph + incremental cover for update-vs-query
    shipping, randomized lazy Greedy-Dual-Size for loads."""

    def __init__(self, cache: CacheState, seed: int = 0):
        self.cache = cache
        self.rng = random.Random(seed)
        self.graph = InteractionGraph()
        self.flow = FlowState()
        self.gds = loadmgr.GdsState()
        # On-graph uid -> its twin group's members, in queue order.
        self.group_of: dict[int, list[Update]] = {}

    def startup(self) -> list[Decision]:
        return []

    def on_query(self, q: Query) -> list[Decision]:
        if q.objects <= self.cache.resident:
            return self.update_manager(q)
        batch = loadmgr.offer(q, self.cache, self.rng)
        _, loads = loadmgr.gds_lazy_apply(self.gds, self.cache, batch)
        if self.group_of:   # otherwise no evicted object has updates on the graph
            for d in loads:
                if type(d) is Evict:
                    self._forget_object_updates(d.oid)
        return [ShipQuery(q.qid), *loads]

    def update_manager(self, q: Query) -> list[Decision]:
        """Choose between shipping the query and shipping all its outstanding
        interacting updates, by incremental minimum-weight vertex cover over
        twin groups, or by the star answer (module docstring). `on_query`
        calls it only when all of `q` is resident, under `CacheState`'s
        decision-application contract, so if no object of `q` has a queue
        the cache answers at once."""
        if self.cache.outstanding.keys().isdisjoint(q.objects):
            return [AnswerFromCache(q.qid)]
        ius = interacting_updates(q, self.cache, q.time)
        if not ius:
            return [AnswerFromCache(q.qid)]
        graph, group_of, qid = self.graph, self.group_of, q.qid
        joined: dict[int, list[Update]] = {}   # node id -> members, for q's edges
        fresh: dict[tuple[ObjectId, bool], list[Update]] = {}
        for u in ius:
            if (members := group_of.get(u.uid)) is not None:
                joined[members[0].uid] = members
            elif (key := (u.object, u.ship_cost > 0)) in fresh:
                fresh[key].append(u)
            else:
                fresh[key] = [u]
        if not joined and quiet(graph, self.flow) and sum(map(_cost, ius)) <= q.ship_cost:
            return [ShipUpdates(tuple(map(_uid, ius))), AnswerFromCache(qid)]
        graph.add_query(qid, q.ship_cost)
        cutoff = q.time - q.tolerance
        for gid, members in joined.items():
            if members[-1].time > cutoff:   # the newer members become a group of their own
                newer = members[bisect_right(members, cutoff, key=_time):]
                del members[-len(newer):]
                qids = list(graph.update_edges[gid])
                graph.remove_nodes(self.flow, drop_updates={gid})
                for part in (members, newer):
                    graph.add_update(part[0].uid, sum(map(_cost, part)))
                    for old in qids:
                        graph.add_edge(part[0].uid, old)
                group_of.update((u.uid, newer) for u in newer)
        for members in fresh.values():
            graph.add_update(members[0].uid, sum(map(_cost, members)))
            group_of.update((u.uid, members) for u in members)
            joined[members[0].uid] = members
        for gid in joined:
            graph.add_edge(gid, qid)
        cover, self.flow = min_weight_cover(graph, self.flow)
        if qid in cover.cover_queries:
            decisions: list[Decision] = [ShipQuery(qid)]
        else:
            # All of q's groups are covered: ship them, then answer from the cache.
            assert cover.cover_updates.issuperset(joined)
            decisions = [ShipUpdates(tuple(map(_uid, ius))), AnswerFromCache(qid)]
        prune_remainder(graph, self.flow)
        for gid in cover.cover_updates:   # each left the graph with all its members
            for u in group_of[gid]:
                del group_of[u.uid]
        return decisions

    def on_update(self, u: Update) -> list[Decision]:
        # Arrival bookkeeping (queueing + invalidation) already happened at
        # the cache; nothing is shipped until a query demands it.
        return []

    def _forget_object_updates(self, oid: int) -> None:
        # The evicted object's groups would outlive its queue and poison later
        # covers. The Evict is applied after on_query returns, so the queue
        # still holds every member of those groups (module docstring).
        group_of, gids = self.group_of, set()
        for u in self.cache.outstanding.get(oid, ()):
            if (members := group_of.pop(u.uid, None)) is not None:
                gids.add(members[0].uid)
        if gids:
            self.graph.remove_nodes(self.flow, drop_updates=gids)
