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

Each "update" node of the graph is a group of twin updates: updates of one
object with the same neighbour set, all of zero cost or all of positive
cost. Its weight is the sum of its members' costs, and it is named by its
oldest member's uid. Positive-weight twins are all reachable from the source
in the residual network or none are, and a zero-weight node never is, so the
canonical cover of the grouped graph, each group read as its members, is the
canonical cover of the graph with one node per update. The graph is edited
only by adds and removals. When a query joins with cutoff
`c = q.time - q.tolerance`, on each of its objects:
- a group whose members all have `time <= c` gets an edge to the query;
- a group that `c` cuts in two leaves the graph (`remove_nodes`, which
  removes update nodes only), and both parts come back with every old edge:
  the older part under the group's id, the newer part as a new node named by
  its own oldest member. The removal unsettles the flow, so this query's
  cover treats the whole graph;
- the interacting updates not on the graph form one new group, or two when
  both zero and positive costs are among them: a zero-cost update never joins
  a group of positive weight.
A query left uncovered ships the members of its groups, listed in (object
id, arrival) order as `interacting_updates` returns them. The prune after
each cover removes the covered groups, each with all its members, and the
queries the cache answers; nothing else removes a query. Every member is
outstanding in its object's queue, so an eviction finds the object's groups
through that queue and removes them (`remove_nodes` again), and the next
cover treats the whole graph.

A query whose interacting updates are all off the graph would join as a
*star*: itself and its new groups, a component of their own. When the flow
is `quiet` (settled, nothing added or removed since) that star is the
cover's whole scope, and when its updates cost no more than the query the
answer is known without the kernel: each update node is saturated, so none
is source-reachable and all are covered, and the query is not reached, so
it is not (a tie goes to the updates, as the canonical cover prefers). The
prune would then take the whole star away again, leaving the graph, the
flow and the group records as they were but for `augmentations`, which no
decision reads. So such a query ships its updates and is answered at once,
and the graph is left untouched.
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
        # Each on-graph update's group: the members of one graph node, in
        # queue order, named by the oldest of them.
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
        interacting updates, by incremental minimum-weight vertex cover.

        `on_query` calls it only when every object of `q` is resident, and
        the caller keeps `CacheState`'s decision-application contract. So
        when no object of `q` has an update queue, the cache answers at
        once, without gathering interacting updates. A star whose updates
        cost no more than `q`, met on a quiet flow, ships its updates without
        joining the graph: the cover and prune would take exactly that
        decision and leave the graph as it was (see the module docstring)."""
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
            # Every edge of q is covered on the update side; ship them all,
            # then the cached copy is current enough to answer.
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
        # Eviction throws away the object's queue; any graph nodes for those
        # updates would otherwise outlive them and poison later covers. The
        # Evict is applied after on_query returns, so the queue still holds
        # every member of the object's groups. Removing them unsettles the
        # flow, so the next cover treats the whole graph. An object without
        # groups leaves the graph and the flow as they are.
        group_of, gids = self.group_of, set()
        for u in self.cache.outstanding.get(oid, ()):
            if (members := group_of.pop(u.uid, None)) is not None:
                gids.add(members[0].uid)
        if gids:
            self.graph.remove_nodes(self.flow, drop_updates=gids)
