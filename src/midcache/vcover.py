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
canonical cover of the graph with one node per update. When a query joins
with cutoff `c = q.time - q.tolerance`, on each of its objects:
- a group whose members all have `time <= c` gets an edge to the query;
- a group that `c` cuts in two is split (`InteractionGraph.split_update`):
  the older part keeps the node, the newer part becomes a new node named by
  its own oldest member, and both keep every old edge;
- the interacting updates not on the graph form one new group, or two when
  both zero and positive costs are among them: a zero-cost update never joins
  a group of positive weight.
A query left uncovered ships the members of its groups, listed in (object
id, arrival) order as `interacting_updates` returns them. A covered group
leaves the graph with all its members, and an eviction drops the object's
groups.

A query whose interacting updates are all off the graph would join as a
*star*: itself and its new groups, a component of their own. When the flow
is `quiet` (settled, nothing added or touched since) that star is the
cover's whole scope, and when its updates cost no more than the query the
answer is known without the kernel: each update node is saturated, so none
is source-reachable and all are covered, and the query is not reached, so
it is not (a tie goes to the updates, as the canonical cover prefers). The
prune would then take the whole star away again, leaving the graph, the
flow and the group records as they were but for the add counters and
`augmentations`, which no decision reads. So such a query ships its updates
and is answered at once, and the graph is left untouched.
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
        # Each object's groups on the graph, by node id, each holding its
        # members in queue order; and each member's group.
        self.groups: dict[ObjectId, dict[int, list[Update]]] = {}
        self.group_of: dict[int, list[Update]] = {}

    def startup(self) -> list[Decision]:
        return []

    def on_query(self, q: Query) -> list[Decision]:
        if q.objects <= self.cache.resident:
            return self.update_manager(q)
        batch = loadmgr.offer(q, self.cache, self.rng)
        _, loads = loadmgr.gds_lazy_apply(self.gds, self.cache, batch)
        if self.groups:   # otherwise no evicted object has updates on the graph
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
        for members in joined.values():
            if members[-1].time > cutoff:   # the newer members become a group of their own
                newer = members[bisect_right(members, cutoff, key=_time):]
                del members[-len(newer):]
                graph.split_update(self.flow, members[0].uid, newer[0].uid,
                                   sum(map(_cost, newer)))
                self._record_group(newer)
        for members in fresh.values():
            graph.add_update(members[0].uid, sum(map(_cost, members)))
            self._record_group(members)
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
        prune_remainder(graph, cover, self.flow)
        for gid in cover.cover_updates:   # each left the graph with all its members
            members = group_of[gid]
            groups = self.groups[members[0].object]
            del groups[gid]
            if not groups:
                del self.groups[members[0].object]
            for u in members:
                del group_of[u.uid]
        return decisions

    def on_update(self, u: Update) -> list[Decision]:
        # Arrival bookkeeping (queueing + invalidation) already happened at
        # the cache; nothing is shipped until a query demands it.
        return []

    def _record_group(self, members: list[Update]) -> None:
        """Record `members`, now one graph node named by the oldest of them,
        as a group."""
        self.groups.setdefault(members[0].object, {})[members[0].uid] = members
        group_of = self.group_of
        for u in members:
            group_of[u.uid] = members

    def _forget_object_updates(self, oid: int) -> None:
        # Eviction throws away the object's queue; any graph nodes for those
        # updates would otherwise outlive them and poison later covers. The
        # flow records their surviving neighbours, so the next cover also
        # revisits the components they leave behind. An object without
        # groups leaves the graph and the flow as they are.
        if groups := self.groups.pop(oid, None):
            for members in groups.values():
                for u in members:
                    del self.group_of[u.uid]
            self.graph.remove_nodes(self.flow, drop_updates=set(groups))
