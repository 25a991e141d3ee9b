"""Weighted bipartite interaction graph between retained queries and unshipped
updates, with a minimum-weight vertex cover computed by max-flow.

The derived network routes source -> update (capacity = update weight),
update -> query (effectively unbounded) and query -> sink (capacity = query
weight); the max-flow value equals the min-cover weight, and the cover falls
out of residual reachability from the source.

The flow lives in a `FlowState` that `min_weight_cover` mutates in place.
`remove_nodes` and `prune_remainder` require it too: every graph edit
repairs the flow. The flow's `mark` holds its place in the cycle of a cover
and the prune after it: a cover marks it with the graph's marks (the graph
and its add counts) and the cover, which `remove_nodes` clears. A prune
handed that very cover on the unchanged graph *settles* the flow, keeping the
graph's marks alone: every node left is source-reachable in the residual
network and every remaining query is saturated. (A prune drops only nodes
outside the reachable side, and no flow crosses that cut, so the flow stays
maximum.) Until the next cover only two kinds of component can change: those
holding nodes added since, and those holding a query that lost an update
through `remove_nodes(fs, ...)`, which the flow records in `touched`.
Removing a query keeps its component settled: each update that fed it gains
source-arc slack, so every node left stays reachable and every other query
keeps its inflow. The next cover searches only the changed components; every
other component is still settled, so its queries are covered and its updates
are not. Any other mark makes the next cover treat the whole graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice


class GraphError(Exception):
    pass


@dataclass
class FlowState:
    """Arc flows for the derived network, reusable across cover computations.

    `augmentations` counts augmenting paths found so far; it only ever grows
    and exists to measure how much incremental reuse saves. The remaining
    fields bound the next cover's work (see the module docstring) and take
    no part in comparisons.
    """

    flow_su: dict[int, int] = field(default_factory=dict)             # source -> update
    # update -> query, as {qid: {uid: flow}} holding positive flows only: the
    # updates a query's residual reverse arcs lead to.
    flow_uq: dict[int, dict[int, int]] = field(default_factory=dict)
    flow_qt: dict[int, int] = field(default_factory=dict)             # query -> sink
    augmentations: int = 0
    # ((graph, updates_added, queries_added), cover) from a cover until
    # remove_nodes; (that graph's marks, None) once the prune of that cover
    # settles the flow; None before any cover and after a cleared one.
    mark: tuple | None = field(default=None, compare=False, repr=False)
    # Queries that lost an update to remove_nodes since the flow settled.
    touched: set[int] = field(default_factory=set, compare=False, repr=False)

    def copy(self) -> "FlowState":
        """The arc flows alone: a copy is unsettled, so its first cover
        treats the whole graph. Nothing in the package copies a flow; the
        benchmark's layer table (`perfbench/layers.py`) names this method."""
        return FlowState(dict(self.flow_su), {q: dict(i) for q, i in self.flow_uq.items()},
                         dict(self.flow_qt), self.augmentations)


@dataclass(frozen=True)
class CoverResult:
    cover_queries: frozenset[int]
    cover_updates: frozenset[int]


class InteractionGraph:
    """Bipartite graph: update nodes on one side, query nodes on the other,
    an edge whenever shipping the update or shipping the query would each
    satisfy the interaction. Node weights are shipping costs in bytes.
    """

    def __init__(self):
        self.query_weight: dict[int, int] = {}
        self.update_weight: dict[int, int] = {}
        # uid -> {qid: None} and qid -> {uid: None}: dicts keep insertion
        # order, which fixes the search order.
        self.update_edges: dict[int, dict[int, None]] = {}
        self.query_edges: dict[int, dict[int, None]] = {}
        # add_update/add_query calls so far: nodes added after a flow settled
        # are among the last that many keys of each insertion-ordered dict.
        self.updates_added = 0
        self.queries_added = 0

    def add_query(self, qid: int, weight: int) -> None:
        if qid in self.query_weight:
            raise GraphError(f"duplicate query node {qid}")
        if weight < 0:
            raise GraphError(f"query node {qid}: weight must be non-negative")
        self.query_weight[qid] = weight
        self.query_edges[qid] = {}
        self.queries_added += 1

    def add_update(self, uid: int, weight: int) -> None:
        if uid in self.update_weight:
            raise GraphError(f"duplicate update node {uid}")
        if weight < 0:
            raise GraphError(f"update node {uid}: weight must be non-negative")
        self.update_weight[uid] = weight
        self.update_edges[uid] = {}
        self.updates_added += 1

    def add_edge(self, uid: int, qid: int) -> None:
        if uid not in self.update_weight:
            raise GraphError(f"edge ({uid},{qid}): update node missing")
        if qid not in self.query_weight:
            raise GraphError(f"edge ({uid},{qid}): query node missing")
        if qid in self.update_edges[uid]:
            raise GraphError(f"duplicate edge ({uid},{qid})")
        self.update_edges[uid][qid] = None
        self.query_edges[qid][uid] = None

    @property
    def n_edges(self) -> int:
        """Edge count, for the benchmark's traced layer table."""
        return sum(map(len, self.update_edges.values()))

    def remove_nodes(self, fs: FlowState,
                     drop_updates: set[int] = frozenset(),
                     drop_queries: set[int] = frozenset()) -> None:
        """Delete nodes plus incident edges, repairing the flow `fs` (required)
        so what remains is still a valid (not necessarily maximum) flow:
        inflow lost by a surviving query comes off its sink arc, outflow lost
        by a surviving update comes off its source arc. The flow records each
        surviving query that lost an update, whose component the next cover
        must revisit; a removed query leaves its component settled (see the
        module docstring). A cover's mark is cleared, a settled one kept. Ids
        not on the graph are skipped.
        """
        if fs.mark is not None and fs.mark[1] is not None:
            fs.mark = None
        for uid in drop_updates:
            if uid not in self.update_weight:
                continue
            qids = self.update_edges.pop(uid)
            for qid in qids:
                del self.query_edges[qid][uid]
                fs.touched.add(qid)
                f = fs.flow_uq.get(qid, {}).pop(uid, 0)
                if f and qid not in drop_queries:
                    fs.flow_qt[qid] = fs.flow_qt.get(qid, 0) - f
            del self.update_weight[uid]
            fs.flow_su.pop(uid, None)
        for qid in drop_queries:
            if qid not in self.query_weight:
                continue
            uids = self.query_edges.pop(qid)
            inflow = fs.flow_uq.pop(qid, {})
            for uid in uids:
                del self.update_edges[uid][qid]
                f = inflow.get(uid, 0)
                if f:
                    fs.flow_su[uid] = fs.flow_su.get(uid, 0) - f
            del self.query_weight[qid]
            fs.flow_qt.pop(qid, None)


def _marks(g: InteractionGraph) -> tuple:
    return g, g.updates_added, g.queries_added


def _scope(g: InteractionGraph, fs: FlowState):
    """Update and query ids of the components that may have changed since
    `fs` settled on `g`: all of them when it has not."""
    if fs.mark is None or fs.mark[1] is not None or fs.mark[0][0] is not g:
        return g.update_weight, g.query_weight
    _, updates_added, queries_added = fs.mark[0]
    # Counting back from the newest key may also take older nodes (when
    # some new ones were removed again); a larger scope is still exact.
    us = set(islice(reversed(g.update_weight), g.updates_added - updates_added))
    qs = set(islice(reversed(g.query_weight), g.queries_added - queries_added))
    qs |= fs.touched.intersection(g.query_weight)
    grow_u, grow_q = set(us), set(qs)
    while grow_u or grow_q:
        grow_u, grow_q = ({u for q in grow_q for u in g.query_edges[q]} - us,
                          {q for u in grow_u for q in g.update_edges[u]} - qs)
        us |= grow_u
        qs |= grow_q
    return us, qs


def _search(g: InteractionGraph, fs: FlowState, updates):
    """Breadth-first search of the residual network from the unsaturated
    updates among `updates`. Returns (path, None, None) for the first
    augmenting path, as ids [u0, q0, u1, q1, ..., uk, qk]: arcs u_i -> q_i
    gain flow and arcs u_(i+1) -> q_i lose it. When there is none, the flow
    is maximum there and it returns (None, reached updates, reached queries),
    the source side of the canonical minimum cut."""
    update_weight, query_weight = g.update_weight, g.query_weight
    flow_su, flow_uq, flow_qt = fs.flow_su, fs.flow_uq, fs.flow_qt
    pred_u = {uid: None for uid in updates if flow_su.get(uid, 0) < update_weight[uid]}
    pred_q: dict[int, int] = {}
    queue = deque(pred_u)
    while queue:
        uid = queue.popleft()
        for qid in g.update_edges[uid]:
            if qid in pred_q:
                continue
            pred_q[qid] = uid            # forward arc, unbounded capacity
            if flow_qt.get(qid, 0) < query_weight[qid]:
                path = [qid, uid]
                while pred_u[path[-1]] is not None:
                    path.append(pred_u[path[-1]])
                    path.append(pred_q[path[-1]])
                path.reverse()
                return path, None, None
            for back in flow_uq.get(qid, ()):
                if back not in pred_u:
                    pred_u[back] = qid   # residual reverse arc
                    queue.append(back)
    return None, pred_u, pred_q


def _augment(g: InteractionGraph, fs: FlowState, path: list[int]) -> None:
    """Push the bottleneck amount along a path from `_search`."""
    us, qs = path[0::2], path[1::2]
    backward = list(zip(us[1:], qs))
    amount = min(g.update_weight[us[0]] - fs.flow_su.get(us[0], 0),
                 g.query_weight[qs[-1]] - fs.flow_qt.get(qs[-1], 0),
                 *(fs.flow_uq[q][u] for u, q in backward))
    fs.flow_su[us[0]] = fs.flow_su.get(us[0], 0) + amount
    fs.flow_qt[qs[-1]] = fs.flow_qt.get(qs[-1], 0) + amount
    for u, q in zip(us, qs):
        inflow = fs.flow_uq.setdefault(q, {})
        inflow[u] = inflow.get(u, 0) + amount
    for u, q in backward:
        inflow = fs.flow_uq[q]
        if inflow[u] == amount:
            del inflow[u]
        else:
            inflow[u] -= amount


def source_reachable(g: InteractionGraph, fs: FlowState) -> set[tuple[str, int]]:
    """Nodes reachable from the source in the residual network of a maximum
    flow, as ('u'|'q', id): one side of a minimum cut. `min_weight_cover`
    takes this set from its own final search instead; the benchmark's layer
    table (`perfbench/layers.py`) names this function."""
    path, reached_u, reached_q = _search(g, fs, g.update_weight)
    if path is not None:
        raise GraphError("flow is not maximum")
    return {("u", uid) for uid in reached_u} | {("q", qid) for qid in reached_q}


def min_weight_cover(g: InteractionGraph, prior: FlowState | None = None
                     ) -> tuple[CoverResult, FlowState]:
    """Minimum-weight vertex cover of the bipartite graph, derived from the
    min cut of the max flow. Returns the cover and the flow, which is
    `prior` itself, brought to a maximum in place (a new flow without one).

    Augmentation starts from the prior flow (valid after any sequence of adds
    and prunes) and uses shortest augmenting paths. When the prior flow was
    settled by a prune, the searches run only in the components touched since
    (see the module docstring); the result is still the whole graph's cover.
    Among equal-weight covers the extraction prefers covering updates: an
    update is covered iff unreachable from the source in the residual
    network, a query iff reachable, and the canonical reachable set is the
    smallest cut side, the same for every maximum flow.
    """
    fs = prior if prior is not None else FlowState()
    updates, queries = _scope(g, fs)
    while True:
        path, reached_u, reached_q = _search(g, fs, updates)
        if path is None:
            break
        _augment(g, fs, path)
        fs.augmentations += 1
    cover_u = frozenset(u for u in updates if u not in reached_u)
    cover_q = frozenset(q for q in g.query_weight if q in reached_q or q not in queries)
    cover = CoverResult(cover_q, cover_u)
    fs.mark = (_marks(g), cover)
    return cover, fs


def prune_remainder(g: InteractionGraph, cover: CoverResult, fs: FlowState) -> None:
    """Shrink to the remainder subgraph: drop covered (shipped) updates and
    uncovered (cache-answered) queries; covered queries stay and keep
    accumulating weight against their surviving updates. The flow `fs` is
    required; it is repaired in place and stays valid for the remainder. When
    `cover` is that flow's last cover and the graph has not changed since,
    the flow is settled. Every query outside the cover's scope is in
    `cover.cover_queries`, so the same drop set serves either way."""
    mark = fs.mark
    settles = mark is not None and mark[1] is cover and mark[0] == _marks(g)
    g.remove_nodes(fs, drop_updates=cover.cover_updates,
                   drop_queries=g.query_weight.keys() - cover.cover_queries)
    if settles:
        fs.mark = (_marks(g), None)
        fs.touched.clear()
