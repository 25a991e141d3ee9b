"""Weighted bipartite interaction graph between retained queries and unshipped
updates, with a minimum-weight vertex cover computed by max-flow.

The derived network routes source -> update (capacity = update weight),
update -> query (effectively unbounded) and query -> sink (capacity = query
weight); the max-flow value equals the min-cover weight, and the cover falls
out of residual reachability from the source.

The cover cycle. The flow lives in a `FlowState`: `min_weight_cover` brings it
to a maximum in place, `remove_nodes` and `prune_remainder` repair it, and an
add leaves it valid; the graph is edited only by adds and removals. The flow's
`mark` holds its place in the cycle. A cover marks the flow with the graph,
its node counts and the cover. The prune after it consumes that mark, drops
what the cover decided and *settles* the flow, keeping the graph's marks
alone: every node left is source-reachable in the residual network and every
remaining query is saturated. (A prune drops only nodes outside the reachable
side, and no flow crosses that cut, so the flow stays maximum.) Any removal
clears the mark, so a settled graph only grows: the nodes added since are the
last keys of each insertion-ordered dict, as many as the counts have grown.
The next cover's scope is their components; every other component is still
settled, its queries covered and its updates not. Without a settled mark the
next cover treats the whole graph. A prune refuses a flow that holds no cover
of the graph as it stands, and `quiet` tells whether the flow is settled with
nothing added since.
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
    `augmentations` counts augmenting paths found so far, only grows, and
    measures what incremental reuse saves. `mark` is the flow's place in the
    cover cycle (module docstring) and takes no part in comparisons."""

    flow_su: dict[int, int] = field(default_factory=dict)             # source -> update
    # update -> query as {qid: {uid: flow}}, positive flows only: a query's reverse
    # arcs, whose sum is the flow on its sink arc.
    flow_uq: dict[int, dict[int, int]] = field(default_factory=dict)
    augmentations: int = 0
    # ((graph, update count, query count), cover) from a cover to its prune,
    # (those marks, None) once settled, else None: see the module docstring.
    mark: tuple | None = field(default=None, compare=False, repr=False)

    def copy(self) -> "FlowState":
        """The arc flows alone, unsettled. Kept for the layer table (package docstring)."""
        return FlowState(dict(self.flow_su), {q: dict(i) for q, i in self.flow_uq.items()},
                         self.augmentations)


@dataclass(frozen=True)
class CoverResult:
    cover_queries: frozenset[int]
    cover_updates: frozenset[int]


class InteractionGraph:
    """Bipartite graph: update nodes on one side, query nodes on the other,
    an edge whenever shipping the update or shipping the query would each
    satisfy the interaction. Node weights are shipping costs in bytes."""

    def __init__(self):
        self.query_weight: dict[int, int] = {}
        self.update_weight: dict[int, int] = {}
        # uid -> {qid: None}, qid -> {uid: None}: insertion order fixes search order.
        self.update_edges: dict[int, dict[int, None]] = {}
        self.query_edges: dict[int, dict[int, None]] = {}

    def add_query(self, qid: int, weight: int) -> None:
        if qid in self.query_weight:
            raise GraphError(f"duplicate query node {qid}")
        if weight < 0:
            raise GraphError(f"query node {qid}: weight must be non-negative")
        self.query_weight[qid] = weight
        self.query_edges[qid] = {}

    def add_update(self, uid: int, weight: int) -> None:
        if uid in self.update_weight:
            raise GraphError(f"duplicate update node {uid}")
        if weight < 0:
            raise GraphError(f"update node {uid}: weight must be non-negative")
        self.update_weight[uid] = weight
        self.update_edges[uid] = {}

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
        """Edge count. Kept for the layer table (see the package docstring)."""
        return sum(map(len, self.update_edges.values()))

    def remove_nodes(self, fs: FlowState, drop_updates: set[int]) -> None:
        """Delete update nodes plus incident edges and their arcs' flow,
        leaving a valid (not necessarily maximum) flow in `fs`. Clears the
        flow's mark (module docstring). Every id must be on the graph."""
        if missing := drop_updates - self.update_weight.keys():
            raise GraphError(f"update nodes {sorted(missing)} not on the graph")
        fs.mark = None
        for uid in drop_updates:
            for qid in self.update_edges.pop(uid):
                del self.query_edges[qid][uid]
                fs.flow_uq.get(qid, {}).pop(uid, None)
            del self.update_weight[uid]
            fs.flow_su.pop(uid, None)


def _marks(g: InteractionGraph) -> tuple:
    return g, len(g.update_weight), len(g.query_weight)


def quiet(g: InteractionGraph, fs: FlowState) -> bool:
    """Whether `fs` is settled on `g` with no node added since, so that
    what is added now is the next cover's whole scope (module docstring)."""
    mark = fs.mark
    return mark is not None and mark[1] is None and mark[0] == _marks(g)


def _scope(g: InteractionGraph, fs: FlowState):
    """Update and query ids of the next cover's scope (module docstring):
    all of them unless `fs` is settled on `g`."""
    if fs.mark is None or fs.mark[1] is not None or fs.mark[0][0] is not g:
        return g.update_weight, g.query_weight
    _, n_updates, n_queries = fs.mark[0]
    us = set(islice(reversed(g.update_weight), len(g.update_weight) - n_updates))
    qs = set(islice(reversed(g.query_weight), len(g.query_weight) - n_queries))
    grow_u, grow_q = set(us), set(qs)
    while grow_u or grow_q:
        grow_u, grow_q = ({u for q in grow_q for u in g.query_edges[q]} - us,
                          {q for u in grow_u for q in g.update_edges[u]} - qs)
        us |= grow_u
        qs |= grow_q
    return us, qs


def _search(g: InteractionGraph, fs: FlowState, updates):
    """Breadth-first search of the residual network from the unsaturated
    updates among `updates`, seeded lazily: in the order of `updates`, the
    next unsaturated update not yet reached becomes a root only when the
    queue runs dry, so a search that finds a path early skips the rest of
    them. Returns (path, None, None) for the first augmenting path, as ids
    [u0, q0, u1, q1, ..., uk, qk]: arcs u_i -> q_i gain flow and arcs
    u_(i+1) -> q_i lose it. When there is none, every unsaturated update has
    been a root or reached, the flow is maximum there, and it returns (None,
    reached updates, reached queries), the source side of the canonical
    minimum cut."""
    update_weight, query_weight = g.update_weight, g.query_weight
    flow_su, flow_uq = fs.flow_su, fs.flow_uq
    pred_u: dict[int, int | None] = {}
    pred_q: dict[int, int] = {}
    queue: deque[int] = deque()
    for root in updates:
        if root in pred_u or flow_su.get(root, 0) >= update_weight[root]:
            continue
        pred_u[root] = None
        queue.append(root)
        while queue:
            uid = queue.popleft()
            for qid in g.update_edges[uid]:
                if qid in pred_q:
                    continue
                pred_q[qid] = uid            # forward arc, unbounded capacity
                inflow = flow_uq.get(qid, {})
                if sum(inflow.values()) < query_weight[qid]:
                    path = [qid, uid]
                    while pred_u[path[-1]] is not None:
                        path.append(pred_u[path[-1]])
                        path.append(pred_q[path[-1]])
                    path.reverse()
                    return path, None, None
                for back in inflow:
                    if back not in pred_u:
                        pred_u[back] = qid   # residual reverse arc
                        queue.append(back)
    return None, pred_u, pred_q


def _augment(g: InteractionGraph, fs: FlowState, path: list[int]) -> None:
    """Push the bottleneck amount along a path from `_search`."""
    us, qs = path[0::2], path[1::2]
    backward = list(zip(us[1:], qs))
    amount = min(g.update_weight[us[0]] - fs.flow_su.get(us[0], 0),
                 g.query_weight[qs[-1]] - sum(fs.flow_uq.get(qs[-1], {}).values()),
                 *(fs.flow_uq[q][u] for u, q in backward))
    fs.flow_su[us[0]] = fs.flow_su.get(us[0], 0) + amount
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
    flow, as ('u'|'q', id): one side of a minimum cut. Kept for the layer
    table (see the package docstring)."""
    path, reached_u, reached_q = _search(g, fs, g.update_weight)
    if path is not None:
        raise GraphError("flow is not maximum")
    return {("u", uid) for uid in reached_u} | {("q", qid) for qid in reached_q}


def min_weight_cover(g: InteractionGraph, prior: FlowState | None = None
                     ) -> tuple[CoverResult, FlowState]:
    """Minimum-weight vertex cover of the bipartite graph, derived from the
    min cut of the max flow. Returns the cover and the flow, which is
    `prior` itself, brought to a maximum in place (a new flow without one)
    and marked with the cover (module docstring). Augmentation starts from
    the prior flow and takes augmenting paths breadth-first from one lazily
    chosen root at a time (`_search`), only in the cover's scope (`_scope`);
    the result is the whole graph's cover. Among equal-weight covers the
    extraction prefers covering updates: an update is covered iff
    unreachable from the source in the residual network, a query iff
    reachable, and the canonical reachable set is the smallest cut side, the
    same for every maximum flow."""
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


def prune_remainder(g: InteractionGraph, fs: FlowState) -> None:
    """Shrink to the remainder of the cover that `fs`'s mark holds, and settle
    the flow (module docstring): drop the covered (shipped) updates, then the
    uncovered (cache-answered) queries, which have no edge left and leave with
    their empty arcs; covered queries stay and keep accumulating weight
    against their surviving updates. Refuses a flow that holds no cover of the
    graph as it stands (before any cover, after an add or a removal, after a
    prune, or on another graph), and, after removing the covered updates, an
    uncovered query that an edge added since the cover still joins to an
    update."""
    mark = fs.mark
    if mark is None or mark[1] is None or mark[0] != _marks(g):
        raise GraphError("the flow holds no cover of the graph as it stands")
    answered = g.query_weight.keys() - mark[1].cover_queries
    g.remove_nodes(fs, mark[1].cover_updates)
    if edged := [qid for qid in answered if g.query_edges[qid]]:
        raise GraphError(f"queries {sorted(edged)} have edges the cover leaves open")
    for qid in answered:
        del g.query_weight[qid], g.query_edges[qid]
        fs.flow_uq.pop(qid, None)
    fs.mark = (_marks(g), None)
