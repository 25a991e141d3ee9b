"""Weighted bipartite interaction graph between retained queries and unshipped
updates, with a minimum-weight vertex cover computed by max-flow.

The derived network routes source -> update (capacity = update weight),
update -> query (effectively unbounded) and query -> sink (capacity = query
weight); the max-flow value equals the min-cover weight, and the cover falls
out of residual reachability from the source.

The flow lives in a `FlowState` that `min_weight_cover` mutates in place.
After a cover followed by `prune_remainder` with the same flow, the pair is
*settled*: every node left is source-reachable in the residual network and
every remaining query is saturated. (A prune drops only nodes outside the
reachable side, and no flow crosses that cut, so the flow stays maximum.)
Until the next cover only two kinds of component can change: those holding
nodes added since, and those that lost nodes through `remove_nodes(fs, ...)`,
whose surviving neighbours the flow records. The next cover augments,
searches and prunes only inside those components; every other component is
still settled, so its queries are covered and its updates are not. A fresh
flow, a cover not followed by a prune, or a graph changed between a cover and
its prune makes the next cover treat the whole graph.
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
    # (graph, updates_added, queries_added) when the last prune settled the
    # flow on that graph; None until then and after any cover.
    settled: tuple | None = field(default=None, compare=False, repr=False)
    # ('u'|'q', id) neighbours of nodes remove_nodes dropped since settling.
    touched: set[tuple[str, int]] = field(default_factory=set, compare=False, repr=False)
    # (graph marks, cover, in-scope queries) of the last cover, until
    # remove_nodes changes the graph.
    last_cover: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def value(self) -> int:
        return sum(self.flow_qt.values())

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
    weight: int


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
        self.n_edges = 0
        # add_update/add_query calls so far: nodes added after a flow settled
        # are among the last that many keys of each insertion-ordered dict.
        self.updates_added = 0
        self.queries_added = 0

    def has_update(self, uid: int) -> bool:
        return uid in self.update_weight

    def edges(self) -> set[tuple[int, int]]:
        return {(uid, qid) for uid, qs in self.update_edges.items() for qid in qs}

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
        self.n_edges += 1

    def remove_nodes(self, fs: FlowState | None,
                     drop_updates: set[int] = frozenset(),
                     drop_queries: set[int] = frozenset()) -> None:
        """Delete nodes plus incident edges, repairing the flow so what
        remains is still a valid (not necessarily maximum) flow: inflow lost
        by a surviving query comes off its sink arc, outflow lost by a
        surviving update comes off its source arc. The flow records every
        surviving neighbour, whose component the next cover must revisit.
        """
        if fs is not None:
            fs.last_cover = None
        for uid in drop_updates:
            if uid not in self.update_weight:
                continue
            qids = self.update_edges.pop(uid)
            self.n_edges -= len(qids)
            for qid in qids:
                del self.query_edges[qid][uid]
                if fs is None:
                    continue
                fs.touched.add(("q", qid))
                f = fs.flow_uq.get(qid, {}).pop(uid, 0)
                if f and qid not in drop_queries:
                    fs.flow_qt[qid] = fs.flow_qt.get(qid, 0) - f
            del self.update_weight[uid]
            if fs is not None:
                fs.flow_su.pop(uid, None)
        for qid in drop_queries:
            if qid not in self.query_weight:
                continue
            uids = self.query_edges.pop(qid)
            self.n_edges -= len(uids)
            inflow = fs.flow_uq.pop(qid, {}) if fs is not None else {}
            for uid in uids:
                del self.update_edges[uid][qid]
                if fs is None:
                    continue
                fs.touched.add(("u", uid))
                f = inflow.get(uid, 0)
                if f:
                    fs.flow_su[uid] = fs.flow_su.get(uid, 0) - f
            del self.query_weight[qid]
            if fs is not None:
                fs.flow_qt.pop(qid, None)


def _marks(g: InteractionGraph) -> tuple:
    return g, g.updates_added, g.queries_added


def _scope(g: InteractionGraph, fs: FlowState):
    """Update and query ids of the components that may have changed since
    `fs` settled on `g`: all of them when it has not."""
    if fs.settled is None or fs.settled[0] is not g:
        return g.update_weight, g.query_weight
    _, updates_added, queries_added = fs.settled
    # Counting back from the newest key may also take older nodes (when
    # some new ones were removed again); a larger scope is still exact.
    us = set(islice(reversed(g.update_weight), g.updates_added - updates_added))
    qs = set(islice(reversed(g.query_weight), g.queries_added - queries_added))
    us |= {nid for kind, nid in fs.touched if kind == "u" and nid in g.update_weight}
    qs |= {nid for kind, nid in fs.touched if kind == "q" and nid in g.query_weight}
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
    fs.settled = None
    fs.touched.clear()
    while True:
        path, reached_u, reached_q = _search(g, fs, updates)
        if path is None:
            break
        _augment(g, fs, path)
        fs.augmentations += 1
    cover_u = frozenset(u for u in updates if u not in reached_u)
    cover_q = frozenset(q for q in g.query_weight if q in reached_q or q not in queries)
    weight = (sum(g.update_weight[u] for u in cover_u)
              + sum(g.query_weight[q] for q in cover_q))
    cover = CoverResult(cover_q, cover_u, weight)
    fs.last_cover = (_marks(g), cover, queries)
    return cover, fs


def prune_remainder(g: InteractionGraph, cover: CoverResult,
                    fs: FlowState | None = None) -> None:
    """Shrink to the remainder subgraph: drop covered (shipped) updates and
    uncovered (cache-answered) queries; covered queries stay and keep
    accumulating weight against their surviving updates. The flow state, when
    given, is repaired in place and stays valid for the remainder. When
    `cover` is that flow's last cover and the graph has not changed since,
    only the cover's scope is pruned and the flow is settled."""
    last = fs.last_cover if fs is not None else None
    scoped = last is not None and last[1] is cover and last[0] == _marks(g)
    queries = last[2] if scoped else g.query_weight
    g.remove_nodes(fs, drop_updates=set(cover.cover_updates),
                   drop_queries={q for q in queries if q not in cover.cover_queries})
    if scoped:
        fs.settled = _marks(g)
        fs.touched.clear()


def check_flow(g: InteractionGraph, fs: FlowState) -> None:
    """Validity check used by tests: capacity limits, non-negativity and
    conservation at every interior node."""
    for uid, f in fs.flow_su.items():
        if uid not in g.update_weight:
            raise GraphError(f"flow on source arc of missing update {uid}")
        if not (0 <= f <= g.update_weight[uid]):
            raise GraphError(f"source arc of update {uid}: flow {f} out of range")
    for qid, f in fs.flow_qt.items():
        if qid not in g.query_weight:
            raise GraphError(f"flow on sink arc of missing query {qid}")
        if not (0 <= f <= g.query_weight[qid]):
            raise GraphError(f"sink arc of query {qid}: flow {f} out of range")
    for qid, inflow in fs.flow_uq.items():
        for uid, f in inflow.items():
            if qid not in g.update_edges.get(uid, ()):
                raise GraphError(f"flow on missing edge ({uid},{qid})")
            if f <= 0:
                raise GraphError(f"edge ({uid},{qid}): non-positive flow {f} kept")
    for uid in g.update_weight:
        out = sum(fs.flow_uq.get(qid, {}).get(uid, 0) for qid in g.update_edges[uid])
        if out != fs.flow_su.get(uid, 0):
            raise GraphError(f"update {uid}: conservation violated")
    for qid in g.query_weight:
        into = sum(fs.flow_uq.get(qid, {}).get(uid, 0) for uid in g.query_edges[qid])
        if into != fs.flow_qt.get(qid, 0):
            raise GraphError(f"query {qid}: conservation violated")


def check_cover(g: InteractionGraph, cover: CoverResult) -> None:
    for uid, qid in g.edges():
        if uid not in cover.cover_updates and qid not in cover.cover_queries:
            raise GraphError(f"edge ({uid},{qid}) uncovered")


def dump(g: InteractionGraph, fs: FlowState | None = None) -> str:
    """Deterministic text form (ids sorted) for golden-file comparison."""
    lines = []
    lines.append("updates:")
    for uid in sorted(g.update_weight):
        lines.append(f"  u{uid} w={g.update_weight[uid]}")
    lines.append("queries:")
    for qid in sorted(g.query_weight):
        lines.append(f"  q{qid} w={g.query_weight[qid]}")
    edges = sorted(g.edges())
    lines.append("edges:")
    for uid, qid in edges:
        lines.append(f"  u{uid}-q{qid}")
    if fs is not None:
        lines.append(f"flow value={fs.value}")
        for uid in sorted(g.update_weight):
            f = fs.flow_su.get(uid, 0)
            if f:
                lines.append(f"  S->u{uid} {f}")
        for uid, qid in edges:
            f = fs.flow_uq.get(qid, {}).get(uid, 0)
            if f:
                lines.append(f"  u{uid}->q{qid} {f}")
        for qid in sorted(g.query_weight):
            f = fs.flow_qt.get(qid, 0)
            if f:
                lines.append(f"  q{qid}->T {f}")
    return "\n".join(lines) + "\n"
