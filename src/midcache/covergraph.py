"""Weighted bipartite interaction graph between retained queries and unshipped
updates, with a minimum-weight vertex cover computed by max-flow.

The derived network routes source -> update (capacity = update weight),
update -> query (effectively unbounded) and query -> sink (capacity = query
weight); the max-flow value equals the min-cover weight, and the cover falls
out of residual reachability from the source. Flow is kept across calls:
adds leave it valid, so each cover computation only augments the difference,
and pruning repairs conservation on the arcs it removes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


class GraphError(Exception):
    pass


@dataclass
class FlowState:
    """Arc flows for the derived network, reusable across cover computations.

    `augmentations` counts augmenting paths found so far; it only ever grows
    and exists to measure how much incremental reuse saves.
    """

    flow_su: dict[int, int] = field(default_factory=dict)             # source -> update
    flow_uq: dict[tuple[int, int], int] = field(default_factory=dict)  # update -> query
    flow_qt: dict[int, int] = field(default_factory=dict)             # query -> sink
    augmentations: int = 0

    @property
    def value(self) -> int:
        return sum(self.flow_qt.values())

    def copy(self) -> "FlowState":
        return FlowState(dict(self.flow_su), dict(self.flow_uq),
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
        # order, which fixes the search order and so the canonical cover.
        self.update_edges: dict[int, dict[int, None]] = {}
        self.query_edges: dict[int, dict[int, None]] = {}
        self.n_edges = 0

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
        self.n_edges += 1

    def remove_nodes(self, fs: FlowState | None,
                     drop_updates: set[int] = frozenset(),
                     drop_queries: set[int] = frozenset()) -> None:
        """Delete nodes plus incident edges, repairing the flow so what
        remains is still a valid (not necessarily maximum) flow: inflow lost
        by a surviving query comes off its sink arc, outflow lost by a
        surviving update comes off its source arc.
        """
        for uid in drop_updates:
            if uid not in self.update_weight:
                continue
            qids = self.update_edges.pop(uid)
            self.n_edges -= len(qids)
            for qid in qids:
                f = fs.flow_uq.pop((uid, qid), 0) if fs is not None else 0
                del self.query_edges[qid][uid]
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
            for uid in uids:
                f = fs.flow_uq.pop((uid, qid), 0) if fs is not None else 0
                del self.update_edges[uid][qid]
                if f:
                    fs.flow_su[uid] = fs.flow_su.get(uid, 0) - f
            del self.query_weight[qid]
            if fs is not None:
                fs.flow_qt.pop(qid, None)


def _bfs_augmenting_path(g: InteractionGraph, fs: FlowState):
    """Shortest augmenting path source -> sink in the residual network.
    Returns a list of ('u'|'q', id) hops, or None once the flow is maximum."""
    parent: dict[tuple[str, int], tuple[str, int] | None] = {}
    queue: deque[tuple[str, int]] = deque()
    for uid, w in g.update_weight.items():
        if fs.flow_su.get(uid, 0) < w:
            node = ("u", uid)
            parent[node] = None
            queue.append(node)
    while queue:
        kind, nid = queue.popleft()
        if kind == "u":
            for qid in g.update_edges[nid]:
                node = ("q", qid)
                if node not in parent:   # forward arc, unbounded capacity
                    parent[node] = ("u", nid)
                    if fs.flow_qt.get(qid, 0) < g.query_weight[qid]:
                        path = [node]
                        prev = parent[node]
                        while prev is not None:
                            path.append(prev)
                            prev = parent[prev]
                        path.reverse()
                        return path
                    queue.append(node)
        else:
            for uid in g.query_edges[nid]:
                node = ("u", uid)
                if node not in parent and fs.flow_uq.get((uid, nid), 0) > 0:
                    parent[node] = ("q", nid)   # residual reverse arc
                    queue.append(node)
    return None


def _residual_bottleneck(g: InteractionGraph, fs: FlowState, path) -> int:
    first = path[0][1]
    slack = g.update_weight[first] - fs.flow_su.get(first, 0)
    for (ka, ia), (kb, ib) in zip(path, path[1:]):
        if ka == "q" and kb == "u":   # reverse arc: limited by pushed flow
            slack = min(slack, fs.flow_uq.get((ib, ia), 0))
    last = path[-1][1]
    slack = min(slack, g.query_weight[last] - fs.flow_qt.get(last, 0))
    return slack


def _push(fs: FlowState, path, amount: int) -> None:
    first, last = path[0][1], path[-1][1]
    fs.flow_su[first] = fs.flow_su.get(first, 0) + amount
    fs.flow_qt[last] = fs.flow_qt.get(last, 0) + amount
    for (ka, ia), (kb, ib) in zip(path, path[1:]):
        if ka == "u" and kb == "q":
            fs.flow_uq[(ia, ib)] = fs.flow_uq.get((ia, ib), 0) + amount
        else:
            fs.flow_uq[(ib, ia)] -= amount


def source_reachable(g: InteractionGraph, fs: FlowState) -> set[tuple[str, int]]:
    """Nodes reachable from the source in the residual network. At max flow
    this is one side of a minimum cut."""
    seen: set[tuple[str, int]] = set()
    queue: deque[tuple[str, int]] = deque()
    for uid, w in g.update_weight.items():
        if fs.flow_su.get(uid, 0) < w:
            seen.add(("u", uid))
            queue.append(("u", uid))
    while queue:
        kind, nid = queue.popleft()
        if kind == "u":
            for qid in g.update_edges[nid]:
                if ("q", qid) not in seen:
                    seen.add(("q", qid))
                    queue.append(("q", qid))
        else:
            for uid in g.query_edges[nid]:
                if ("u", uid) not in seen and fs.flow_uq.get((uid, nid), 0) > 0:
                    seen.add(("u", uid))
                    queue.append(("u", uid))
    return seen


def min_weight_cover(g: InteractionGraph, prior: FlowState | None = None
                     ) -> tuple[CoverResult, FlowState]:
    """Minimum-weight vertex cover of the bipartite graph, derived from the
    min cut of the max flow.

    Augmentation starts from the prior flow (valid after any sequence of adds
    and prunes) and uses shortest augmenting paths, so repeated calls across
    graph growth do no more total work than one computation on the final
    graph. Among equal-weight covers the extraction prefers covering updates:
    an update is covered iff unreachable from the source in the residual
    network, a query iff reachable, and the canonical reachable set is the
    smallest cut side.
    """
    fs = prior.copy() if prior is not None else FlowState()
    while True:
        path = _bfs_augmenting_path(g, fs)
        if path is None:
            break
        _push(fs, path, _residual_bottleneck(g, fs, path))
        fs.augmentations += 1
    reach = source_reachable(g, fs)
    cover_u = frozenset(u for u in g.update_weight if ("u", u) not in reach)
    cover_q = frozenset(q for q in g.query_weight if ("q", q) in reach)
    weight = (sum(g.update_weight[u] for u in cover_u)
              + sum(g.query_weight[q] for q in cover_q))
    return CoverResult(cover_q, cover_u, weight), fs


def prune_remainder(g: InteractionGraph, cover: CoverResult,
                    fs: FlowState | None = None) -> None:
    """Shrink to the remainder subgraph: drop covered (shipped) updates and
    uncovered (cache-answered) queries; covered queries stay and keep
    accumulating weight against their surviving updates. The flow state, when
    given, is repaired in place and stays valid for the remainder."""
    g.remove_nodes(fs,
                   drop_updates=set(cover.cover_updates),
                   drop_queries=set(g.query_weight) - set(cover.cover_queries))


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
    for (uid, qid), f in fs.flow_uq.items():
        if qid not in g.update_edges.get(uid, ()):
            raise GraphError(f"flow on missing edge ({uid},{qid})")
        if f < 0:
            raise GraphError(f"edge ({uid},{qid}): negative flow {f}")
    for uid in g.update_weight:
        out = sum(fs.flow_uq.get((uid, qid), 0) for qid in g.update_edges[uid])
        if out != fs.flow_su.get(uid, 0):
            raise GraphError(f"update {uid}: conservation violated")
    for qid in g.query_weight:
        into = sum(fs.flow_uq.get((uid, qid), 0) for uid in g.query_edges[qid])
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
            f = fs.flow_uq.get((uid, qid), 0)
            if f:
                lines.append(f"  u{uid}->q{qid} {f}")
        for qid in sorted(g.query_weight):
            f = fs.flow_qt.get(qid, 0)
            if f:
                lines.append(f"  q{qid}->T {f}")
    return "\n".join(lines) + "\n"
