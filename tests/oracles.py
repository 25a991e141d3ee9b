"""Independent oracles the tests check implementations against. Everything in
here is deliberately brute force and shares no code with the library paths it
verifies."""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from itertools import accumulate, combinations

import networkx as nx

from midcache.core import (AnswerFromCache, Evict, Load, ObjectCatalog, Query,
                           ShipQuery, ShipUpdates, Update)


def brute_force_cover_weight(update_weights: dict[int, int],
                             query_weights: dict[int, int],
                             edges: set[tuple[int, int]]) -> int:
    """Minimum cover weight by trying every subset of all nodes."""
    nodes = [("u", u) for u in sorted(update_weights)] + \
            [("q", q) for q in sorted(query_weights)]
    weights = [update_weights[n] if k == "u" else query_weights[n] for k, n in nodes]
    index = {node: i for i, node in enumerate(nodes)}
    edge_masks = [(1 << index[("u", u)]) | (1 << index[("q", q)]) for u, q in edges]
    best = None
    for subset in range(1 << len(nodes)):
        if all(subset & m for m in edge_masks):
            w = 0
            s = subset
            while s:
                low = s & -s
                w += weights[low.bit_length() - 1]
                s ^= low
            if best is None or w < best:
                best = w
    return 0 if best is None else best


def brute_force_canonical_cover(update_weights: dict[int, int],
                                query_weights: dict[int, int],
                                edges: set[tuple[int, int]]
                                ) -> tuple[frozenset[int], frozenset[int], int]:
    """The canonical minimum cover by trying every subset of all nodes:
    among all minimum-weight covers, the intersection of their query sides
    and the union of their update sides. Returns (queries, updates, weight)
    after checking that this pair is itself a minimum cover."""
    updates, queries = sorted(update_weights), sorted(query_weights)
    best, optimal = None, []
    for subset in range(1 << (len(updates) + len(queries))):
        cu = {u for i, u in enumerate(updates) if subset >> i & 1}
        cq = {q for i, q in enumerate(queries) if subset >> (len(updates) + i) & 1}
        if any(u not in cu and q not in cq for u, q in edges):
            continue
        w = sum(update_weights[u] for u in cu) + sum(query_weights[q] for q in cq)
        if best is None or w < best:
            best, optimal = w, []
        if w == best:
            optimal.append((cq, cu))
    cover_q = set(queries).intersection(*(cq for cq, _ in optimal))
    cover_u = set().union(*(cu for _, cu in optimal))
    weight = sum(update_weights[u] for u in cover_u) + sum(query_weights[q] for q in cover_q)
    assert weight == best, "canonical pair is not a minimum cover"
    assert all(u in cover_u or q in cover_q for u, q in edges), "canonical pair leaves an edge"
    return frozenset(cover_q), frozenset(cover_u), weight


def graph_edges(g) -> set[tuple[int, int]]:
    """Every (update, query) edge of an `InteractionGraph`."""
    return {(uid, qid) for uid, qs in g.update_edges.items() for qid in qs}


def minimum_cut_cover(g) -> tuple[frozenset[int], frozenset[int], int]:
    """The canonical minimum cover of an `InteractionGraph` (or of any object
    with its `update_weight`, `query_weight` and `update_edges`) as (queries,
    updates, cut value), from `networkx.minimum_cut` on the network source ->
    update at the update's weight, update -> query uncapacitated, query ->
    sink at the query's weight. networkx's sink side is the nodes that can
    reach its sink in the residual network, so the cut is taken on the
    reversed network from sink to source: its sink side is then the nodes
    reachable from the source, the smallest source side, which is the same
    for every maximum flow. A query is covered when it is on that side, an
    update when it is not."""
    net = nx.DiGraph()
    net.add_nodes_from(["s", "t"])
    net.add_edges_from((("u", u), "s", {"capacity": w}) for u, w in g.update_weight.items())
    net.add_edges_from(("t", ("q", q), {"capacity": w}) for q, w in g.query_weight.items())
    net.add_edges_from((("q", q), ("u", u)) for u, qs in g.update_edges.items() for q in qs)
    value, (_, source_side) = nx.minimum_cut(net, "t", "s")
    return (frozenset(q for q in g.query_weight if ("q", q) in source_side),
            frozenset(u for u in g.update_weight if ("u", u) not in source_side), value)


def sink_flow(fs, qid) -> int:
    """Flow on query `qid`'s sink arc in a `FlowState`: the sum of its inflow arcs."""
    return sum(fs.flow_uq.get(qid, {}).values())


def flow_value(fs) -> int:
    """Total flow into the sink of a `FlowState`."""
    return sum(sink_flow(fs, qid) for qid in fs.flow_uq)


def residual_reachable(g, fs) -> set[tuple[str, int]]:
    """Nodes reachable from the source in the residual network of the flow
    `fs` on `g`, as ('u'|'q', id), by a plain breadth-first search: source ->
    update while its source arc has slack, update -> query on every edge,
    query -> update back along every arc that carries flow."""
    reached = {("u", u) for u, w in g.update_weight.items() if fs.flow_su.get(u, 0) < w}
    queue = deque(reached)
    while queue:
        kind, n = queue.popleft()
        if kind == "u":
            step = {("q", q) for q in g.update_edges[n]}
        else:
            step = {("u", u) for u in g.query_edges[n] if fs.flow_uq.get(n, {}).get(u, 0) > 0}
        step -= reached
        reached |= step
        queue.extend(step)
    return reached


def check_flow(g, fs) -> None:
    """Assert `fs` is a valid flow on `g`'s network: every arc within its
    capacity, only positive flows kept on existing edges, and conservation at
    every update (a query's sink flow is the sum of its inflow arcs)."""
    for uid, f in fs.flow_su.items():
        assert uid in g.update_weight, f"flow on source arc of missing update {uid}"
        assert 0 <= f <= g.update_weight[uid], f"source arc of update {uid}: flow {f} out of range"
    for qid in fs.flow_uq:
        assert qid in g.query_weight, f"flow on sink arc of missing query {qid}"
    for qid, w in g.query_weight.items():
        f = sink_flow(fs, qid)
        assert 0 <= f <= w, f"sink arc of query {qid}: flow {f} out of range"
    for qid, inflow in fs.flow_uq.items():
        for uid, f in inflow.items():
            assert qid in g.update_edges.get(uid, ()), f"flow on missing edge ({uid},{qid})"
            assert f > 0, f"edge ({uid},{qid}): non-positive flow {f} kept"
    for uid in g.update_weight:
        out = sum(fs.flow_uq.get(qid, {}).get(uid, 0) for qid in g.update_edges[uid])
        assert out == fs.flow_su.get(uid, 0), f"update {uid}: conservation violated"


def cover_weight(g, cover) -> int:
    """Summed node weights of `cover` on `g`; take it before any prune drops
    the covered nodes."""
    return (sum(g.update_weight[u] for u in cover.cover_updates)
            + sum(g.query_weight[q] for q in cover.cover_queries))


def check_cover(g, cover) -> None:
    """Assert `cover` leaves no edge of `g` uncovered."""
    for uid, qid in graph_edges(g):
        assert uid in cover.cover_updates or qid in cover.cover_queries, \
            f"edge ({uid},{qid}) uncovered"


def enumerate_plan_costs(catalog: ObjectCatalog, events, capacity: int,
                         initial_resident: set[int]):
    """All costs achievable by: recomposing the cache once up front (evictions
    free, loads charged), then for each fully-resident query choosing between
    shipping it and shipping its interacting outstanding updates (forced ship
    when any object is missing). Returns (min_cost, cost_of_plan callable).
    """
    oids = catalog.ids()

    def feasible_residencies():
        for r in range(len(oids) + 1):
            for combo in combinations(oids, r):
                if sum(catalog.entries[o].size for o in combo) <= capacity:
                    yield frozenset(combo)

    def walk(resident: frozenset, choices: dict[int, str] | None):
        """Min cost over query choices (or the fixed-choice cost when choices
        are given). Choices map qid -> 'ship' | 'updates'."""
        load_cost = sum(catalog.entries[o].load_cost for o in resident - initial_resident)

        def rec(i: int, queues: dict[int, tuple]) -> int:
            if i == len(events):
                return 0
            ev = events[i]
            if isinstance(ev, Update):
                if ev.object in resident:
                    queues = dict(queues)
                    queues[ev.object] = queues.get(ev.object, ()) + (ev,)
                return rec(i + 1, queues)
            q: Query = ev
            if not q.objects <= resident:
                return q.ship_cost + rec(i + 1, queues)
            cutoff = q.time - q.tolerance
            interacting = [u for o in sorted(q.objects)
                           for u in queues.get(o, ()) if u.time <= cutoff]
            ship = q.ship_cost + rec(i + 1, queues)
            drained = dict(queues)
            for o in q.objects:
                kept = tuple(u for u in drained.get(o, ()) if u.time > cutoff)
                if kept:
                    drained[o] = kept
                else:
                    drained.pop(o, None)
            upd = sum(u.ship_cost for u in interacting) + rec(i + 1, drained)
            if choices is None:
                return min(ship, upd)
            return ship if choices.get(q.qid) == "ship" else upd

        return load_cost + rec(0, {})

    best = min(walk(r, None) for r in feasible_residencies())

    def cost_of_plan(resident: set[int], choices: dict[int, str]) -> int:
        return walk(frozenset(resident), choices)

    return best, cost_of_plan


def eager_gds_trace(catalog: ObjectCatalog, capacity: int, resident: set[int],
                    credits: dict[int, float], inflation: float, batch: list[int]
                    ) -> tuple[list[tuple[str, int]], set[int], dict[int, float], float]:
    """Plain (non-lazy) Greedy-Dual-Size over a candidacy batch: every
    admission and eviction becomes an action immediately. A resident without
    a credit starts at the batch-start inflation, and credits of
    non-resident objects play no part. Returns the action list, the final
    resident set, the final credit of every resident and the final
    inflation."""
    credit = {o: credits.get(o, inflation) for o in resident}
    live = set(resident)
    free = capacity - sum(catalog.entries[o].size for o in live)
    actions: list[tuple[str, int]] = []
    for oid in batch:
        info = catalog.entries[oid]
        if oid in live:
            credit[oid] = inflation + info.load_cost / info.size
            continue
        size = info.size
        if size > capacity:
            continue
        while free < size:
            victim = min(live, key=lambda o: (credit[o], o))
            inflation = credit.pop(victim)
            live.discard(victim)
            free += catalog.entries[victim].size
            actions.append(("evict", victim))
        credit[oid] = inflation + info.load_cost / size
        live.add(oid)
        free -= size
        actions.append(("load", oid))
    return actions, live, {o: credit[o] for o in live}, inflation


def sorted_offer(q: Query, resident: set[int], catalog: ObjectCatalog, rng) -> list[int]:
    """Randomized attribution with no shortcuts: always sort the missing
    objects and shuffle them, then spend the query's cost in that order. A
    fully covered object becomes a candidate; the first partly covered one
    becomes a candidate with probability cost/load_cost and ends the walk."""
    missing = sorted(q.objects - resident)
    rng.shuffle(missing)
    c = q.ship_cost
    batch: list[int] = []
    for oid in missing:
        if c <= 0:
            break
        lc = catalog.entries[oid].load_cost
        if c >= lc:
            batch.append(oid)
            c -= lc
        else:
            if rng.random() < c / lc:
                batch.append(oid)
            c = 0
    return batch


class ReferenceVCover:
    """vcover as the paper states it, one event at a time, with its own
    residency, its own update queues and a plain graph of one node per
    update (`update_weight`, `query_weight`, and `update_edges` as {uid:
    {qid}}), so `minimum_cut_cover` reads it as it reads an
    `InteractionGraph`.
    - An update to a resident object joins its object's queue.
    - A query on a missing object ships; `sorted_offer` spends its cost on
      load candidacies and `eager_gds_trace` admits them. The decisions are
      the net change: evictions of objects resident before the batch, in
      eviction order, then loads of objects resident after it, in load
      order. An evicted object's queue and its update nodes go.
    - A fully resident query with no interacting update answers at the
      cache. Otherwise it joins the graph with an edge to each interacting
      update, added as a node if it is not one already, and the cover is
      recomputed from scratch: a covered query ships; otherwise its
      interacting updates ship, in (object id, arrival) order, and it
      answers at the cache. Covered updates and uncovered queries then
      leave the graph.
    No flow is kept between covers, and nothing is skipped or grouped."""

    def __init__(self, catalog: ObjectCatalog, capacity: int, seed: int):
        self.catalog, self.capacity = catalog, capacity
        self.rng = random.Random(seed)
        self.resident: set[int] = set()
        self.credits: dict[int, float] = {}
        self.inflation = 0.0
        self.queues: dict[int, list[Update]] = {}
        self.update_weight: dict[int, int] = {}
        self.query_weight: dict[int, int] = {}
        self.update_edges: dict[int, set[int]] = {}
        self.ledger = [0, 0, 0]   # query_ship, update_ship, load

    def step(self, ev) -> list:
        """The decisions for one event, applied to this state."""
        if isinstance(ev, Update):
            if ev.object in self.resident:
                self.queues.setdefault(ev.object, []).append(ev)
            return []
        if ev.objects <= self.resident:
            return self._update_manager(ev)
        self.ledger[0] += ev.ship_cost
        batch = sorted_offer(ev, self.resident, self.catalog, self.rng)
        actions, live, self.credits, self.inflation = eager_gds_trace(
            self.catalog, self.capacity, self.resident, self.credits, self.inflation, batch)
        evicted = [oid for kind, oid in actions if kind == "evict" and oid in self.resident]
        loaded = [oid for kind, oid in actions if kind == "load" and oid in live]
        for oid in evicted:
            for u in self.queues.pop(oid, ()):
                self._drop_update(u.uid)
        self.ledger[2] += sum(self.catalog.entries[oid].load_cost for oid in loaded)
        self.resident = live
        return [ShipQuery(ev.qid), *map(Evict, evicted), *map(Load, loaded)]

    def _update_manager(self, q: Query) -> list:
        cutoff = q.time - q.tolerance
        ius = [u for oid in sorted(q.objects) for u in self.queues.get(oid, ())
               if u.time <= cutoff]
        if not ius:
            return [AnswerFromCache(q.qid)]
        self.query_weight[q.qid] = q.ship_cost
        for u in ius:
            self.update_weight.setdefault(u.uid, u.ship_cost)
            self.update_edges.setdefault(u.uid, set()).add(q.qid)
        cover_q, cover_u, _ = minimum_cut_cover(self)
        if q.qid in cover_q:
            self.ledger[0] += q.ship_cost
            decisions = [ShipQuery(q.qid)]
        else:
            for u in ius:
                self.queues[u.object].remove(u)
                if not self.queues[u.object]:
                    del self.queues[u.object]
            self.ledger[1] += sum(u.ship_cost for u in ius)
            decisions = [ShipUpdates(tuple(u.uid for u in ius)), AnswerFromCache(q.qid)]
        for uid in cover_u:
            self._drop_update(uid)
        for qid in set(self.query_weight) - cover_q:
            del self.query_weight[qid]
            for qids in self.update_edges.values():
                qids.discard(qid)
        return decisions

    def _drop_update(self, uid: int) -> None:
        self.update_weight.pop(uid, None)
        self.update_edges.pop(uid, None)


def reference_vcover_log(events, catalog: ObjectCatalog, capacity: int, seed: int
                         ) -> tuple[list[tuple[int, object]], tuple[int, int, int]]:
    """The decision log, as `(seq, decision)` pairs, and the final ledger, as
    (query_ship, update_ship, load), of a vcover run from an empty cache of
    `capacity` bytes at policy seed `seed`, worked by `ReferenceVCover`."""
    policy = ReferenceVCover(catalog, capacity, seed)
    log = [(ev.seq, d) for ev in events for d in policy.step(ev)]
    return log, tuple(policy.ledger)


def static_set_replay_cost(events, catalog: ObjectCatalog,
                           members: frozenset[int], eager: bool = True) -> int:
    """Cost of running the whole trace against a fixed cached set: loads up
    front, queries outside the set ship, updates for members ship (on arrival
    when eager, else on first query that needs them)."""
    cost = sum(catalog.entries[o].load_cost for o in members)
    if eager:
        for ev in events:
            if isinstance(ev, Update):
                if ev.object in members:
                    cost += ev.ship_cost
            elif not ev.objects <= members:
                cost += ev.ship_cost
        return cost
    queues: dict[int, list[Update]] = {}
    for ev in events:
        if isinstance(ev, Update):
            if ev.object in members:
                queues.setdefault(ev.object, []).append(ev)
        elif not ev.objects <= members:
            cost += ev.ship_cost
        else:
            cutoff = ev.time - ev.tolerance
            for o in ev.objects:
                kept = []
                for u in queues.get(o, ()):
                    if u.time <= cutoff:
                        cost += u.ship_cost
                    else:
                        kept.append(u)
                queues[o] = kept
    return cost


def loop_interacting_updates(q: Query, cache, now: int) -> list[Update]:
    """The plain per-object loop `core.interacting_updates` must agree with:
    the same list, or NonResident with the same message."""
    from midcache.core import NonResident
    cutoff = now - q.tolerance
    out: list[Update] = []
    for oid in sorted(q.objects):
        if oid not in cache.resident:
            raise NonResident(f"query {q.qid}: object {oid} is not resident")
        for u in cache.outstanding.get(oid, ()):
            if u.time <= cutoff:
                out.append(u)
    return out


def loop_check_freshness(cache) -> None:
    """The plain per-queue loop `core.check_freshness` must agree with: no
    error, or CacheError with the same message."""
    from midcache.core import CacheError
    for oid, queue in cache.outstanding.items():
        if oid not in cache.resident:
            raise CacheError(f"non-resident object {oid} has an outstanding queue")
        if not queue:
            raise CacheError(f"object {oid} has an empty outstanding queue")


def largest_remainder_shares(amount: int, sizes: list[tuple[int, int]]) -> dict[int, int]:
    """Size-proportional integer split by the largest-remainder rule, worked
    on exact rationals: each object takes the integer part of its exact
    share, and the units left over go one each to the largest fractional
    parts, ties to the smaller id."""
    total = sum(s for _, s in sizes)
    exact = {oid: Fraction(amount * s, total) for oid, s in sizes}
    out = {oid: int(x) for oid, x in exact.items()}
    by_fraction = sorted(exact, key=lambda oid: (out[oid] - exact[oid], oid))
    for oid in by_fraction[:amount - sum(out.values())]:
        out[oid] += 1
    return out


def per_query_static_set(events, catalog: ObjectCatalog, capacity: int) -> list[int]:
    """The static set `yardsticks.plan_static_set` must load, in load order,
    worked one query at a time: every query credits its objects with their
    `largest_remainder_shares` of its cost, every update charges its object's
    bytes, every object pays its load cost once, and the positive scores are
    taken in (-score, id) order, skipping any object that no longer fits."""
    entries = catalog.entries
    saved: dict[int, int] = {}
    charged: dict[int, int] = {}
    for ev in events:
        if isinstance(ev, Query):
            sizes = [(oid, entries[oid].size) for oid in sorted(ev.objects)]
            for oid, share in largest_remainder_shares(ev.ship_cost, sizes).items():
                saved[oid] = saved.get(oid, 0) + share
        else:
            charged[ev.object] = charged.get(ev.object, 0) + ev.ship_cost
    scores = {oid: saved.get(oid, 0) - charged.get(oid, 0) - info.load_cost
              for oid, info in entries.items()}
    chosen, space = [], capacity
    for _, oid in sorted((-v, oid) for oid, v in scores.items() if v > 0):
        if entries[oid].size <= space:
            chosen.append(oid)
            space -= entries[oid].size
    return chosen


def windowed_benefit_log(events, catalog: ObjectCatalog, capacity: int,
                         alpha: float, delta: int) -> list[tuple[int, object]]:
    """The decision log of a `benefit` run from an empty cache, replayed
    window by window with its own resident set and update queues. Inside a
    window every query credits its objects with a fresh
    `largest_remainder_shares` of its cost (only the missing objects when it
    ships, every object when it answers at the cache), every update shipped
    for a query charges its object, and every update to an object not
    resident charges it as if it were. After each full window of `delta`
    events the forecast is smoothed, mu <- (1-alpha)*mu + alpha*(saved -
    charged - load cost if not resident), and the cache becomes the
    positive-mu ranking in (-mu, id) order, skipping any object that no longer
    fits: unselected residents are evicted in id order, then the missing
    selections load in ranking order, logged at the window's last event."""
    entries = catalog.entries
    mu = {oid: 0.0 for oid in entries}
    resident: set[int] = set()
    queues: dict[int, list[Update]] = {}
    log: list[tuple[int, object]] = []
    for start in range(0, len(events), delta):
        window = events[start:start + delta]
        saved: dict[int, int] = {}
        charged: dict[int, int] = {}
        for ev in window:
            if isinstance(ev, Update):
                if ev.object in resident:
                    queues.setdefault(ev.object, []).append(ev)
                else:
                    charged[ev.object] = charged.get(ev.object, 0) + ev.ship_cost
                continue
            sizes = [(oid, entries[oid].size) for oid in sorted(ev.objects)]
            hit = ev.objects <= resident
            for oid, share in largest_remainder_shares(ev.ship_cost, sizes).items():
                if hit or oid not in resident:
                    saved[oid] = saved.get(oid, 0) + share
            if not hit:
                log.append((ev.seq, ShipQuery(ev.qid)))
                continue
            cutoff = ev.time - ev.tolerance
            shipped = [u for oid in sorted(ev.objects) for u in queues.get(oid, ())
                       if u.time <= cutoff]
            for u in shipped:
                charged[u.object] = charged.get(u.object, 0) + u.ship_cost
                queues[u.object].remove(u)
            if shipped:
                log.append((ev.seq, ShipUpdates(tuple(u.uid for u in shipped))))
            log.append((ev.seq, AnswerFromCache(ev.qid)))
        if len(window) < delta:
            break
        for oid, info in entries.items():
            b = saved.get(oid, 0) - charged.get(oid, 0)
            if oid not in resident:
                b -= info.load_cost
            mu[oid] = (1.0 - alpha) * mu[oid] + alpha * b
        chosen, space = [], capacity
        for _, oid in sorted((-v, oid) for oid, v in mu.items() if v > 0):
            if entries[oid].size <= space:
                chosen.append(oid)
                space -= entries[oid].size
        seq = window[-1].seq
        for oid in sorted(resident.difference(chosen)):
            resident.discard(oid)
            queues.pop(oid, None)
            log.append((seq, Evict(oid)))
        for oid in chosen:
            if oid not in resident:
                resident.add(oid)
                log.append((seq, Load(oid)))
    return log


def event_fields_ok(fields: dict) -> bool:
    """Whether `Query(**fields)` (with an `objects` key) or `Update(**fields)` may
    be built: every scalar field and object id a true `int` (a bool is not),
    a query's objects a non-empty frozenset, cost in [0, 2**53 - 1] and
    tolerance at least 0."""
    objects = fields.get("objects", frozenset({0}))
    if not isinstance(objects, frozenset) or not objects:
        return False
    scalars = [v for k, v in fields.items() if k != "objects"]
    if any(isinstance(v, bool) or not isinstance(v, int) for v in scalars + list(objects)):
        return False
    return 0 <= fields["ship_cost"] <= 2**53 - 1 and fields.get("tolerance", 0) >= 0


def event_record(ev) -> dict:
    """The record of one trace event line, before JSON encoding: a query's
    objects in ascending order, every other field as the event holds it."""
    if isinstance(ev, Query):
        return {"kind": "query", "id": ev.qid, "time": ev.time,
                "objects": sorted(ev.objects), "cost": ev.ship_cost,
                "tolerance": ev.tolerance}
    return {"kind": "update", "id": ev.uid, "time": ev.time,
            "object": ev.object, "cost": ev.ship_cost}


def _drifting_choice(rng: random.Random, centers: tuple[int, ...],
                     progress: float, cycles: float) -> int:
    focus = progress * cycles * len(centers)
    idx = int(focus + rng.gauss(0.0, 0.75)) % len(centers)
    return centers[idx]


def reference_generate(params, seed: int) -> tuple[ObjectCatalog, tuple]:
    """The generator as it was written before its draws were inlined: every
    weighted pick goes through `Random.choices` and every gap through
    `Random.expovariate`, and each query's object set and cost are derived
    afresh. Equal object sets share one frozenset."""
    rng = random.Random(seed)
    n = params.n_objects
    sizes = {}
    lo, hi = math.log(params.size_min), math.log(params.size_max)
    for oid in range(n):
        sizes[oid] = max(1, int(math.exp(rng.uniform(lo, hi))))
    load_costs = {oid: max(1, int(params.load_cost_factor * s)) for oid, s in sizes.items()}
    catalog = ObjectCatalog.from_sizes(sizes, load_costs)

    markers = ["q"] * params.n_queries + ["u"] * params.n_updates
    rng.shuffle(markers)
    total = len(markers)

    tol_values = [t for t, _ in params.tolerance_mix]
    tol_cum = list(accumulate(w for _, w in params.tolerance_mix))
    opq_sizes = list(range(1, len(params.objects_per_query_weights) + 1))
    opq_cum = list(accumulate(params.objects_per_query_weights))

    events = []
    object_sets = {}
    t = 0
    scan_pos, scan_left = 0, 0
    for i, kind in enumerate(markers):
        t += max(1, int(rng.expovariate(1.0 / params.mean_interarrival_us)))
        progress = i / total
        eid = i + 1
        if kind == "q":
            if params.query_hotspots and rng.random() < params.query_hotspot_weight:
                center = _drifting_choice(rng, params.query_hotspots, progress,
                                          params.drift_cycles)
            else:
                center = rng.randrange(n)
            nobj = rng.choices(opq_sizes, cum_weights=opq_cum)[0]
            objs = frozenset((center - nobj // 2 + k) % n for k in range(nobj))
            objs = object_sets.setdefault(objs, objs)
            cost = max(1, int(params.selectivity * sum(sizes[o] for o in objs)))
            tol = rng.choices(tol_values, cum_weights=tol_cum)[0]
            events.append(Query(eid, t, objs, cost, tol, eid))
        else:
            if scan_left == 0:
                if params.update_hotspots and rng.random() < params.update_hotspot_weight:
                    scan_pos = _drifting_choice(rng, params.update_hotspots, progress,
                                                params.drift_cycles)
                else:
                    scan_pos = rng.randrange(n)
                scan_left = params.scan_len
            oid = scan_pos
            scan_pos = (scan_pos + 1) % n
            scan_left -= 1
            cost = max(1, int(params.update_fraction * sizes[oid]))
            events.append(Update(eid, t, oid, cost, eid))
    return catalog, tuple(events)
