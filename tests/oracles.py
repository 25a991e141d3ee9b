"""Independent oracles the tests check implementations against. Everything in
here is deliberately brute force and shares no code with the library paths it
verifies."""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations

from midcache.core import ObjectCatalog, Query, Update


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


def flow_value(fs) -> int:
    """Total flow into the sink of a `FlowState`."""
    return sum(fs.flow_qt.values())


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
    every interior node."""
    for uid, f in fs.flow_su.items():
        assert uid in g.update_weight, f"flow on source arc of missing update {uid}"
        assert 0 <= f <= g.update_weight[uid], f"source arc of update {uid}: flow {f} out of range"
    for qid, f in fs.flow_qt.items():
        assert qid in g.query_weight, f"flow on sink arc of missing query {qid}"
        assert 0 <= f <= g.query_weight[qid], f"sink arc of query {qid}: flow {f} out of range"
    for qid, inflow in fs.flow_uq.items():
        for uid, f in inflow.items():
            assert qid in g.update_edges.get(uid, ()), f"flow on missing edge ({uid},{qid})"
            assert f > 0, f"edge ({uid},{qid}): non-positive flow {f} kept"
    for uid in g.update_weight:
        out = sum(fs.flow_uq.get(qid, {}).get(uid, 0) for qid in g.update_edges[uid])
        assert out == fs.flow_su.get(uid, 0), f"update {uid}: conservation violated"
    for qid in g.query_weight:
        into = sum(fs.flow_uq.get(qid, {}).get(uid, 0) for uid in g.query_edges[qid])
        assert into == fs.flow_qt.get(qid, 0), f"query {qid}: conservation violated"


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
                if sum(catalog.size(o) for o in combo) <= capacity:
                    yield frozenset(combo)

    def walk(resident: frozenset, choices: dict[int, str] | None):
        """Min cost over query choices (or the fixed-choice cost when choices
        are given). Choices map qid -> 'ship' | 'updates'."""
        load_cost = sum(catalog.load_cost(o) for o in resident - initial_resident)

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
    free = capacity - sum(catalog.size(o) for o in live)
    actions: list[tuple[str, int]] = []
    for oid in batch:
        if oid in live:
            credit[oid] = inflation + catalog.load_cost(oid) / catalog.size(oid)
            continue
        size = catalog.size(oid)
        if size > capacity:
            continue
        while free < size:
            victim = min(live, key=lambda o: (credit[o], o))
            inflation = credit.pop(victim)
            live.discard(victim)
            free += catalog.size(victim)
            actions.append(("evict", victim))
        credit[oid] = inflation + catalog.load_cost(oid) / catalog.size(oid)
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
        lc = catalog.load_cost(oid)
        if c >= lc:
            batch.append(oid)
            c -= lc
        else:
            if rng.random() < c / lc:
                batch.append(oid)
            c = 0
    return batch


def static_set_replay_cost(events, catalog: ObjectCatalog,
                           members: frozenset[int], eager: bool = True) -> int:
    """Cost of running the whole trace against a fixed cached set: loads up
    front, queries outside the set ship, updates for members ship (on arrival
    when eager, else on first query that needs them)."""
    cost = sum(catalog.load_cost(o) for o in members)
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


def event_fields_ok(fields: dict) -> bool:
    """Whether `Query(**fields)` (with an `objects` key) or `Update(**fields)` may
    be built: every scalar field and object id a true `int` (a bool is not),
    a query's objects a non-empty frozenset, cost and tolerance at least 0."""
    objects = fields.get("objects", frozenset({0}))
    if not isinstance(objects, frozenset) or not objects:
        return False
    scalars = [v for k, v in fields.items() if k != "objects"]
    if any(isinstance(v, bool) or not isinstance(v, int) for v in scalars + list(objects)):
        return False
    return fields["ship_cost"] >= 0 and fields.get("tolerance", 0) >= 0


def event_record(ev) -> dict:
    """The record of one trace event line, before JSON encoding: a query's
    objects in ascending order, every other field as the event holds it."""
    if isinstance(ev, Query):
        return {"kind": "query", "id": ev.qid, "time": ev.time,
                "objects": sorted(ev.objects), "cost": ev.ship_cost,
                "tolerance": ev.tolerance}
    return {"kind": "update", "id": ev.uid, "time": ev.time,
            "object": ev.object, "cost": ev.ship_cost}
