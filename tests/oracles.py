"""Independent oracles the tests check implementations against. Everything in
here is deliberately brute force and shares no code with the library paths it
verifies."""

from __future__ import annotations

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


def eager_gds_trace(catalog: ObjectCatalog, capacity: int,
                    resident: dict[int, float], inflation: float,
                    batch: list[int]) -> tuple[list[tuple[str, int]], set[int]]:
    """Plain (non-lazy) Greedy-Dual-Size over a candidacy batch: every
    admission and eviction becomes an action immediately. Returns the action
    list and the final resident set."""
    credit = dict(resident)
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
            victim = min(live, key=lambda o: (credit.get(o, 0.0), o))
            inflation = credit.pop(victim)
            live.discard(victim)
            free += catalog.size(victim)
            actions.append(("evict", victim))
        credit[oid] = inflation + catalog.load_cost(oid) / catalog.size(oid)
        live.add(oid)
        free -= size
        actions.append(("load", oid))
    return actions, live


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
