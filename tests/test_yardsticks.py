import random
from itertools import combinations

from hypothesis import given, settings, strategies as st

from midcache import yardsticks
from midcache.core import Load, ObjectCatalog, Query, Update
from midcache.simharness import RunConfig, run
from midcache.workload import GeneratorParams, generate
from midcache.yardsticks import plan_static_set
from tests.conftest import mk_query, mk_update
from tests.oracles import per_query_static_set, static_set_replay_cost

NOCACHE = RunConfig(policy="nocache", seed=0, cache_bytes=0)
REPLICA = RunConfig(policy="replica", seed=0, cache_bytes=0)   # sized to the catalog


def soptimal_config(capacity, mode="eager"):
    return RunConfig(policy="soptimal", seed=0, cache_bytes=capacity,
                     params={"mode": mode})


def micro_trace():
    return [
        mk_update(1, 1, 0, 4),
        mk_query(2, 2, {0, 1}, 10),
        mk_update(3, 3, 1, 6),
        mk_query(4, 4, {1}, 7),
        mk_query(5, 5, {2}, 3),
    ]


class TestNoCache:
    def test_empty_trace(self, small_catalog):
        assert run([], small_catalog, NOCACHE).ledger.total == 0

    def test_equals_query_cost_fold(self, small_catalog):
        events = micro_trace()
        ledger = run(events, small_catalog, NOCACHE).ledger
        fold = sum(e.ship_cost for e in events if isinstance(e, Query))
        assert ledger.total == ledger.query_ship == fold == 20

    def test_constant_under_update_sweep(self, small_catalog):
        base = micro_trace()
        costs = []
        for extra in (0, 10, 30):
            events = list(base)
            t = 100
            for k in range(extra):
                t += 1
                events.append(mk_update(100 + k, t, k % 4, 5, seq=len(events) + 1))
            costs.append(run(events, small_catalog, NOCACHE).ledger.total)
        assert costs == [costs[0]] * 3


class TestReplica:
    def test_zero_updates(self, small_catalog):
        events = [mk_query(1, 1, {0}, 9)]
        assert run(events, small_catalog, REPLICA).ledger.total == 0

    def test_equals_update_cost_fold(self, small_catalog):
        events = micro_trace()
        ledger = run(events, small_catalog, REPLICA).ledger
        fold = sum(e.ship_cost for e in events if isinstance(e, Update))
        assert ledger.total == ledger.update_ship == fold == 10

    def test_tripling_updates_triples_cost(self, small_catalog):
        base = micro_trace()
        tripled = []
        seq = 0
        for ev in base:
            copies = 3 if isinstance(ev, Update) else 1
            for c in range(copies):
                seq += 1
                if isinstance(ev, Update):
                    tripled.append(mk_update(1000 * c + ev.uid, ev.time, ev.object,
                                             ev.ship_cost, seq=seq))
                else:
                    tripled.append(mk_query(ev.qid, ev.time, ev.objects,
                                            ev.ship_cost, ev.tolerance, seq=seq))
        assert run(tripled, small_catalog, REPLICA).ledger.total == \
            3 * run(base, small_catalog, REPLICA).ledger.total


class TestSOptimal:
    def test_zero_capacity_degenerates_to_nocache(self, small_catalog):
        events = micro_trace()
        ledger = run(events, small_catalog, soptimal_config(0)).ledger
        assert ledger.total == run(events, small_catalog, NOCACHE).ledger.total

    def test_single_absorber_selected(self):
        catalog = ObjectCatalog.from_sizes({0: 10, 1: 10})
        events = [mk_query(i, i, {0}, 8) for i in range(1, 6)]
        plan = plan_static_set(events, catalog, 10)
        ledger = run(events, catalog, soptimal_config(10)).ledger
        assert plan.static_set == {0}
        assert ledger.total == 10   # one load, all queries answered free

    def test_eager_mode_ships_every_member_update(self, small_catalog):
        events = micro_trace()
        plan = plan_static_set(events, small_catalog, 100)
        ledger = run(events, small_catalog, soptimal_config(100, "eager")).ledger
        fold = static_set_replay_cost(events, small_catalog, plan.static_set,
                                      eager=True)
        assert ledger.total == fold

    def test_lazy_mode_ships_on_demand_only(self):
        catalog = ObjectCatalog.from_sizes({0: 2})
        events = [mk_query(1, 1, {0}, 50),
                  mk_update(2, 2, 0, 5),
                  mk_query(3, 3, {0}, 50, tol=0),
                  mk_update(4, 4, 0, 5)]   # never demanded afterwards
        assert plan_static_set(events, catalog, 2).static_set == {0}
        eager_ledger = run(events, catalog, soptimal_config(2, "eager")).ledger
        lazy_ledger = run(events, catalog, soptimal_config(2, "lazy")).ledger
        assert eager_ledger.update_ship == 10
        assert lazy_ledger.update_ship == 5
        assert lazy_ledger.total == lazy_ledger.update_ship + eager_ledger.load

    def test_greedy_choice_vs_exhaustive_static_sets(self):
        # small instance: greedy static set within 10% of the true best
        params = GeneratorParams(n_objects=4, n_queries=15, n_updates=15,
                                 query_hotspots=(0, 1), update_hotspots=(2, 3),
                                 size_min=10, size_max=100)
        catalog, events = generate(params, seed=21)
        capacity = catalog.total_size // 2
        ledger = run(events, catalog, soptimal_config(capacity)).ledger
        best = min(
            static_set_replay_cost(events, catalog, frozenset(combo))
            for r in range(len(catalog.entries) + 1)
            for combo in combinations(catalog.ids(), r)
            if sum(catalog.entries[o].size for o in combo) <= capacity)
        assert ledger.total <= 1.1 * best

    def test_replay_matches_independent_fold(self):
        rng = random.Random(4)
        catalog = ObjectCatalog.from_sizes({i: rng.randint(5, 20) for i in range(5)})
        events = []
        t = 0
        for seq in range(1, 31):
            t += rng.randint(1, 3)
            if rng.random() < 0.5:
                events.append(mk_update(seq, t, rng.randrange(5), rng.randint(1, 6), seq=seq))
            else:
                objs = set(rng.sample(range(5), rng.randint(1, 2)))
                events.append(mk_query(seq, t, objs, rng.randint(1, 15),
                                       tol=rng.choice([0, 2]), seq=seq))
        capacity = 30
        plan = plan_static_set(events, catalog, capacity)
        ledger = run(events, catalog, soptimal_config(capacity)).ledger
        assert ledger.total == static_set_replay_cost(events, catalog,
                                                      plan.static_set, eager=True)
        lazy = run(events, catalog, soptimal_config(capacity, "lazy")).ledger
        assert lazy.total == static_set_replay_cost(events, catalog,
                                                    plan.static_set, eager=False)

    def test_plans_the_static_set_once(self, monkeypatch):
        params = GeneratorParams(n_objects=8, n_queries=40, n_updates=40,
                                 query_hotspots=(1, 5), update_hotspots=(2, 6),
                                 selectivity=0.2)
        catalog, events = generate(params, seed=3)
        capacity = catalog.total_size // 2
        expected = plan_static_set(events, catalog, capacity)
        calls = []

        def counting(*args):
            calls.append(args)
            return plan_static_set(*args)

        monkeypatch.setattr(yardsticks, "plan_static_set", counting)
        report = run(events, catalog, soptimal_config(capacity))
        assert len(calls) == 1
        # the run loads exactly the planned set, up front at seq 0
        loads = tuple(d for seq, d in report.decision_log
                      if seq == 0 and isinstance(d, Load))
        assert loads == expected.initial_loads
        assert expected.static_set

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_plan_matches_per_query_oracle(self, data):
        # Shapes repeat, one object set recurs at several costs (zero among
        # them), small sizes tie, and the capacity runs from nothing to the
        # whole catalog.
        n = data.draw(st.integers(1, 6), label="objects")
        size = st.one_of(st.integers(1, 3), st.integers(1, 10**9))
        catalog = ObjectCatalog.from_sizes(
            {o: data.draw(size) for o in range(n)},
            {o: data.draw(st.integers(1, 40)) for o in range(n)})
        oid = st.integers(0, n - 1)
        object_sets = data.draw(st.lists(st.frozensets(oid, min_size=1), min_size=1,
                                         max_size=4), label="object sets")
        cost = st.one_of(st.sampled_from([0, 0, 1, 7, 30]), st.integers(0, 10**10))
        events = []
        for seq in range(1, data.draw(st.integers(0, 40), label="events") + 1):
            if data.draw(st.booleans()):
                events.append(mk_query(seq, seq, data.draw(st.sampled_from(object_sets)),
                                       data.draw(cost)))
            else:
                events.append(mk_update(seq, seq, data.draw(oid), data.draw(cost)))
        capacity = data.draw(st.integers(0, catalog.total_size), label="capacity")
        chosen = per_query_static_set(events, catalog, capacity)
        plan = plan_static_set(events, catalog, capacity)
        assert plan.static_set == frozenset(chosen)
        assert plan.initial_loads == tuple(Load(o) for o in chosen)
