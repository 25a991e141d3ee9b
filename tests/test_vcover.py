import random

from midcache.core import (AnswerFromCache, CacheState, Evict, Load,
                           ObjectCatalog, ShipQuery, ShipUpdates, apply)
from midcache.simharness import RunConfig, replay_decisions, run
from midcache.vcover import VCoverPolicy
from midcache.workload import GeneratorParams, generate
from tests.conftest import GB, SEC, mk_query, mk_update
from tests.oracles import enumerate_plan_costs


def policy_with_cache(catalog, capacity, resident=(), seed=0):
    cache = CacheState(capacity, catalog)
    cache.seed_resident(resident)
    return VCoverPolicy(catalog, cache, seed=seed), cache


def drive(policy, cache, ev):
    if hasattr(ev, "uid"):
        cache.receive_update(ev)
        decisions = policy.on_update(ev, ev.time)
    else:
        decisions = policy.on_query(ev, ev.time)
    for d in decisions:
        apply(cache, d)
    return decisions


class TestOnQuery:
    def test_fresh_resident_answers_from_cache(self, small_catalog):
        policy, cache = policy_with_cache(small_catalog, 100, [0])
        q = mk_query(1, 10, {0}, 5)
        assert drive(policy, cache, q) == [AnswerFromCache(1)]

    def test_missing_object_ships_and_offers_loads(self):
        # mirrors the worked example's first query: three objects, one absent
        catalog = ObjectCatalog.from_sizes(
            {1: 10 * GB, 2: 6 * GB, 3: 20 * GB, 4: 18 * GB})
        policy, cache = policy_with_cache(catalog, 36 * GB, [1, 2, 3], seed=3)
        q3 = mk_query(3, 3 * SEC, {1, 2, 4}, 15 * GB)
        decisions = drive(policy, cache, q3)
        assert decisions[0] == ShipQuery(3)
        # cost 15 < load 18, so candidacy is probabilistic; any loads must
        # target the missing object only
        for d in decisions[1:]:
            assert isinstance(d, (Load, Evict))

    def test_partial_residency_adds_no_graph_nodes(self, small_catalog):
        policy, cache = policy_with_cache(small_catalog, 30, [0])
        cache.receive_update(mk_update(1, 1, 0, 2))
        q = mk_query(2, 10, {0, 3}, 1)
        drive(policy, cache, q)
        assert not policy.graph.query_weight
        assert not policy.graph.update_weight


class TestUpdateManager:
    def test_single_heavy_update_ships_query(self, small_catalog):
        policy, cache = policy_with_cache(small_catalog, 100, [0])
        cache.receive_update(mk_update(1, 1, 0, 9))
        q = mk_query(2, 5, {0}, 4)
        assert drive(policy, cache, q) == [ShipQuery(2)]

    def test_single_cheap_update_ships_update(self, small_catalog):
        policy, cache = policy_with_cache(small_catalog, 100, [0])
        cache.receive_update(mk_update(1, 1, 0, 2))
        q = mk_query(2, 5, {0}, 4)
        assert drive(policy, cache, q) == [ShipUpdates((1,)), AnswerFromCache(2)]
        assert cache.is_fresh(0)

    def test_repeated_arrivals_flip_cover_to_updates(self, small_catalog):
        # query weight 4 vs updates 1+5: one query is cheaper than the
        # updates, two accumulated queries are not
        policy, cache = policy_with_cache(small_catalog, 100, [0])
        cache.receive_update(mk_update(1, 1, 0, 1))
        cache.receive_update(mk_update(6, 2, 0, 5))
        first = drive(policy, cache, mk_query(10, 3, {0}, 4))
        assert first == [ShipQuery(10)]
        assert set(policy.graph.update_weight) == {1, 6}   # retained pressure
        second = drive(policy, cache, mk_query(11, 4, {0}, 4))
        assert second == [ShipUpdates((1, 6)), AnswerFromCache(11)]
        assert not policy.graph.update_weight                # pruned after ship
        # offline enumeration for the same micro-trace: hindsight ships the
        # two updates up front for 6, the online run paid 4 + 6
        catalog = small_catalog
        events = [mk_update(1, 1, 0, 1), mk_update(6, 2, 0, 5),
                  mk_query(10, 3, {0}, 4), mk_query(11, 4, {0}, 4)]
        best, cost_of = enumerate_plan_costs(catalog, events, 10, {0})
        assert best == 6
        assert cost_of({0}, {10: "ship", 11: "updates"}) == 10

    def test_tolerance_limits_what_ships(self, small_catalog):
        policy, cache = policy_with_cache(small_catalog, 100, [0])
        cache.receive_update(mk_update(1, 10, 0, 1))
        cache.receive_update(mk_update(2, 95, 0, 1))
        q = mk_query(3, 100, {0}, 50, tol=10)
        decisions = drive(policy, cache, q)
        assert decisions == [ShipUpdates((1,)), AnswerFromCache(3)]
        assert not cache.is_fresh(0)   # the too-recent update still queued


class TestOnUpdate:
    def test_resident_update_marks_stale_no_traffic(self, small_catalog):
        policy, cache = policy_with_cache(small_catalog, 100, [0])
        decisions = drive(policy, cache, mk_update(1, 1, 0, 3))
        assert decisions == []
        assert not cache.is_fresh(0)

    def test_non_resident_update_untracked_until_load(self, small_catalog):
        policy, cache = policy_with_cache(small_catalog, 100, [0])
        drive(policy, cache, mk_update(1, 1, 3, 2))
        assert cache.outstanding_for(3) == []
        # a later load brings the object in current form: fresh, empty queue
        apply(cache, Load(3))
        assert cache.is_fresh(3)
        assert cache.outstanding_for(3) == []

    def test_reload_clears_queued_updates(self, small_catalog):
        policy, cache = policy_with_cache(small_catalog, 100, [0])
        for uid in range(1, 11):
            drive(policy, cache, mk_update(uid, uid, 0, 1))
        assert len(cache.outstanding_for(0)) == 10
        apply(cache, Evict(0))
        apply(cache, Load(0))
        assert cache.outstanding_for(0) == []
        assert cache.is_fresh(0)


class TestGraphConsistency:
    def test_eviction_drops_stale_update_nodes(self, small_catalog):
        policy, cache = policy_with_cache(small_catalog, 30, [0])
        cache.receive_update(mk_update(1, 1, 0, 9))
        drive(policy, cache, mk_query(2, 5, {0}, 4))   # ships query, retains u1
        assert policy.graph.has_update(1)
        # a shipped query for a big missing object forces object 0 out
        q = mk_query(3, 6, {2}, 30 * 4)
        decisions = drive(policy, cache, q)
        assert Evict(0) in decisions and Load(2) in decisions
        assert not policy.graph.has_update(1)

    def test_graph_nodes_subset_of_outstanding(self, small_catalog):
        from midcache.covergraph import check_flow
        rng = random.Random(9)
        policy, cache = policy_with_cache(small_catalog, 60, [0, 1], seed=9)
        uid, qid = 0, 1000
        for t in range(1, 120):
            if rng.random() < 0.5:
                uid += 1
                drive(policy, cache, mk_update(uid, t, rng.randrange(4), rng.randint(1, 6)))
            else:
                qid += 1
                objs = {rng.randrange(4)}
                drive(policy, cache, mk_query(qid, t, objs, rng.randint(1, 12)))
            live = {u.uid for o in cache.resident for u in cache.outstanding_for(o)}
            assert set(policy.graph.update_weight) <= live
            check_flow(policy.graph, policy.flow)   # repair kept flow valid


class TestEndToEnd:
    def test_mixed_trace_passes_all_audits_and_replays(self):
        params = GeneratorParams(n_objects=10, n_queries=25, n_updates=25,
                                 query_hotspots=(2, 3), update_hotspots=(6, 7))
        catalog, events = generate(params, seed=5)
        config = RunConfig(policy="vcover", seed=5, cache_frac=0.5)
        report = run(events, catalog, config)   # audits run inside
        cache, ledger = replay_decisions(events, catalog, report)
        assert ledger.total == report.ledger.total
        assert sorted(cache.resident) == report.final_resident

    def test_zero_cost_side_ships_for_free(self):
        # A zero-cost update or query sits on the graph at weight 0; the
        # cover takes it at no cost, so that side is the one shipped.
        catalog = ObjectCatalog.from_sizes({0: 10})
        first = mk_query(1, 1, {0}, 100)   # ships, and loads object 0
        for events, shipped in (
                ([first, mk_update(2, 2, 0, 0), mk_query(3, 3, {0}, 5)],
                 [ShipUpdates((2,)), AnswerFromCache(3)]),
                ([first, mk_update(2, 2, 0, 7), mk_query(3, 3, {0}, 0)],
                 [ShipQuery(3)])):
            report = run(events, catalog, RunConfig(policy="vcover", seed=0, cache_frac=1.0))
            assert report.decision_log == [(1, ShipQuery(1)), (1, Load(0))] + \
                [(3, d) for d in shipped]
            assert report.ledger.snapshot() == (100, 0, 10)
            cache, ledger = replay_decisions(events, catalog, report)
            assert ledger.snapshot() == report.ledger.snapshot()
            assert sorted(cache.resident) == report.final_resident

    def test_no_spurious_update_traffic(self):
        # updates ship only inside a query's decision list
        params = GeneratorParams(n_objects=8, n_queries=40, n_updates=40,
                                 query_hotspots=(1, 2), update_hotspots=(5, 6))
        catalog, events = generate(params, seed=11)
        report = run(events, catalog, RunConfig(policy="vcover", seed=2, cache_frac=0.5))
        update_seqs = {ev.seq for ev in events if hasattr(ev, "uid")}
        for seq, d in report.decision_log:
            if isinstance(d, ShipUpdates):
                assert seq not in update_seqs

    def test_incremental_reuse_never_changes_decisions(self, monkeypatch):
        # the canonical cover extraction (minimal source-reachable cut side)
        # is the same for every maximum flow, so starting augmentation from
        # the retained flow must yield exactly the decisions a from-scratch
        # computation would
        import midcache.vcover as vc
        from midcache.covergraph import FlowState, min_weight_cover as real_mwc

        params = GeneratorParams(n_objects=8, n_queries=120, n_updates=120,
                                 query_hotspots=(1, 2), update_hotspots=(5, 6))
        catalog, events = generate(params, seed=14)
        config = RunConfig(policy="vcover", seed=14, cache_frac=0.5)
        incremental = run(events, catalog, config)
        monkeypatch.setattr(vc, "min_weight_cover",
                            lambda g, prior=None: real_mwc(g, FlowState()))
        scratch = run(events, catalog, config)
        assert incremental.decision_log == scratch.decision_log
        assert incremental.ledger.snapshot() == scratch.ledger.snapshot()

    def test_determinism_same_seed(self):
        params = GeneratorParams(n_objects=10, n_queries=30, n_updates=30)
        params.query_hotspots = (2, 3)
        params.update_hotspots = (6, 7)
        catalog, events = generate(params, seed=8)
        config = RunConfig(policy="vcover", seed=13, cache_frac=0.4)
        a = run(events, catalog, config)
        b = run(events, catalog, config)
        assert a.decision_log == b.decision_log
        assert a.summary_json() == b.summary_json()
