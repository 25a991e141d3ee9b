import copy
import random
from itertools import count

import pytest
from hypothesis import event, given, settings, strategies as st

from midcache.core import (AnswerFromCache, CacheState, Evict, Load,
                           ObjectCatalog, ShipQuery, ShipUpdates, apply)
from midcache.simharness import RunConfig, replay_decisions, run
from midcache.vcover import VCoverPolicy
from midcache.workload import GeneratorParams, generate
from tests.conftest import GB, SEC, mk_query, mk_update
from tests.oracles import (brute_force_canonical_cover, check_flow, cover_weight,
                           enumerate_plan_costs, graph_edges, networkx_canonical_cover)


def policy_with_cache(catalog, capacity, resident=(), seed=0):
    cache = CacheState(capacity, catalog)
    cache.seed_resident(resident)
    return VCoverPolicy(cache, seed=seed), cache


def drive(policy, cache, ev):
    if hasattr(ev, "uid"):
        cache.receive_update(ev)
        decisions = policy.on_update(ev)
    else:
        decisions = policy.on_query(ev)
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
        assert 0 in cache.resident and 0 not in cache.outstanding

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
        # the too-recent update is still queued
        assert 0 in cache.resident and 0 in cache.outstanding


class TestOnUpdate:
    def test_resident_update_marks_stale_no_traffic(self, small_catalog):
        policy, cache = policy_with_cache(small_catalog, 100, [0])
        decisions = drive(policy, cache, mk_update(1, 1, 0, 3))
        assert decisions == []
        assert 0 in cache.resident and 0 in cache.outstanding

    def test_non_resident_update_untracked_until_load(self, small_catalog):
        policy, cache = policy_with_cache(small_catalog, 100, [0])
        drive(policy, cache, mk_update(1, 1, 3, 2))
        assert 3 not in cache.outstanding
        # a later load brings the object in current form: fresh, no queue
        apply(cache, Load(3))
        assert 3 in cache.resident and 3 not in cache.outstanding

    def test_reload_clears_queued_updates(self, small_catalog):
        policy, cache = policy_with_cache(small_catalog, 100, [0])
        for uid in range(1, 11):
            drive(policy, cache, mk_update(uid, uid, 0, 1))
        assert len(cache.outstanding[0]) == 10
        apply(cache, Evict(0))
        apply(cache, Load(0))
        assert 0 in cache.resident and 0 not in cache.outstanding


class TestGraphConsistency:
    def test_eviction_drops_stale_update_nodes(self, small_catalog):
        policy, cache = policy_with_cache(small_catalog, 30, [0])
        cache.receive_update(mk_update(1, 1, 0, 9))
        drive(policy, cache, mk_query(2, 5, {0}, 4))   # ships query, retains u1
        assert 1 in policy.graph.update_weight
        # a shipped query for a big missing object forces object 0 out
        q = mk_query(3, 6, {2}, 30 * 4)
        decisions = drive(policy, cache, q)
        assert Evict(0) in decisions and Load(2) in decisions
        assert 1 not in policy.graph.update_weight

    def test_evicting_an_object_without_a_queue_leaves_graph_and_flow(self, small_catalog):
        # object 1 is seeded (credit at inflation 0), object 0 is loaded by
        # GDS (credit 1.0) and then keeps update 1 on the graph. Loading the
        # 30 B object 2 evicts only object 1, which has no queue.
        policy, cache = policy_with_cache(small_catalog, 40, [1])
        assert drive(policy, cache, mk_query(1, 1, {0}, 10)) == [ShipQuery(1), Load(0)]
        cache.receive_update(mk_update(2, 2, 0, 9))
        assert drive(policy, cache, mk_query(3, 3, {0}, 4)) == [ShipQuery(3)]
        graph, flow = policy.graph, policy.flow
        assert graph.update_weight == {2: 9} and flow.mark[1] is None   # settled

        def snapshot():
            return (copy.deepcopy((vars(graph), flow.flow_su, flow.flow_uq, flow.flow_qt,
                                   flow.touched)), flow.mark)
        before = snapshot()
        assert drive(policy, cache, mk_query(4, 4, {2}, 10**6)) == \
            [ShipQuery(4), Evict(1), Load(2)]
        assert 1 not in cache.outstanding
        assert snapshot() == before
        assert flow.mark[0][0] is graph and flow.mark[1] is None

    def test_graph_nodes_subset_of_outstanding(self, small_catalog):
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
            live = {u.uid for o in cache.resident for u in cache.outstanding.get(o, ())}
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

    def test_eviction_reopens_a_settled_component(self, monkeypatch):
        # Query 4 is shipped and stays on the graph against updates 2 (object
        # 0) and 3 (object 1). Loading object 3 evicts object 0, which drops
        # update 2 and leaves query 4 unsaturated. Query 7 then arrives on
        # object 2, in another component. Its cover must also revisit query
        # 4's component: there the cut now covers update 3 and not query 4,
        # so the prune after query 7 drops both. A cover that looked only at
        # query 7's component would keep them, and query 8 would then find
        # query 4's weight still pressing against update 3 and ship the
        # update instead of itself.
        import midcache.vcover as vc
        from midcache.covergraph import FlowState, min_weight_cover as real_mwc

        catalog = ObjectCatalog.from_sizes({0: 10, 1: 10, 2: 10, 3: 10})
        events = [mk_query(1, 1, {0, 1, 2}, 100), mk_update(2, 2, 0, 3),
                  mk_update(3, 3, 1, 3), mk_query(4, 4, {0, 1}, 4),
                  mk_update(5, 5, 2, 5), mk_query(6, 6, {3}, 100),
                  mk_query(7, 7, {2}, 2), mk_query(8, 8, {1}, 2)]
        config = RunConfig(policy="vcover", seed=0, cache_bytes=30)
        pruned = {}   # newest query id -> queries the prune after its cover dropped
        real_prune = vc.prune_remainder

        def recording_prune(g, cover, fs=None):
            before = set(g.query_weight)
            real_prune(g, cover, fs)
            pruned[max(before)] = before - set(g.query_weight)

        monkeypatch.setattr(vc, "prune_remainder", recording_prune)
        incremental = run(events, catalog, config)
        assert (6, Evict(0)) in incremental.decision_log
        assert pruned[7] == {4}
        assert incremental.decision_log[-1] == (8, ShipQuery(8))
        monkeypatch.setattr(vc, "min_weight_cover",
                            lambda g, prior=None: real_mwc(g, FlowState()))
        scratch = run(events, catalog, config)
        assert incremental.decision_log == scratch.decision_log
        assert incremental.ledger.snapshot() == scratch.ledger.snapshot()

    def test_determinism_same_seed(self):
        params = GeneratorParams(n_objects=10, n_queries=30, n_updates=30,
                                 query_hotspots=(2, 3), update_hotspots=(6, 7))
        catalog, events = generate(params, seed=8)
        config = RunConfig(policy="vcover", seed=13, cache_frac=0.4)
        a = run(events, catalog, config)
        b = run(events, catalog, config)
        assert a.decision_log == b.decision_log
        assert a.summary_json() == b.summary_json()


class TestCanonicalCover:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_cover_is_the_exhaustive_canonical_cover(self, data):
        # Small traces with timestamp ties, zero costs, tolerances that put
        # an update exactly on the boundary, and a cache of two or three
        # bytes, so loads evict objects whose updates are on the graph (about
        # one example in twelve). Every cover the policy takes, incremental
        # or not, must be the whole graph's canonical cover.
        import midcache.vcover as vc
        from midcache.covergraph import min_weight_cover as real_mwc

        n_objects = data.draw(st.integers(1, 4), label="objects")
        catalog = ObjectCatalog.from_sizes(
            {o: data.draw(st.integers(1, 2)) for o in range(n_objects)})
        oid = st.integers(0, n_objects - 1)
        time, update_times, events = 0, [0], []
        for eid in range(1, data.draw(st.integers(10, 40), label="events") + 1):
            time += data.draw(st.sampled_from([0, 0, 1, 2]))
            if data.draw(st.booleans()):
                tol = data.draw(st.sampled_from([0] + sorted({time - t for t in update_times})))
                objects = data.draw(st.sets(oid, min_size=1, max_size=2))
                cost = data.draw(st.sampled_from([0, 1, 3, 8]))
                events.append(mk_query(eid, time, objects, cost, tol=tol))
            else:
                cost = data.draw(st.sampled_from([0, 3, 8]))
                events.append(mk_update(eid, time, data.draw(oid), cost))
                update_times.append(time)
        checked = []

        def checked_cover(g, prior=None):
            small = len(g.update_weight) + len(g.query_weight) <= 14
            if small:
                expect = brute_force_canonical_cover(dict(g.update_weight),
                                                     dict(g.query_weight), graph_edges(g))
            cover, fs = real_mwc(g, prior)
            if small:
                assert (cover.cover_queries, cover.cover_updates, cover_weight(g, cover)) == expect
                checked.append(cover)
            return cover, fs

        forget = vc.VCoverPolicy._forget_object_updates

        def noting_forget(self, oid):
            if any(u.uid in self.graph.update_weight for u in self.cache.outstanding.get(oid, ())):
                event("evicts an object with updates on the graph")
            return forget(self, oid)

        sizing = data.draw(st.sampled_from([{"cache_bytes": 2}, {"cache_bytes": 3},
                                            {"cache_frac": 1.0}]))
        config = RunConfig(policy="vcover", seed=data.draw(st.integers(0, 3)), **sizing)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vc, "min_weight_cover", checked_cover)
            mp.setattr(vc.VCoverPolicy, "_forget_object_updates", noting_forget)
            report = run(events, catalog, config)
        cache, ledger = replay_decisions(events, catalog, report)
        assert ledger.snapshot() == report.ledger.snapshot()
        event(f"covers checked: {min(len(checked), 5)}{'+' if len(checked) >= 5 else ''}")

    def test_sampled_covers_match_networkx(self, monkeypatch):
        # Every 20th cover of a run on the 20k-event default trace (438
        # covers, graphs up to about 1,400 updates and 55 queries) against
        # the canonical cover read off networkx's preflow-push residual
        # network, an oracle that shares no code with `covergraph`.
        import midcache.vcover as vc
        from midcache.covergraph import min_weight_cover as real_mwc

        calls, checked = count(1), []

        def sampled_cover(g, prior=None):
            expect = networkx_canonical_cover(g) if next(calls) % 20 == 0 else None
            cover, fs = real_mwc(g, prior)
            if expect is not None:
                assert (cover.cover_queries, cover.cover_updates) == expect
                checked.append(cover)
            return cover, fs

        catalog, events = generate(GeneratorParams(), 1)
        monkeypatch.setattr(vc, "min_weight_cover", sampled_cover)
        run(events, catalog, RunConfig(policy="vcover", seed=1, cache_frac=0.3))
        assert len(checked) >= 20
