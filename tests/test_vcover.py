import copy
import random
from itertools import count
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings, strategies as st

from midcache.core import (AnswerFromCache, CacheState, Evict, Load, ObjectCatalog,
                           ShipQuery, ShipUpdates, apply, interacting_updates)
from midcache.covergraph import _scope, quiet
from midcache.simharness import RunConfig, replay_decisions, run
from midcache.vcover import VCoverPolicy
from midcache.workload import GeneratorParams, generate
from tests.conftest import GB, SEC, mk_query, mk_update
from tests.oracles import (ReferenceVCover, brute_force_canonical_cover, check_flow,
                           cover_weight, enumerate_plan_costs, graph_edges, members_graph,
                           minimum_cut_cover, reference_vcover_log, sink_flow)


# Two or three bytes of cache, so loads evict objects whose updates are on
# the graph, or room for every object of a `draw_small_trace` catalog.
SMALL_CACHES = st.sampled_from([{"cache_bytes": 2}, {"cache_bytes": 3}, {"cache_frac": 1.0}])


def draw_small_trace(data, max_objects, load_costs=False, query_costs=(0, 1, 3, 8)):
    """A catalog of 1 to `max_objects` objects of one or two bytes (load
    costs of 1 to 4 bytes when `load_costs`, else the sizes) and a trace of
    10 to 40 events on it, with timestamp ties, zero costs and tolerances
    that put an update exactly on a query's boundary. Updates cost 0, 3 or 8
    bytes, queries one of `query_costs`."""
    n_objects = data.draw(st.integers(1, max_objects), label="objects")
    sizes = {o: data.draw(st.integers(1, 2)) for o in range(n_objects)}
    catalog = ObjectCatalog.from_sizes(
        sizes, {o: data.draw(st.integers(1, 4)) for o in sizes} if load_costs else None)
    oid = st.integers(0, n_objects - 1)
    time, update_times, events = 0, [0], []
    for eid in range(1, data.draw(st.integers(10, 40), label="events") + 1):
        time += data.draw(st.sampled_from([0, 0, 1, 2]))
        if data.draw(st.booleans()):
            tol = data.draw(st.sampled_from([0] + sorted({time - t for t in update_times})))
            objects = data.draw(st.sets(oid, min_size=1, max_size=2))
            cost = data.draw(st.sampled_from(query_costs))
            events.append(mk_query(eid, time, objects, cost, tol=tol))
        else:
            cost = data.draw(st.sampled_from([0, 3, 8]))
            events.append(mk_update(eid, time, data.draw(oid), cost))
            update_times.append(time)
    return catalog, events


def policy_with_cache(catalog, capacity, resident=(), seed=0):
    cache = CacheState(capacity, catalog)
    cache.seed_resident(resident)
    return VCoverPolicy(cache, seed=seed), cache


def graph_uids(policy) -> set[int]:
    """Uids of the updates on the policy's graph, read through its groups."""
    return {u.uid for gid in policy.graph.update_weight for u in policy.group_of[gid]}


def objects_with_groups(policy) -> set[int]:
    """Objects with a group on the policy's graph."""
    return {members[0].object for members in policy.group_of.values()}


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
        assert graph_uids(policy) == {1, 6}                # retained pressure
        second = drive(policy, cache, mk_query(11, 4, {0}, 4))
        assert second == [ShipUpdates((1, 6)), AnswerFromCache(11)]
        assert not graph_uids(policy)                        # pruned after ship
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
        assert 1 in graph_uids(policy)
        # a shipped query for a big missing object forces object 0 out
        q = mk_query(3, 6, {2}, 30 * 4)
        decisions = drive(policy, cache, q)
        assert Evict(0) in decisions and Load(2) in decisions
        assert 1 not in graph_uids(policy)

    def test_eviction_keeps_other_objects_groups(self, small_catalog):
        # Queries 3 and 4 ship (1 < 5), leaving update 1 (object 0) and
        # update 2 (object 1) on the graph as groups of their own. Loading
        # the 30 B object 2 evicts object 0 only: its group goes, query 3
        # loses its inflow, and object 1's group keeps its edge and flow.
        policy, cache = policy_with_cache(small_catalog, 50, [0, 1])
        drive(policy, cache, mk_update(1, 1, 0, 5))
        drive(policy, cache, mk_update(2, 2, 1, 5))
        assert drive(policy, cache, mk_query(3, 3, {0}, 1)) == [ShipQuery(3)]
        assert drive(policy, cache, mk_query(4, 4, {1}, 1)) == [ShipQuery(4)]
        assert graph_edges(policy.graph) == {(1, 3), (2, 4)}
        assert drive(policy, cache, mk_query(5, 5, {2}, 30 * 4)) == \
            [ShipQuery(5), Evict(0), Load(2)]
        assert policy.group_of == {2: [mk_update(2, 2, 1, 5)]}
        assert graph_edges(policy.graph) == {(2, 4)}
        assert policy.flow.flow_su == {2: 1}
        assert sink_flow(policy.flow, 3) == 0 and sink_flow(policy.flow, 4) == 1
        assert not quiet(policy.graph, policy.flow)
        check_groups(policy, cache)
        check_flow(policy.graph, policy.flow)

    def test_evicting_an_object_without_a_queue_leaves_graph_and_flow(self, small_catalog):
        # object 1 is seeded (credit at inflation 0), object 0 is loaded by
        # GDS (credit 1.0) and then keeps update 1 on the graph. Loading the
        # 30 B object 2 evicts only object 1, which has no queue.
        policy, cache = policy_with_cache(small_catalog, 40, [1])
        assert drive(policy, cache, mk_query(1, 1, {0}, 10)) == [ShipQuery(1), Load(0)]
        cache.receive_update(mk_update(2, 2, 0, 9))
        assert drive(policy, cache, mk_query(3, 3, {0}, 4)) == [ShipQuery(3)]
        graph, flow = policy.graph, policy.flow
        assert graph.update_weight == {2: 9} and quiet(graph, flow)

        def snapshot():
            return (copy.deepcopy((vars(graph), flow.flow_su, flow.flow_uq)),
                    flow.mark)
        before = snapshot()
        assert drive(policy, cache, mk_query(4, 4, {2}, 10**6)) == \
            [ShipQuery(4), Evict(1), Load(2)]
        assert 1 not in cache.outstanding
        assert snapshot() == before
        assert quiet(graph, flow)

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
            assert graph_uids(policy) <= live
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

        def recording_prune(g, fs):
            before = set(g.query_weight)
            real_prune(g, fs)
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

        catalog, events = draw_small_trace(data, 4)
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
            if oid in objects_with_groups(self):
                event("evicts an object with updates on the graph")
            return forget(self, oid)

        config = RunConfig(policy="vcover", seed=data.draw(st.integers(0, 3)),
                           **data.draw(SMALL_CACHES))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vc, "min_weight_cover", checked_cover)
            mp.setattr(vc.VCoverPolicy, "_forget_object_updates", noting_forget)
            report = run(events, catalog, config)
        cache, ledger = replay_decisions(events, catalog, report)
        assert ledger.snapshot() == report.ledger.snapshot()
        event(f"covers checked: {min(len(checked), 5)}{'+' if len(checked) >= 5 else ''}")

    def test_sampled_covers_match_networkx(self, monkeypatch):
        # Every 3rd cover of a run on the 20k-event default trace (77 covers,
        # since most joins there are stars that vcover answers without one;
        # graphs up to 57 update nodes and 54 queries) against
        # the canonical cover read off networkx's minimum cut, an oracle that
        # shares no code with `covergraph`.
        import midcache.vcover as vc
        from midcache.covergraph import min_weight_cover as real_mwc

        calls, checked = count(1), []

        def sampled_cover(g, prior=None):
            expect = minimum_cut_cover(g)[:2] if next(calls) % 3 == 0 else None
            cover, fs = real_mwc(g, prior)
            if expect is not None:
                assert (cover.cover_queries, cover.cover_updates) == expect
                checked.append(cover)
            return cover, fs

        catalog, events = generate(GeneratorParams(), 1)
        monkeypatch.setattr(vc, "min_weight_cover", sampled_cover)
        run(events, catalog, RunConfig(policy="vcover", seed=1, cache_frac=0.3))
        assert len(checked) >= 20


def check_groups(policy, cache) -> None:
    """The groups are the graph's update nodes, each named by its oldest
    member and weighing its members' costs, all of zero or all of positive
    cost; their members are outstanding updates of the group's object, in
    queue order, and `group_of` maps exactly the members to their groups.
    An eviction finds an object's groups through its queue, so every member
    must be there."""
    graph = policy.graph
    by_gid = {members[0].uid: members for members in policy.group_of.values()}
    assert by_gid.keys() == graph.update_weight.keys()
    for gid, members in by_gid.items():
        oid = members[0].object
        assert graph.update_weight[gid] == sum(u.ship_cost for u in members)
        assert len({u.ship_cost > 0 for u in members}) == 1
        assert all(u.object == oid for u in members)
        positions = [cache.outstanding[oid].index(u) for u in members]
        assert positions == sorted(positions)
    assert policy.group_of == {u.uid: members for members in by_gid.values() for u in members}
    assert all(policy.group_of[u.uid] is members for members in by_gid.values() for u in members)


class TestTwinGroups:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_groups_are_twins_and_covers_expand_to_the_ungrouped_cover(self, data):
        # vcover and ReferenceVCover, which keeps one node per update, are
        # driven side by side on small drawn traces with up to six objects.
        # At every cover no group mixes zero and positive cost, and the cover
        # read as member uids is networkx's canonical cover of the graph with
        # one node per member. After every event both give the same
        # decisions, the groups are consistent, the flow is valid, and each
        # member's neighbours in the reference's graph are its group's: all
        # members of a group share one neighbour set.
        import midcache.vcover as vc
        from midcache.covergraph import min_weight_cover as real_mwc

        catalog, events = draw_small_trace(data, 6, load_costs=True)
        seed = data.draw(st.integers(0, 3))
        capacity = RunConfig(policy="vcover", seed=seed,
                             **data.draw(SMALL_CACHES)).capacity(catalog)
        cache = CacheState(capacity, catalog)
        policy = VCoverPolicy(cache, seed=seed)
        reference = ReferenceVCover(catalog, capacity, seed)
        seen = set()
        before = {}   # uid -> (group id, flow on the group) before the event

        def checked_cover(g, prior=None):
            for gid in g.update_weight:
                assert len({u.ship_cost > 0 for u in policy.group_of[gid]}) == 1
            if any(len(policy.group_of[gid]) > 1 for gid in g.update_weight):
                seen.add("a cover with a group of two or more")
            # Within one query a member changes group only when a split
            # makes its newer part a group of its own.
            split = {before[uid] for uid, m in policy.group_of.items()
                     if uid in before and m[0].uid != before[uid][0]}
            if split:
                seen.add("a split" + (" of a group holding flow"
                                      if any(f for _, f in split) else ""))
            expect = minimum_cut_cover(members_graph(g, policy.group_of))[:2]
            cover, fs = real_mwc(g, prior)
            members = {u.uid for gid in cover.cover_updates for u in policy.group_of[gid]}
            assert (cover.cover_queries, members) == expect
            return cover, fs

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vc, "min_weight_cover", checked_cover)
            for ev in events:
                before = {uid: (m[0].uid, policy.flow.flow_su.get(m[0].uid, 0))
                          for uid, m in policy.group_of.items()}
                had_groups = objects_with_groups(policy)
                decisions = drive(policy, cache, ev)
                assert decisions == reference.step(ev)
                if any(type(d) is Evict and d.oid in had_groups for d in decisions):
                    seen.add("an eviction of an object with groups")
                check_groups(policy, cache)
                check_flow(policy.graph, policy.flow)
                expanded = members_graph(policy.graph, policy.group_of)
                assert expanded.update_weight == reference.update_weight
                assert expanded.update_edges == reference.update_edges
                assert policy.graph.query_weight == reference.query_weight
        for note in sorted(seen):
            event(note)

    def test_high_tolerance_query_splits_a_group(self, small_catalog):
        # Query 4 ships (5 < 12) and leaves group 1 = updates 1, 2, 3 on the
        # graph, sending it 5 of flow. Query 5's cutoff of 2 takes updates 1
        # and 2 only, so group 1 splits: it leaves the graph, taking its flow
        # with it and unsettling the flow, and comes back as updates 1 and 2
        # at weight 2, and update 3 becomes group 3 at weight 10; both parts
        # keep query 4's edge. The cover, over the whole graph, finds
        # {group 1, query 4} (7) beats {query 4, query 5} (8), so updates 1
        # and 2 ship and group 3 stays against query 4.
        import midcache.vcover as vc
        from midcache.covergraph import min_weight_cover as real_mwc

        policy, cache = policy_with_cache(small_catalog, 100, [0])
        for uid, cost in ((1, 1), (2, 1), (3, 10)):
            drive(policy, cache, mk_update(uid, uid, 0, cost))
        assert drive(policy, cache, mk_query(4, 4, {0}, 5)) == [ShipQuery(4)]
        assert policy.graph.update_weight == {1: 12}
        assert policy.flow.flow_su == {1: 5}
        before_cover = []

        def noting_cover(g, prior=None):
            check_flow(g, prior)
            before_cover.append((dict(g.update_weight), graph_edges(g), dict(prior.flow_su),
                                 {q: dict(i) for q, i in prior.flow_uq.items() if i},
                                 prior.mark))
            return real_mwc(g, prior)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vc, "min_weight_cover", noting_cover)
            decisions = drive(policy, cache, mk_query(5, 5, {0}, 3, tol=3))
        assert before_cover == [({1: 2, 3: 10}, {(1, 4), (1, 5), (3, 4)}, {}, {}, None)]
        assert decisions == [ShipUpdates((1, 2)), AnswerFromCache(5)]
        assert policy.group_of == {3: [mk_update(3, 3, 0, 10)]}
        assert graph_uids(policy) == {3}
        assert graph_edges(policy.graph) == {(3, 4)}
        check_groups(policy, cache)
        check_flow(policy.graph, policy.flow)

    def test_both_parts_of_a_split_stay_until_an_eviction_takes_them(self, small_catalog):
        # Query 4 ships (1 < 15) and leaves group 1 = updates 1, 2, 3 on the
        # graph. Query 5's cutoff of 2 cuts it: the older part, updates 1
        # and 2, comes back first under id 1 at weight 10, then update 3 as
        # group 3 at weight 5, each with query 4's edge, and group 1 gets
        # query 5's. Query 5 ships too (2 < 15), so both parts stay. Loading
        # the 30 B object 2 then evicts object 0, whose queue leads to both
        # parts.
        policy, cache = policy_with_cache(small_catalog, 30, [0])
        for uid in (1, 2, 3):
            drive(policy, cache, mk_update(uid, uid, 0, 5))
        assert drive(policy, cache, mk_query(4, 4, {0}, 1)) == [ShipQuery(4)]
        assert drive(policy, cache, mk_query(5, 5, {0}, 1, tol=3)) == [ShipQuery(5)]
        graph = policy.graph
        assert list(graph.update_weight.items()) == [(1, 10), (3, 5)]
        assert graph_edges(graph) == {(1, 4), (3, 4), (1, 5)}
        assert list(graph.query_edges[4]) == [1, 3]
        assert {uid: [u.uid for u in m] for uid, m in policy.group_of.items()} == \
            {1: [1, 2], 2: [1, 2], 3: [3]}
        check_groups(policy, cache)
        assert quiet(graph, policy.flow)
        decisions = drive(policy, cache, mk_query(6, 6, {2}, 30 * 4))
        assert Evict(0) in decisions and Load(2) in decisions
        assert not policy.group_of and not graph.update_weight
        assert graph.query_weight == {4: 1, 5: 1} and not quiet(graph, policy.flow)
        check_flow(graph, policy.flow)

    def test_eviction_while_the_objects_groups_hold_flow(self, small_catalog):
        # Group 1 (updates 1 and 2 of object 0, weight 11) and group 3
        # (update 3 of object 1, weight 2) both neighbour shipped query 4 (5
        # B), whose whole inflow comes through group 1. Loading the 30 B
        # object 2 evicts objects 0 and 1; both objects' groups go, query 4
        # loses its inflow, and the flow is unsettled.
        policy, cache = policy_with_cache(small_catalog, 40, [0, 1])
        for ev in (mk_update(1, 1, 0, 5), mk_update(2, 2, 0, 6), mk_update(3, 3, 1, 2)):
            drive(policy, cache, ev)
        assert drive(policy, cache, mk_query(4, 4, {0, 1}, 5)) == [ShipQuery(4)]
        assert policy.graph.update_weight == {1: 11, 3: 2}
        assert policy.flow.flow_su == {1: 5} and sink_flow(policy.flow, 4) == 5
        decisions = drive(policy, cache, mk_query(5, 5, {2}, 30))
        assert decisions[0] == ShipQuery(5) and Load(2) in decisions
        assert {Evict(0), Evict(1)} <= set(decisions)
        assert not policy.group_of
        assert policy.graph.update_weight == {} and policy.graph.query_weight == {4: 5}
        assert sink_flow(policy.flow, 4) == 0 and not quiet(policy.graph, policy.flow)
        check_flow(policy.graph, policy.flow)

    def test_update_a_prune_dropped_unshipped_is_added_back(self, small_catalog):
        # Query 5 (10) ships against group 1 (update 1, object 0, weight 6)
        # and group 2 (updates 2 and 3, object 1, weight 6). Query 6 (7)
        # joins on object 0 only; the cover {group 1, group 2} (12) beats
        # {query 5, query 6} (17), so update 1 ships for query 6, and group
        # 2 leaves the graph unshipped, still queued. Query 8 on object 1
        # then adds updates 2 and 3 back, with the new update 7, as one new
        # group 2 of weight 8, and ships itself (3 < 8).
        policy, cache = policy_with_cache(small_catalog, 100, [0, 1])
        for ev in (mk_update(1, 1, 0, 6), mk_update(2, 2, 1, 3), mk_update(3, 3, 1, 3)):
            drive(policy, cache, ev)
        assert drive(policy, cache, mk_query(5, 5, {0, 1}, 10)) == [ShipQuery(5)]
        assert policy.graph.update_weight == {1: 6, 2: 6}
        assert drive(policy, cache, mk_query(6, 6, {0}, 7)) == \
            [ShipUpdates((1,)), AnswerFromCache(6)]
        assert not graph_uids(policy) and not policy.graph.query_weight
        assert [u.uid for u in cache.outstanding[1]] == [2, 3]
        drive(policy, cache, mk_update(7, 7, 1, 2))
        assert drive(policy, cache, mk_query(8, 8, {1}, 3)) == [ShipQuery(8)]
        assert policy.graph.update_weight == {2: 8}
        assert [u.uid for u in policy.group_of[2]] == [2, 3, 7]
        assert graph_edges(policy.graph) == {(2, 8)}
        check_groups(policy, cache)


def graph_and_flow(policy) -> tuple:
    """The policy's graph and flow as ordered lists, group records included:
    dict order fixes the kernel's search order, so it must hold too."""
    g, fs = policy.graph, policy.flow
    return ([list(d.items()) for d in (g.update_weight, g.query_weight)],
            [[(k, list(v)) for k, v in d.items()] for d in (g.update_edges, g.query_edges)],
            [list(fs.flow_su.items()), [(q, list(i.items())) for q, i in fs.flow_uq.items()]],
            [(uid, [u.uid for u in m]) for uid, m in policy.group_of.items()])


class TestStarAnswer:
    """A query whose interacting updates are all off the graph, met on a
    quiet flow, whose updates cost no more than it: vcover ships the updates
    without calling the cover kernel and leaves the graph as it was."""

    @staticmethod
    def counting_kernel(mp) -> list:
        """Route vcover's covers through a wrapper that notes, per call, the
        newest query on the graph and the queries in the cover's scope."""
        import midcache.vcover as vc

        real, calls = vc.min_weight_cover, []

        def counted(g, prior=None):
            calls.append((max(g.query_weight), sorted(_scope(g, prior)[1])))
            return real(g, prior)

        mp.setattr(vc, "min_weight_cover", counted)
        return calls

    # (object, cost) of each update, and the query's cost: a tie, zero-cost
    # updates against a query of cost 0, a zero-cost and a positive update of
    # one object (two groups), and updates cheaper than the query.
    @pytest.mark.parametrize("updates, cost", [
        (((0, 4), (1, 4)), 8), (((0, 0), (1, 0)), 0), (((0, 0), (0, 5)), 5),
        (((0, 2), (1, 3)), 9)])
    def test_a_star_on_a_quiet_flow_skips_the_kernel(self, small_catalog, updates, cost):
        import midcache.vcover as vc

        events = [mk_update(1, 1, 0, 3), mk_query(2, 2, {0}, 8),
                  *(mk_update(uid, uid, oid, c) for uid, (oid, c) in enumerate(updates, 3)),
                  mk_query(9, 9, {0, 1}, cost)]
        expect = [ShipUpdates(tuple(range(3, 3 + len(updates)))), AnswerFromCache(9)]
        logs = []
        for shortcut in (True, False):
            policy, cache = policy_with_cache(small_catalog, 100, [0, 1])
            with pytest.MonkeyPatch.context() as mp:
                calls = self.counting_kernel(mp)
                if not shortcut:
                    mp.setattr(vc, "quiet", lambda g, fs: False)
                logs.append([drive(policy, cache, ev) for ev in events[:-1]])
                before = graph_and_flow(policy)
                assert quiet(policy.graph, policy.flow)
                logs[-1].append(drive(policy, cache, events[-1]))
            assert logs[-1][-1] == expect
            assert [q for q, _ in calls] == ([2] if shortcut else [2, 9])
            assert graph_and_flow(policy) == before
            assert quiet(policy.graph, policy.flow)
        assert logs[0] == logs[1]

    def test_a_flow_unsettled_by_an_eviction_reaches_the_kernel(self, monkeypatch):
        # As in test_eviction_reopens_a_settled_component: loading object 3
        # evicts object 0, so query 4 loses update 2, and the removal
        # unsettles the flow. Query 7 then meets a star whose update 5 (5 B)
        # costs less than it, with nothing added since the last prune; only
        # the unsettled flow keeps it from the shortcut, and its cover
        # treats the whole graph, query 4's component included.
        catalog = ObjectCatalog.from_sizes({0: 10, 1: 10, 2: 10, 3: 10})
        events = [mk_query(1, 1, {0, 1, 2}, 100), mk_update(2, 2, 0, 3),
                  mk_update(3, 3, 1, 3), mk_query(4, 4, {0, 1}, 4),
                  mk_update(5, 5, 2, 5), mk_query(6, 6, {3}, 100),
                  mk_query(7, 7, {2}, 10)]
        calls = self.counting_kernel(monkeypatch)
        report = run(events, catalog, RunConfig(policy="vcover", seed=0, cache_bytes=30))
        assert (6, Evict(0)) in report.decision_log
        assert report.decision_log[-2:] == [(7, ShipUpdates((5,))), (7, AnswerFromCache(7))]
        assert calls == [(4, [4]), (7, [4, 7])]

    def test_a_star_with_a_group_on_the_graph_reaches_the_kernel(self, small_catalog,
                                                                 monkeypatch):
        # Query 2 ships (1 < 5) and leaves update 1 on the graph as a group.
        # Query 4's updates, 1 and the fresh 3, cost 6 against its 100, on a
        # quiet flow; update 1's group sends it to the kernel all the same.
        calls = self.counting_kernel(monkeypatch)
        policy, cache = policy_with_cache(small_catalog, 100, [0, 1])
        drive(policy, cache, mk_update(1, 1, 0, 5))
        assert drive(policy, cache, mk_query(2, 2, {0}, 1)) == [ShipQuery(2)]
        drive(policy, cache, mk_update(3, 3, 1, 1))
        assert quiet(policy.graph, policy.flow) and 1 in policy.group_of
        assert drive(policy, cache, mk_query(4, 4, {0, 1}, 100)) == \
            [ShipUpdates((1, 3)), AnswerFromCache(4)]
        assert [q for q, _ in calls] == [2, 4]
        assert not policy.graph.update_weight and not policy.group_of

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_each_star_answer_is_the_kernels(self, data):
        # Small drawn traces, as TestTwinGroups draws them but with dearer
        # queries (ties included) and room for every object, so about half
        # the examples meet a star answer; stars after an eviction are
        # test_a_flow_unsettled_by_an_eviction_reaches_the_kernel's. Each
        # time vcover answers a query without a cover, the star is joined to
        # a deep copy of the graph, flow and group records it held before:
        # the kernel's cover there must cover exactly the star's updates and
        # not the query, and the prune must leave the graph, the flow, the
        # group records and their order as vcover left them.
        from midcache.covergraph import min_weight_cover, prune_remainder

        catalog, events = draw_small_trace(data, 6, load_costs=True,
                                           query_costs=(0, 3, 8, 24))
        seed = data.draw(st.integers(0, 3))
        config = RunConfig(policy="vcover", seed=seed, cache_frac=1.0)
        cache = CacheState(config.capacity(catalog), catalog)
        policy = VCoverPolicy(cache, seed=seed)
        answered = 0
        with pytest.MonkeyPatch.context() as mp:
            calls = self.counting_kernel(mp)
            for ev in events:
                shadow = copy.deepcopy((policy.graph, policy.flow, policy.group_of))
                ius = ([] if hasattr(ev, "uid") or not ev.objects <= cache.resident
                       else interacting_updates(ev, cache, ev.time))
                made = len(calls)
                decisions = drive(policy, cache, ev)
                if not ius or len(calls) > made or type(decisions[0]) is not ShipUpdates:
                    continue
                answered += 1
                g, fs, group_of = shadow
                g.add_query(ev.qid, ev.ship_cost)
                star: dict[tuple, list] = {}
                for u in ius:
                    star.setdefault((u.object, u.ship_cost > 0), []).append(u)
                for members in star.values():
                    g.add_update(members[0].uid, sum(u.ship_cost for u in members))
                    g.add_edge(members[0].uid, ev.qid)
                cover, fs = min_weight_cover(g, fs)
                assert ev.qid not in cover.cover_queries
                assert cover.cover_updates == {m[0].uid for m in star.values()}
                assert decisions == [ShipUpdates(tuple(u.uid for u in ius)),
                                     AnswerFromCache(ev.qid)]
                prune_remainder(g, fs)
                shadow_policy = SimpleNamespace(graph=g, flow=fs, group_of=group_of)
                assert graph_and_flow(shadow_policy) == graph_and_flow(policy)
                assert quiet(g, fs) and quiet(policy.graph, policy.flow)
        event(f"star answers: {min(answered, 3)}{'+' if answered >= 3 else ''}")


class TestReferenceVCover:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_run_matches_the_reference(self, data):
        # Traces of up to six objects and 40 events, with zero costs,
        # timestamp ties, tolerance boundaries, load costs above and below
        # the query costs, and a cache small enough that loads evict objects
        # whose updates are on the graph.
        import midcache.vcover as vc

        catalog, events = draw_small_trace(data, 6, load_costs=True)
        config = RunConfig(policy="vcover", seed=data.draw(st.integers(0, 3)),
                           **data.draw(SMALL_CACHES))
        forget = vc.VCoverPolicy._forget_object_updates

        def noting_forget(self, oid):
            if oid in objects_with_groups(self):
                event("evicts an object with updates on the graph")
            return forget(self, oid)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vc.VCoverPolicy, "_forget_object_updates", noting_forget)
            report = run(events, catalog, config)
        log, ledger = reference_vcover_log(events, catalog, config.capacity(catalog),
                                           config.seed)
        assert report.decision_log == log
        assert report.ledger.snapshot() == ledger

    # The golden shapes but the 20k one, whose reference run takes about half
    # a minute a seed; tests/check_20k_reference.py checks that one.
    @pytest.mark.parametrize("seed", (1, 2, 3))
    @pytest.mark.parametrize("shape", ("default", "churn532", "write68", "write68_evict"))
    def test_golden_shapes_match_the_reference(self, shape, seed):
        from tests.test_golden import SHAPES, trace

        catalog, events = trace(shape)
        config = RunConfig(policy="vcover", seed=seed, cache_frac=SHAPES[shape][1])
        report = run(events, catalog, config)
        log, ledger = reference_vcover_log(events, catalog, config.capacity(catalog), seed)
        assert report.decision_log == log
        assert report.ledger.snapshot() == ledger
