import itertools

import pytest
from hypothesis import given, strategies as st

from midcache.core import (AnswerFromCache, CacheError, CacheState,
                           CapacityExceeded, CostContext, Evict, Load,
                           NonResident,
                           NotOutstanding, ObjectCatalog, ShipQuery,
                           ShipUpdates, TrafficLedger, apply, check_capacity,
                           check_freshness, interacting_updates, record)
from tests.conftest import GB, SEC, mk_query, mk_update


def make_cache(catalog, capacity, resident=()):
    cache = CacheState(capacity, catalog)
    cache.seed_resident(resident)
    return cache


class TestInteractingUpdates:
    def test_zero_tolerance_includes_all_outstanding(self, small_catalog):
        cache = make_cache(small_catalog, 100, [0])
        u1 = mk_update(1, 3, 0, 5)
        cache.receive_update(u1)
        q = mk_query(1, 5, {0}, 7, tol=0)
        assert interacting_updates(q, cache, now=5) == [u1]

    def test_tolerance_excludes_recent_update(self, worked_example):
        # query 8's tolerance window hides update 5 but not update 2
        cat = worked_example["catalog"]
        cache = make_cache(cat, worked_example["capacity"], [1, 2, 3])
        u2 = mk_update(2, 2 * SEC, 1, 1 * GB)
        u5 = mk_update(5, 5 * SEC, 1, 3 * GB)
        cache.receive_update(u2)
        cache.receive_update(u5)
        q8 = mk_query(8, 8 * SEC, {1}, 9 * GB, tol=4 * SEC)
        assert interacting_updates(q8, cache, now=8 * SEC) == [u2]

    def test_boundary_strictly_excluded(self, small_catalog):
        cache = make_cache(small_catalog, 100, [0])
        cache.receive_update(mk_update(1, 96, 0, 5))
        q = mk_query(1, 100, {0}, 7, tol=10)
        assert interacting_updates(q, cache, now=100) == []

    def test_non_resident_object_errors(self, small_catalog):
        cache = make_cache(small_catalog, 100, [0])
        q = mk_query(1, 5, {0, 1}, 7)
        with pytest.raises(NonResident):
            interacting_updates(q, cache, now=5)

    @given(st.data())
    def test_matches_brute_force_filter(self, data):
        catalog = ObjectCatalog.from_sizes({i: 10 for i in range(4)})
        cache = make_cache(catalog, 100, range(4))
        updates = []
        for uid in range(data.draw(st.integers(0, 12))):
            u = mk_update(uid + 1, data.draw(st.integers(0, 50)),
                          data.draw(st.integers(0, 3)), 1)
            updates.append(u)
            cache.receive_update(u)
        now = data.draw(st.integers(40, 80))
        tol = data.draw(st.integers(0, 60))
        q = mk_query(99, now, {0, 1, 2}, 5, tol=tol)
        got = interacting_updates(q, cache, now)
        expected = {u.uid for u in updates
                    if u.object in q.objects and u.time <= now - tol}
        assert {u.uid for u in got} == expected


class TestRecord:
    def test_ship_query_bucket(self, small_catalog):
        ledger = TrafficLedger()
        costs = CostContext(small_catalog, query_cost={3: 15 * GB})
        record(ledger, ShipQuery(3), costs, seq=1)
        assert ledger.query_ship == 15 * GB
        assert ledger.samples == [(1, 15 * GB)]

    def test_ship_updates_bucket(self, small_catalog):
        ledger = TrafficLedger()
        costs = CostContext(small_catalog, update_cost={1: 1 * GB})
        record(ledger, ShipUpdates((1,)), costs, seq=2)
        assert ledger.update_ship == 1 * GB

    def test_load_bucket_uses_catalog(self):
        catalog = ObjectCatalog.from_sizes({1: 10 * GB})
        ledger = TrafficLedger()
        record(ledger, Load(1), CostContext(catalog), seq=3)
        assert ledger.load == 10 * GB

    @given(st.lists(st.tuples(st.sampled_from(["q", "u", "l", "a"]),
                              st.integers(1, 10**6)), max_size=30))
    def test_ledger_conservation(self, ops):
        catalog = ObjectCatalog.from_sizes({0: 1})
        costs = CostContext(catalog)
        ledger = TrafficLedger()
        for i, (kind, amount) in enumerate(ops):
            if kind == "q":
                costs.query_cost[i] = amount
                record(ledger, ShipQuery(i), costs, seq=i)
            elif kind == "u":
                costs.update_cost[i] = amount
                record(ledger, ShipUpdates((i,)), costs, seq=i)
            elif kind == "l":
                catalog.entries[0] = type(catalog.entries[0])(size=1, load_cost=amount)
                record(ledger, Load(0), costs, seq=i)
            else:
                record(ledger, AnswerFromCache(i), costs, seq=i)
        assert all(t <= ledger.total for _, t in ledger.samples)
        assert ledger.total == ledger.query_ship + ledger.update_ship + ledger.load


class TestApply:
    def test_evict_then_load_swaps_on_full_cache(self):
        catalog = ObjectCatalog.from_sizes({3: 20, 4: 18})
        cache = make_cache(catalog, 20, [3])
        apply(cache, Evict(3))
        apply(cache, Load(4))
        assert cache.resident == {4}
        check_capacity(cache)

    def test_ship_all_outstanding_restores_freshness(self, small_catalog):
        cache = make_cache(small_catalog, 100, [0])
        for uid in (1, 2):
            cache.receive_update(mk_update(uid, uid, 0, 1))
        assert not cache.is_fresh(0)
        apply(cache, ShipUpdates((1, 2)))
        assert cache.is_fresh(0)
        check_freshness(cache)

    def test_partial_ship_keeps_stale(self, small_catalog):
        cache = make_cache(small_catalog, 100, [0])
        for uid in (1, 2):
            cache.receive_update(mk_update(uid, uid, 0, 1))
        apply(cache, ShipUpdates((1,)))
        assert not cache.is_fresh(0)

    def test_load_clears_outstanding_any_arrival_order(self, small_catalog):
        # every interleaving of two updates and the (evict, load) pair ends
        # with a fresh object holding no queue
        for order in itertools.permutations(["u1", "u2", "reload"]):
            cache = make_cache(small_catalog, 100, [0])
            uid = 0
            for step in order:
                if step == "reload":
                    apply(cache, Evict(0))
                    apply(cache, Load(0))
                else:
                    uid += 1
                    cache.receive_update(mk_update(uid, uid, 0, 1))
            apply(cache, Evict(0))
            apply(cache, Load(0))
            assert cache.outstanding_for(0) == []
            assert cache.is_fresh(0)
            check_freshness(cache)

    def test_capacity_violation_raises(self, small_catalog):
        cache = make_cache(small_catalog, 25, [0])
        with pytest.raises(CapacityExceeded):
            apply(cache, Load(2))   # size 30 > free 15

    def test_ship_non_outstanding_raises(self, small_catalog):
        cache = make_cache(small_catalog, 100, [0])
        with pytest.raises(NotOutstanding):
            apply(cache, ShipUpdates((42,)))

    def test_update_for_non_resident_not_queued(self, small_catalog):
        cache = make_cache(small_catalog, 100, [0])
        cache.receive_update(mk_update(1, 1, 2, 1))
        assert cache.outstanding_for(2) == []
        check_freshness(cache)


class TestAccounting:
    def test_seed_resident_skips_duplicate_ids(self, small_catalog):
        cache = make_cache(small_catalog, 100, [0, 0])
        assert cache.used == small_catalog.size(0)
        cache.seed_resident([0, 1])
        assert cache.used == small_catalog.size(0) + small_catalog.size(1)

    @given(st.data())
    def test_counter_and_freshness_track_every_step(self, data):
        catalog = ObjectCatalog.from_sizes({0: 10, 1: 20, 2: 30, 3: 40, 4: 50})
        cache = make_cache(catalog, data.draw(st.integers(0, 150)))
        uid = 0
        for _ in range(data.draw(st.integers(0, 40))):
            kind = data.draw(st.sampled_from(["update", "load", "evict", "ship"]))
            if kind == "update":
                uid += 1
                cache.receive_update(mk_update(uid, uid, data.draw(st.integers(0, 4)), 1))
            elif kind == "load":
                fits = [o for o in catalog.ids()
                        if o not in cache.resident and catalog.size(o) <= cache.free]
                if fits:
                    apply(cache, Load(data.draw(st.sampled_from(fits))))
            elif kind == "evict" and cache.resident:
                apply(cache, Evict(data.draw(st.sampled_from(sorted(cache.resident)))))
            elif kind == "ship":
                queued = sorted(u.uid for q in cache.outstanding.values() for u in q)
                if queued:
                    picked = data.draw(st.lists(st.sampled_from(queued), min_size=1,
                                                unique=True))
                    apply(cache, ShipUpdates(tuple(picked)))
            assert cache.used == sum(catalog.size(o) for o in cache.resident)
            assert cache.free == cache.capacity - cache.used
            for o in cache.resident:
                assert cache.is_fresh(o) == (cache.outstanding_for(o) == [])
            check_freshness(cache)
            check_capacity(cache)

    def test_check_freshness_rejects_queue_of_non_resident(self, small_catalog):
        cache = make_cache(small_catalog, 100, [0])
        cache.outstanding[1] = [mk_update(1, 1, 1, 1)]
        with pytest.raises(CacheError, match="non-resident object 1"):
            check_freshness(cache)

    def test_check_freshness_rejects_empty_queue(self, small_catalog):
        cache = make_cache(small_catalog, 100, [0])
        cache.outstanding[0] = []
        with pytest.raises(CacheError, match="empty outstanding queue"):
            check_freshness(cache)
