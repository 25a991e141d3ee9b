import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from midcache.benefit import split_shape
from midcache.core import CacheState, Evict, Load, ObjectCatalog, UnknownObject, apply
from midcache.loadmgr import GdsState, gds_lazy_apply, offer
from midcache.vcover import VCoverPolicy
from tests.conftest import mk_query
from tests.oracles import eager_gds_trace, sorted_offer


def make_cache(catalog, capacity, resident=()):
    cache = CacheState(capacity, catalog)
    cache.seed_resident(resident)
    return cache


class TestOffer:
    def test_zero_cost_query_offers_nothing(self, small_catalog):
        cache = make_cache(small_catalog, 100)
        q = mk_query(1, 0, {0, 1}, 0)
        assert offer(q, cache, random.Random(0)) == []

    def test_cost_covering_load_is_deterministic(self, small_catalog):
        cache = make_cache(small_catalog, 100)
        q = mk_query(1, 0, {0}, 10)   # cost == load cost of object 0
        for seed in range(20):
            assert offer(q, cache, random.Random(seed)) == [0]

    def test_resident_objects_never_offered(self, small_catalog):
        cache = make_cache(small_catalog, 100, [0])
        q = mk_query(1, 0, {0, 1}, 100)
        batch = offer(q, cache, random.Random(1))
        assert batch == [1]

    def test_ski_rental_expectation(self):
        # one missing 10 GB object, stream of 1 GB queries: mean bytes
        # shipped until first candidacy (inclusive) is the load cost
        catalog = ObjectCatalog.from_sizes({0: 10_000_000_000})
        cache = make_cache(catalog, catalog.total_size)
        q = mk_query(1, 0, {0}, 1_000_000_000)
        total = 0
        trials = 10_000
        rng = random.Random(42)
        for _ in range(trials):
            shipped = 0
            while True:
                shipped += q.ship_cost
                if offer(q, cache, rng):
                    break
            total += shipped
        mean = total / trials
        assert 9.5e9 <= mean <= 10.5e9


    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_sorted_offer_and_its_random_stream(self, data):
        # offer sorts and shuffles only when two or more objects are missing;
        # the batch and the stream's state must match an offer that always
        # does. Ids are drawn wide apart, so a set's own order is often not
        # sorted order.
        ids = data.draw(st.lists(st.integers(0, 200), min_size=1, max_size=8, unique=True))
        sizes = {o: data.draw(st.integers(1, 50)) for o in ids}
        catalog = ObjectCatalog.from_sizes(
            sizes, {o: data.draw(st.integers(1, 50)) for o in ids})
        missing = data.draw(st.lists(st.sampled_from(ids), max_size=4, unique=True))
        resident = [o for o in ids if o not in missing]
        cache = make_cache(catalog, catalog.total_size, resident)
        objects = set(missing) | set(data.draw(st.lists(st.sampled_from(ids), max_size=3)))
        cost = data.draw(st.one_of(st.just(0), st.integers(1, 120), st.just(10**12)))
        q = mk_query(1, 0, objects or {ids[0]}, cost)
        seed = data.draw(st.integers(0, 2**16))
        rng, expected_rng = random.Random(seed), random.Random(seed)
        expected = sorted_offer(q, set(cache.resident), catalog, expected_rng)
        assert offer(q, cache, rng) == expected
        assert rng.getstate() == expected_rng.getstate()

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 64), seed=st.integers(0, 2**64 - 1), data=st.data())
    def test_order_and_stream_are_random_shuffles(self, n, seed, data):
        # offer draws the shuffle's indices itself; a fully paid batch is the
        # whole permutation, which must be Random.shuffle's over the sorted
        # ids, leaving the stream where Random.shuffle leaves it.
        ids = data.draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
        catalog = ObjectCatalog.from_sizes(dict.fromkeys(ids, 1))
        cache = make_cache(catalog, n)
        rng, expected_rng = random.Random(seed), random.Random(seed)
        expected = sorted(ids)
        expected_rng.shuffle(expected)
        assert offer(mk_query(1, 0, ids, n), cache, rng) == expected
        assert rng.getstate() == expected_rng.getstate()


@pytest.mark.parametrize("lookup", [
    lambda cache: cache.catalog.entries[99],
    lambda cache: cache.seed_resident([0, 99]),
    lambda cache: apply(cache, Load(99)),
    lambda cache: offer(mk_query(1, 0, {99}, 5), cache, random.Random(0)),
    lambda cache: gds_lazy_apply(GdsState(), cache, [2, 99]),
    lambda cache: split_shape(frozenset({0, 99, 100}), 5, cache.catalog),
], ids=["entries", "seed_resident", "apply", "offer", "gds_lazy_apply",
        "split_shape"])
def test_unknown_object_is_named(small_catalog, lookup):
    # Every site reads the catalog's one table, whose missing-id lookup
    # raises; split_shape names the smallest unknown id.
    cache = make_cache(small_catalog, 100)
    with pytest.raises(UnknownObject, match="^object 99 not in catalog$"):
        lookup(cache)


class TestStateShape:
    def test_no_per_object_cost_counters(self, small_catalog):
        # the whole point of randomized attribution: the policy's only
        # load-manager state is the GDS bookkeeping and its random stream,
        # nothing accumulates per-object shipping cost (the rest is the update
        # manager's graph, flow and each on-graph update's twin group)
        cache = make_cache(small_catalog, 40, [0, 1])
        policy = VCoverPolicy(cache)
        assert set(vars(policy)) == {"cache", "rng", "graph", "flow", "gds", "group_of"}
        assert set(vars(policy.gds)) == {"inflation", "credit", "heap",
                                         "synced_cache", "synced_moves"}
        # the heap only indexes the credits: (credit, oid) pairs, with an
        # entry for every live credit
        policy.on_query(mk_query(1, 0, {2, 3}, 100))
        heap = policy.gds.heap
        assert heap and all(isinstance(h, float) and isinstance(o, int) for h, o in heap)
        assert all((h, o) in heap for o, h in policy.gds.credit.items())


class TestGdsTouch:
    # A candidacy for a resident object refreshes its credit to
    # inflation + load_cost/size and changes no residency.
    def test_unit_credit_when_cost_proportional(self, small_catalog):
        state = GdsState()
        state, decisions = gds_lazy_apply(state, make_cache(small_catalog, 100, [0]), [0])
        assert decisions == []
        assert state.credit[0] == 1.0

    def test_inflation_raises_credit(self):
        catalog = ObjectCatalog.from_sizes({0: 4, 1: 8}, {0: 12, 1: 8})
        cache = make_cache(catalog, 8, [0])
        state = GdsState(credit={0: 3.0})
        # admitting object 1 must evict 0; inflation becomes 3, and the next
        # touch builds on it
        state, decisions = gds_lazy_apply(state, cache, [1])
        assert decisions == [Evict(0), Load(1)]
        assert state.inflation == 3.0
        assert state.credit[1] == 3.0 + catalog.entries[1].load_cost / catalog.entries[1].size

    def test_touch_is_idempotent(self, small_catalog):
        state = GdsState(inflation=2.0)
        cache = make_cache(small_catalog, 100, [1])
        for _ in range(5):
            state, decisions = gds_lazy_apply(state, cache, [1])
            assert decisions == []
            assert state.credit[1] == 2.0 + 1.0


class TestLazyApply:
    def test_plain_load_when_space_available(self, small_catalog):
        cache = make_cache(small_catalog, 100)
        state, decisions = gds_lazy_apply(GdsState(), cache, [3])
        assert decisions == [Load(3)]
        assert 3 in state.credit

    def test_churn_collapses_to_single_load(self):
        # eager GDS loads a then evicts it to fit b; lazy emits only Load(b)
        catalog = ObjectCatalog.from_sizes({10: 6, 11: 8})
        cache = make_cache(catalog, 10)
        batch = [10, 11]
        actions, final, _, _ = eager_gds_trace(catalog, 10, set(), {}, 0.0, batch)
        assert ("load", 10) in actions and ("evict", 10) in actions
        state, decisions = gds_lazy_apply(GdsState(), cache, batch)
        assert decisions == [Load(11)]
        assert final == {11}

    def test_empty_batch_no_decisions(self, small_catalog):
        cache = make_cache(small_catalog, 100, [0])
        state, decisions = gds_lazy_apply(GdsState(), cache, [])
        assert decisions == []

    def test_resident_loaded_outside_starts_at_inflation(self):
        # object 0 comes back behind the load manager's back with no credit;
        # it enters at the inflation level, so evicting it cannot lower it
        catalog = ObjectCatalog.from_sizes({0: 5, 1: 5, 2: 5}, {0: 50, 1: 50, 2: 50})
        cache = make_cache(catalog, 10)
        state = GdsState()
        for batch in ([0], [1], [2]):
            _, decisions = gds_lazy_apply(state, cache, batch)
            for d in decisions:
                apply(cache, d)
        assert cache.resident == {1, 2} and state.inflation == 10.0
        apply(cache, Evict(1))
        apply(cache, Load(0))
        _, decisions = gds_lazy_apply(state, cache, [1])
        assert decisions == [Evict(0), Load(1)]
        assert state.inflation == 10.0
        assert state.credit == {1: 20.0, 2: 20.0}

    def test_another_cache_with_equal_moves_still_syncs(self, small_catalog):
        # The move count alone does not name a resident set: a second cache
        # that made as many moves to reach other residents must be synced.
        first, second = make_cache(small_catalog, 100, [0]), make_cache(small_catalog, 100, [1])
        assert first.moves == second.moves == 1
        state, _ = gds_lazy_apply(GdsState(), first, [])
        assert state.credit.keys() == {0}
        gds_lazy_apply(state, second, [])
        assert state.credit.keys() == {1}
        _, decisions = gds_lazy_apply(state, second, [3])
        assert decisions == [Load(3)]
        assert state.credit.keys() == {1, 3}

    def test_unapplied_decisions_force_the_sync(self, small_catalog):
        # Decisions the caller drops leave the cache short of the count the
        # state expects, so the next call walks the residents again.
        cache = make_cache(small_catalog, 100, [0])
        state, decisions = gds_lazy_apply(GdsState(), cache, [3])
        assert decisions == [Load(3)]
        gds_lazy_apply(state, cache, [])
        assert state.credit.keys() == {0}

    def test_failed_batch_forces_the_sync(self, small_catalog):
        # A batch that stops at an unknown object has already evicted 0 from
        # the credits; no decision came back, so the next call walks again.
        cache = make_cache(small_catalog, 30, [0])
        state, _ = gds_lazy_apply(GdsState(), cache, [])
        with pytest.raises(UnknownObject):
            gds_lazy_apply(state, cache, [2, 99])
        assert state.credit.keys() == {2}
        gds_lazy_apply(state, cache, [])
        assert state.credit.keys() == {0}

    def test_oversized_candidate_skipped(self, small_catalog):
        cache = make_cache(small_catalog, 25, [0])   # object 2 has size 30
        state, decisions = gds_lazy_apply(GdsState(credit={0: 1.0}), cache, [2])
        assert decisions == []
        assert cache.resident == {0}

    def test_net_state_matches_eager_final_residency(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(2, 8)
            catalog = ObjectCatalog.from_sizes(
                {i: rng.randint(1, 10) for i in range(n)},
                {i: rng.randint(1, 20) for i in range(n)})
            capacity = rng.randint(5, 30)
            resident = [o for o in range(n)
                        if rng.random() < 0.4 and catalog.entries[o].size <= capacity]
            resident = [o for o in resident
                        if sum(catalog.entries[x].size for x in resident[:resident.index(o) + 1])
                        <= capacity]
            cache = make_cache(catalog, capacity, resident)
            # some residents have no credit (they start at the inflation),
            # and one non-resident object may hold a stale credit
            credits = {o: rng.uniform(0, 3) for o in resident if rng.random() < 0.8}
            inflation = min(credits.values(), default=0.0)
            missing = [o for o in range(n) if o not in cache.resident]
            rng.shuffle(missing)
            if missing and rng.random() < 0.5:
                credits[rng.choice(missing)] = rng.uniform(0, 3)
            batch = missing[:rng.randint(0, len(missing))]
            _, final, final_credit, final_inflation = eager_gds_trace(
                catalog, capacity, cache.resident, credits, inflation, batch)
            given = GdsState(inflation, dict(credits))
            state, decisions = gds_lazy_apply(given, cache, batch)
            got = set(cache.resident)
            for d in decisions:
                got.discard(d.oid) if isinstance(d, Evict) else got.add(d.oid)
            assert got == final
            assert state is given
            assert state.credit == final_credit
            assert state.inflation == final_inflation

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_no_intra_batch_churn(self, data):
        n = data.draw(st.integers(1, 6))
        sizes = {i: data.draw(st.integers(1, 9)) for i in range(n)}
        catalog = ObjectCatalog.from_sizes(sizes)
        capacity = data.draw(st.integers(1, 25))
        resident = []
        used = 0
        for o in range(n):
            if data.draw(st.booleans()) and used + sizes[o] <= capacity:
                resident.append(o)
                used += sizes[o]
        cache = make_cache(catalog, capacity, resident)
        credits = {o: data.draw(st.floats(0, 5, allow_nan=False)) for o in resident}
        missing = [o for o in range(n) if o not in cache.resident]
        batch = data.draw(st.permutations(missing))
        state, decisions = gds_lazy_apply(
            GdsState(0.0, credits), cache, list(batch))
        loaded = {d.oid for d in decisions if isinstance(d, Load)}
        evicted = {d.oid for d in decisions if isinstance(d, Evict)}
        assert not (loaded & evicted)
        # decisions replay legally: evictions first, loads after, capacity kept
        for d in decisions:
            from midcache.core import apply
            apply(cache, d)
        assert cache.used <= cache.capacity


def drive_chained_batches(draw, n_batches: int) -> Counter:
    """Run one persistent GdsState through `n_batches` candidacy batches and
    check each against the eager oracle, chained from the oracle's previous
    result. Between batches the decisions are applied, and sometimes an
    outside Load, Evict or `seed_resident` changes the cache behind the load
    manager's back. `draw(lo, hi)` supplies every choice. Counts how often
    the victim heap was rebuilt ("rebuilds") and how each call stood to the
    resident set: "fresh" (the state's first call), "skipped" (its cache and
    move count match, so it skips its walk: no outside change came between,
    and the credits already are the residents) or "forced" (an outside
    change came between, and the counts say so)."""
    n = draw(2, 10)
    catalog = ObjectCatalog.from_sizes({i: draw(1, 9) for i in range(n)},
                                       {i: draw(1, 60) for i in range(n)})
    capacity = draw(5, 30)
    cache = make_cache(catalog, capacity)
    state = GdsState()
    credits: dict[int, float] = {}
    inflation = 0.0
    counts, moved_outside = Counter(), False
    for _ in range(n_batches):
        missing = [o for o in range(n) if o not in cache.resident]
        batch = []
        while missing and draw(0, 3):
            batch.append(missing.pop(draw(0, len(missing) - 1)))
        start = set(cache.resident)
        actions, final, credits, inflation = eager_gds_trace(
            catalog, capacity, start, credits, inflation, batch)
        heap = state.heap
        if state.synced_cache is None:
            counts["fresh"] += 1
        elif state.synced_cache is cache and state.synced_moves == cache.moves:
            assert not moved_outside and state.credit.keys() == cache.resident
            counts["skipped"] += 1
        else:
            assert moved_outside
            counts["forced"] += 1
        _, decisions = gds_lazy_apply(state, cache, batch)
        counts["rebuilds"] += state.heap is not heap
        assert decisions == ([Evict(o) for a, o in actions if a == "evict" and o in start]
                             + [Load(o) for a, o in actions if a == "load" and o in final])
        assert state.credit == credits
        assert state.inflation == inflation
        for d in decisions:
            apply(cache, d)
        assert cache.resident == final
        outside, moved_outside = draw(0, 3), False
        if outside == 1 and cache.resident:
            resident = sorted(cache.resident)
            apply(cache, Evict(resident[draw(0, len(resident) - 1)]))
            moved_outside = True
        elif outside >= 2:
            fits = [o for o in range(n) if o not in cache.resident
                    and catalog.entries[o].size <= cache.capacity - cache.used]
            if fits:
                oid = fits[draw(0, len(fits) - 1)]
                if outside == 2:
                    apply(cache, Load(oid))
                else:
                    cache.seed_resident([oid])
                moved_outside = True
    return counts


class TestChainedBatches:
    """One GdsState across many batches, past heap rebuilds, against the
    eager oracle: the heap must pick the same victims as a full scan."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_chained_eager_oracle(self, data):
        drive_chained_batches(lambda lo, hi: data.draw(st.integers(lo, hi)), 60)

    def test_seeded_runs_rebuild_the_heap(self):
        counts = Counter()
        for seed in range(30):
            rng = random.Random(seed)
            counts += drive_chained_batches(rng.randint, 200)
        assert counts["rebuilds"] > 0
        # Batches with nothing in between skip the walk; an outside apply or
        # seed_resident forces it.
        assert counts["fresh"] == 30
        assert counts["skipped"] > 0 and counts["forced"] > 0
