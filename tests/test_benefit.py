import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from midcache import benefit
from midcache.benefit import (BenefitPolicy, check_window, fill, greedy_recompose,
                              proportional_shares, smooth)
from midcache.core import (AnswerFromCache, CacheState, Evict, Load,
                           ObjectCatalog, Query, ShipQuery, ShipUpdates, apply)
from midcache.simharness import RunConfig, run
from midcache.workload import GeneratorParams, generate
from midcache.yardsticks import plan_static_set
from tests.conftest import mk_query, mk_update
from tests.oracles import largest_remainder_shares, windowed_benefit_log


def make_policy(catalog, capacity, alpha=0.5, delta=1000, resident=()):
    cache = CacheState(capacity, catalog)
    cache.seed_resident(resident)
    return BenefitPolicy(cache, alpha=alpha, delta=delta), cache


def drive(policy, cache, ev):
    if hasattr(ev, "uid"):
        cache.receive_update(ev)
        decisions = policy.on_update(ev)
    else:
        decisions = policy.on_query(ev)
    for d in decisions:
        apply(cache, d)
    return decisions


class TestCheckWindow:
    @pytest.mark.parametrize("name,alpha,delta", [
        ("alpha", True, 10), ("alpha", False, 10), ("alpha", "0.5", 10), ("alpha", None, 10),
        ("alpha", 1.5, 10), ("alpha", -0.1, 10), ("alpha", float("nan"), 10),
        ("delta", 0.5, True), ("delta", 0.5, 2.5), ("delta", 0.5, 10.0), ("delta", 0.5, "10"),
        ("delta", 0.5, 0),
    ])
    def test_bad_window_raises_naming_the_field(self, name, alpha, delta):
        # a bool is not a number here, and delta counts events, so it is an int
        value = {"alpha": alpha, "delta": delta}[name]
        catalog = ObjectCatalog.from_sizes({0: 5})
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {re.escape(repr(value))}$"):
            check_window(alpha, delta)
        with pytest.raises(ValueError, match=f"^{name} must be "):
            make_policy(catalog, 5, alpha=alpha, delta=delta)
        with pytest.raises(ValueError, match=f"^{name} must be "):
            run([mk_query(1, 1, {0}, 3)], catalog, RunConfig(
                policy="benefit", seed=0, params={"alpha": alpha, "delta": delta}))

    @pytest.mark.parametrize("alpha", [0, 1, 0.0, 1.0, 0.25, Fraction(1, 3)])
    def test_real_alpha_in_range_accepted(self, alpha):
        check_window(alpha, 1)


class TestShares:
    def test_proportional_split(self):
        assert proportional_shares(10, [(0, 3), (1, 7)]) == {0: 3, 1: 7}

    @given(st.integers(0, 10**9),
           st.lists(st.integers(1, 10**6), min_size=1, max_size=6))
    def test_shares_conserve_exactly(self, amount, sizes):
        parts = proportional_shares(amount, list(enumerate(sizes)))
        assert sum(parts.values()) == amount
        assert all(v >= 0 for v in parts.values())

    def test_near_tie_goes_to_the_larger_exact_remainder(self):
        # remainders 655196 and 655217 out of 1310413: the leftover unit goes
        # to object 1, although the float fractions of the two exact shares
        # order the other way
        assert proportional_shares(405962878855, [(0, 481620), (1, 828793)]) == {
            0: 149204748208, 1: 256758130647}

    @given(st.integers(0, 10**12),
           st.lists(st.integers(1, 10**6), min_size=1, max_size=6))
    def test_matches_rational_largest_remainder(self, amount, sizes):
        pairs = list(enumerate(sizes))
        assert proportional_shares(amount, pairs) == largest_remainder_shares(amount, pairs)

    @given(st.integers(0, 10**13),
           st.lists(st.integers(1, 10**12), min_size=1, max_size=6), st.randoms())
    def test_any_pair_order_matches_rational_largest_remainder(self, amount, sizes, rng):
        # ids are shuffled, so the tie rule cannot lean on the input order;
        # the result keeps the input's key order
        pairs = list(zip(rng.sample(range(100), len(sizes)), sizes))
        shares = proportional_shares(amount, pairs)
        assert shares == largest_remainder_shares(amount, pairs)
        assert list(shares) == [oid for oid, _ in pairs]

    @given(st.integers(0, 10**13), st.integers(0, 10**6), st.integers(1, 10**12))
    def test_one_object_takes_the_whole_amount(self, amount, oid, size):
        assert proportional_shares(amount, [(oid, size)]) == {oid: amount}


class TestSplits:
    @given(st.data())
    def test_policy_accrual_matches_fresh_splits(self, data):
        # a few object sets repeat with fresh costs (zero included), small
        # sizes give equal-size ties, and before every query a random subset
        # is made resident: a query that ships credits only its missing
        # objects, one answered at the cache credits them all
        n = data.draw(st.integers(1, 6))
        catalog = ObjectCatalog.from_sizes({i: data.draw(st.integers(1, 4)) for i in range(n)})
        oids = st.integers(0, n - 1)
        object_sets = data.draw(st.lists(st.frozensets(oids, min_size=1), min_size=1, max_size=4))
        costs = st.one_of(st.integers(0, 3), st.integers(0, 10**9))
        policy, cache = make_policy(catalog, catalog.total_size)
        expect = {}
        for i in range(1, data.draw(st.integers(1, 40)) + 1):
            objects, cost = data.draw(st.sampled_from(object_sets)), data.draw(costs)
            resident = data.draw(st.frozensets(oids))
            for oid in sorted(cache.resident - resident):
                apply(cache, Evict(oid))
            for oid in sorted(resident - cache.resident):
                apply(cache, Load(oid))
            q = mk_query(i, i, list(objects), cost)   # an equal set, not the same object
            policy.on_query(q)
            fresh = proportional_shares(cost, [(o, catalog.entries[o].size)
                                               for o in sorted(objects)])
            assert policy.splits[(q.objects, cost)] == tuple(fresh.items())
            for oid, share in fresh.items():
                if objects <= resident or oid not in resident:
                    expect[oid] = expect.get(oid, 0) + share
        assert policy.saved == expect

    @staticmethod
    def count_splits(monkeypatch):
        calls = []

        def counting(amount, sizes):
            calls.append(amount)
            return proportional_shares(amount, sizes)

        monkeypatch.setattr(benefit, "proportional_shares", counting)
        return calls

    @staticmethod
    def repeating_trace():
        """A trace whose queries repeat (object set, cost) pairs, and the
        number of distinct pairs."""
        catalog, events = generate(GeneratorParams(
            n_objects=8, n_queries=60, n_updates=60, query_hotspots=(1, 5),
            update_hotspots=(2, 6), selectivity=0.2), seed=3)
        pairs = {(ev.objects, ev.ship_cost) for ev in events if isinstance(ev, Query)}
        assert len(pairs) < sum(isinstance(ev, Query) for ev in events)
        return catalog, events, len(pairs)

    # Each check runs twice in one process: splits kept across runs would
    # split nothing the second time.

    def test_one_split_per_distinct_pair_per_run(self, monkeypatch):
        # many windows, so splits dropped at a roll would split pairs again
        catalog, events, n_pairs = self.repeating_trace()
        config = RunConfig(policy="benefit", seed=1, params={"delta": 10})
        expected = run(events, catalog, config).ledger
        calls = self.count_splits(monkeypatch)
        for _ in range(2):
            calls.clear()
            assert run(events, catalog, config).ledger == expected
            assert len(calls) == n_pairs

    def test_one_split_per_distinct_pair_per_plan(self, monkeypatch):
        catalog, events, n_pairs = self.repeating_trace()
        capacity = catalog.total_size // 2
        expected = plan_static_set(events, catalog, capacity)
        calls = self.count_splits(monkeypatch)
        for _ in range(2):
            calls.clear()
            assert plan_static_set(events, catalog, capacity) == expected
            assert len(calls) == n_pairs


class TestSmooth:
    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=20),
           st.floats(0.0, 1.0, allow_nan=False))
    def test_smoothing_matches_closed_form(self, bs, alpha):
        # independent oracle: the geometric closed form
        #   mu_n = alpha * sum_i (1-alpha)^(n-1-i) * b_i
        # agrees with the recursive update to within one ulp per step
        import math
        mu = {0: 0.0}
        magnitude = 1.0
        for n, b in enumerate(bs, start=1):
            smooth(mu, {0: b}, alpha)
            closed = alpha * sum((1.0 - alpha) ** (n - 1 - i) * bi
                                 for i, bi in enumerate(bs[:n]))
            # one rounding per arithmetic op per step on either side, anchored
            # at the largest intermediate magnitude (cancellation can leave
            # the result far smaller than the terms that produced it)
            magnitude = max(magnitude, abs(mu[0]), abs(closed), abs(b))
            assert abs(mu[0] - closed) <= 4 * n * math.ulp(magnitude)

    def test_alpha_one_tracks_last_window(self):
        mu = {0: 5.0}
        smooth(mu, {0: -3}, 1.0)
        assert mu[0] == -3.0

    def test_alpha_zero_freezes(self):
        mu = {0: 5.0}
        smooth(mu, {0: 100}, 0.0)
        assert mu[0] == 5.0


class TestRecompose:
    def test_top_two_fit(self):
        catalog = ObjectCatalog.from_sizes({0: 4, 1: 4, 2: 4})
        cache = CacheState(8, catalog)
        mu = {0: 5.0, 1: 3.0, 2: -1.0}
        selected = fill(mu, cache.capacity, catalog)
        assert selected == [0, 1]
        assert greedy_recompose(mu, cache) == [Load(0), Load(1)]
        # exhaustive check: no feasible positive-mu set has higher mu-sum
        best = max((mu[0] * (s & 1 > 0) + mu[1] * (s & 2 > 0) + mu[2] * (s & 4 > 0))
                   for s in range(8)
                   if sum(4 for i in range(3) if s & (1 << i)) <= 8)
        assert sum(mu[o] for o in selected) == best

    def test_skip_too_big_continue_down_ranking(self):
        catalog = ObjectCatalog.from_sizes({0: 10, 1: 3, 2: 3})
        cache = CacheState(6, catalog)
        mu = {0: 9.0, 1: 2.0, 2: 1.0}
        assert fill(mu, cache.capacity, catalog) == [1, 2]

    def test_resident_selection_not_reloaded(self):
        catalog = ObjectCatalog.from_sizes({0: 4, 1: 4})
        cache = CacheState(8, catalog)
        cache.seed_resident([0])
        mu = {0: 5.0, 1: 4.0}
        assert greedy_recompose(mu, cache) == [Load(1)]

    def test_unselected_resident_evicted(self):
        catalog = ObjectCatalog.from_sizes({0: 4, 1: 4})
        cache = CacheState(4, catalog)
        cache.seed_resident([0])
        mu = {0: 1.0, 1: 7.0}
        assert greedy_recompose(mu, cache) == [Evict(0), Load(1)]

    @given(st.data())
    def test_selection_is_fit_constrained_prefix(self, data):
        n = data.draw(st.integers(1, 6))
        catalog = ObjectCatalog.from_sizes(
            {i: data.draw(st.integers(1, 9)) for i in range(n)})
        capacity = data.draw(st.integers(1, 20))
        mu = {i: data.draw(st.floats(-5, 5, allow_nan=False)) for i in range(n)}
        selected = fill(mu, capacity, catalog)
        # reference skip-if-too-big greedy over the positive-mu ranking
        expect, space = [], capacity
        for o in sorted((o for o in mu if mu[o] > 0), key=lambda o: (-mu[o], o)):
            if catalog.entries[o].size <= space:
                expect.append(o)
                space -= catalog.entries[o].size
        assert selected == expect
        assert sum(catalog.entries[o].size for o in selected) <= capacity


class TestWindowAccounting:
    def test_five_event_window_matches_hand_ledger(self):
        # objects: 0 (size 6, resident), 1 (size 4, resident), 2 (size 10, out)
        catalog = ObjectCatalog.from_sizes({0: 6, 1: 4, 2: 10})
        policy, cache = make_policy(catalog, 10, alpha=1.0, delta=5, resident=[0, 1])
        drive(policy, cache, mk_query(1, 1, {0, 1}, 10))        # saved: 6/4
        drive(policy, cache, mk_update(2, 2, 0, 3))             # queued on 0
        drive(policy, cache, mk_query(3, 3, {0}, 5))            # ships u2 (3), saves 5
        drive(policy, cache, mk_update(4, 4, 2, 7))             # hypothetical for 2
        assert policy.saved == {0: 11, 1: 4}
        assert policy.update_cost == {0: 3, 2: 7}
        # 5th event closes the window; benefits: b0=11-3=8, b1=4, b2=-7-10=-17
        decisions = drive(policy, cache, mk_query(5, 5, {1}, 2))
        assert policy.mu == {0: 8.0, 1: 6.0, 2: -17.0}

    def test_hypothetical_share_for_missing_object(self):
        catalog = ObjectCatalog.from_sizes({0: 5, 1: 5})
        policy, cache = make_policy(catalog, 10, delta=100, resident=[0])
        drive(policy, cache, mk_query(1, 1, {0, 1}, 8))
        # shipped (object 1 missing): only the missing object accrues
        assert policy.saved == {1: 4}

    def test_negative_benefit_for_idle_missing_object(self):
        catalog = ObjectCatalog.from_sizes({0: 5, 1: 5})
        policy, cache = make_policy(catalog, 5, alpha=1.0, delta=2, resident=[0])
        drive(policy, cache, mk_update(1, 1, 1, 4))
        drive(policy, cache, mk_update(2, 2, 1, 4))   # window closes here
        assert policy.mu[1] == -(4 + 4 + 5)


class TestPolicyRouting:
    def test_resident_fresh_answers(self):
        catalog = ObjectCatalog.from_sizes({0: 5})
        policy, cache = make_policy(catalog, 10, resident=[0])
        assert drive(policy, cache, mk_query(1, 1, {0}, 3)) == [AnswerFromCache(1)]

    def test_resident_stale_ships_updates_then_answers(self):
        catalog = ObjectCatalog.from_sizes({0: 5})
        policy, cache = make_policy(catalog, 10, resident=[0])
        drive(policy, cache, mk_update(1, 1, 0, 2))
        decisions = drive(policy, cache, mk_query(2, 2, {0}, 30))
        assert decisions == [ShipUpdates((1,)), AnswerFromCache(2)]
        assert 0 in cache.resident and 0 not in cache.outstanding

    def test_missing_object_ships_query(self):
        catalog = ObjectCatalog.from_sizes({0: 5})
        policy, cache = make_policy(catalog, 10)
        assert drive(policy, cache, mk_query(1, 1, {0}, 3)) == [ShipQuery(1)]

    def test_reload_avoidance_across_windows(self):
        # object stays selected over consecutive windows: loaded exactly once
        catalog = ObjectCatalog.from_sizes({0: 5})
        policy, cache = make_policy(catalog, 5, alpha=1.0, delta=2)
        loads = 0
        for i in range(1, 9):
            for d in drive(policy, cache, mk_query(i, i, {0}, 100)):
                loads += isinstance(d, Load)
        assert 0 in cache.resident
        assert loads == 1


class TestWindowedOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_decision_log_matches_window_by_window_oracle(self, data):
        # Short windows (every golden uses delta=1000), alpha at both ends
        # and in between, repeated times and tolerances that leave young
        # updates queued, load costs apart from sizes, and capacities from
        # nothing to the whole catalog.
        n = data.draw(st.integers(1, 6), label="objects")
        catalog = ObjectCatalog.from_sizes(
            {o: data.draw(st.integers(1, 9)) for o in range(n)},
            {o: data.draw(st.integers(1, 40)) for o in range(n)})
        oid = st.integers(0, n - 1)
        object_sets = data.draw(st.lists(st.frozensets(oid, min_size=1), min_size=1,
                                         max_size=4), label="object sets")
        cost = st.one_of(st.integers(0, 40), st.integers(0, 10**10))
        step = st.tuples(st.integers(0, 3), st.one_of(
            st.tuples(st.sampled_from(object_sets), cost, st.integers(0, 4)),
            st.tuples(oid, cost)))
        events, time = [], 0
        for seq, (gap, ev) in enumerate(data.draw(st.lists(step, min_size=10, max_size=80),
                                                  label="events"), start=1):
            time += gap
            if len(ev) == 3:
                events.append(mk_query(seq, time, ev[0], ev[1], tol=ev[2]))
            else:
                events.append(mk_update(seq, time, *ev))
        capacity = data.draw(st.integers(0, catalog.total_size), label="capacity")
        delta = data.draw(st.one_of(st.integers(1, 8), st.integers(9, 50)), label="delta")
        alpha = data.draw(st.one_of(st.sampled_from([0, 0.5, 1]),
                                    st.floats(0.0, 1.0, allow_nan=False)), label="alpha")
        report = run(events, catalog, RunConfig(policy="benefit", seed=0, cache_bytes=capacity,
                                                params={"alpha": alpha, "delta": delta}))
        log = windowed_benefit_log(events, catalog, capacity, alpha, delta)
        # entry by entry, so a failure shows the first entry that differs and
        # no diff of two long logs
        for got, want in zip(report.decision_log, log):
            assert got == want
        assert len(report.decision_log) == len(log)
