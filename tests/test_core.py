import dataclasses
import inspect
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from midcache.core import (MAX_BYTES, AnswerFromCache, CacheError, CacheState,
                           CapacityExceeded, Evict, Load,
                           NonResident,
                           NotOutstanding, ObjectCatalog, ObjectInfo, Query, ShipQuery,
                           ShipUpdates, Trace, TrafficLedger, UnknownObject, Update, apply,
                           check_capacity, check_freshness,
                           interacting_updates, record, shuffle)
from tests.conftest import GB, SEC, mk_query, mk_update
from tests.oracles import event_fields_ok, loop_check_freshness, loop_interacting_updates


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
    """`record` adds the bytes a decision moved to that decision's bucket."""

    def test_ship_query_bucket(self):
        ledger = TrafficLedger()
        record(ledger, ShipQuery(3), 15 * GB, seq=1)
        assert ledger.snapshot() == (15 * GB, 0, 0)

    def test_ship_updates_bucket(self):
        ledger = TrafficLedger()
        record(ledger, ShipUpdates((1, 2)), 1 * GB, seq=2)
        assert ledger.snapshot() == (0, 1 * GB, 0)

    def test_load_bucket_uses_catalog(self):
        # The load bucket takes the catalog's load cost, which `apply`
        # returns, not the object's size.
        catalog = ObjectCatalog.from_sizes({1: 10 * GB}, {1: 3 * GB})
        ledger = TrafficLedger()
        record(ledger, Load(1), apply(make_cache(catalog, 10 * GB), Load(1)), seq=3)
        assert ledger.snapshot() == (0, 0, 3 * GB)

    @given(st.lists(st.tuples(st.sampled_from(["q", "u", "l", "a", "e"]),
                              st.integers(0, 10**6)), max_size=30))
    def test_ledger_conservation(self, ops):
        kinds = {"q": ShipQuery, "u": lambda i: ShipUpdates((i,)), "l": Load,
                 "a": AnswerFromCache, "e": Evict}
        ledger = TrafficLedger()
        moved = {"q": 0, "u": 0, "l": 0}
        for i, (kind, amount) in enumerate(ops):
            if kind not in moved:   # AnswerFromCache and Evict move no bytes
                amount = 0
            else:
                moved[kind] += amount
            record(ledger, kinds[kind](i), amount, seq=i)
        assert ledger.snapshot() == (moved["q"], moved["u"], moved["l"])
        assert ledger.total == sum(moved.values())


class TestApply:
    def test_returns_the_bytes_it_moves(self):
        catalog = ObjectCatalog.from_sizes({0: 10, 1: 20}, {0: 7, 1: 50})
        cache = make_cache(catalog, 30, [0])
        for uid, cost in ((1, 4), (2, 5), (3, 6)):
            cache.receive_update(mk_update(uid, uid, 0, cost))
        assert apply(cache, ShipUpdates((3, 1))) == 10
        assert apply(cache, Load(1)) == 50          # load cost, not size 20
        assert apply(cache, ShipQuery(9)) == apply(cache, AnswerFromCache(9)) == 0
        assert apply(cache, Evict(0)) == 0          # drops update 2 unshipped
        assert apply(cache, Load(0)) == 7

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
        assert 0 in cache.resident and 0 in cache.outstanding
        apply(cache, ShipUpdates((1, 2)))
        assert 0 in cache.resident and 0 not in cache.outstanding
        check_freshness(cache)

    def test_partial_ship_keeps_stale(self, small_catalog):
        cache = make_cache(small_catalog, 100, [0])
        for uid in (1, 2):
            cache.receive_update(mk_update(uid, uid, 0, 1))
        apply(cache, ShipUpdates((1,)))
        assert 0 in cache.resident and 0 in cache.outstanding

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
            assert 0 in cache.resident and 0 not in cache.outstanding
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
        assert 2 not in cache.outstanding
        check_freshness(cache)


class TestAccounting:
    def test_seed_resident_skips_duplicate_ids(self, small_catalog):
        cache = make_cache(small_catalog, 100, [0, 0])
        assert cache.used == small_catalog.entries[0].size
        assert cache.moves == 1
        cache.seed_resident([0, 1])
        assert cache.used == small_catalog.entries[0].size + small_catalog.entries[1].size
        assert cache.moves == 2   # one per object added; 0 was resident already

    def test_seed_resident_is_all_or_nothing(self):
        catalog = ObjectCatalog.from_sizes({0: 3, 1: 4})
        cache = CacheState(5, catalog)
        with pytest.raises(CapacityExceeded):
            cache.seed_resident([0, 1])
        with pytest.raises(UnknownObject):
            cache.seed_resident([0, 99])
        assert cache.resident == set()
        assert cache.used == 0
        assert cache.moves == 0

    @pytest.mark.parametrize("decision, error", [
        (Load(0), CacheError),           # already resident
        (Evict(1), NonResident),         # not resident
        (Load(99), UnknownObject),
        (Evict(99), NonResident),        # unknown, so not resident either
        (Load(3), CapacityExceeded),     # 40 B against 30 B free
    ])
    def test_refused_load_or_evict_moves_nothing(self, small_catalog, decision, error):
        cache = make_cache(small_catalog, 40, [0])
        with pytest.raises(error):
            apply(cache, decision)
        assert cache.moves == 1
        assert cache.resident == {0}

    @given(st.data())
    def test_counter_and_freshness_track_every_step(self, data):
        catalog = ObjectCatalog.from_sizes({0: 10, 1: 20, 2: 30, 3: 40, 4: 50})
        cache = make_cache(catalog, data.draw(st.integers(0, 150)))
        uid, moves = 0, 0
        for _ in range(data.draw(st.integers(0, 40))):
            kind = data.draw(st.sampled_from(["update", "load", "evict", "ship"]))
            if kind == "update":
                uid += 1
                cache.receive_update(mk_update(uid, uid, data.draw(st.integers(0, 4)), 1))
            elif kind == "load":
                fits = [o for o in catalog.ids() if o not in cache.resident
                        and catalog.entries[o].size <= cache.capacity - cache.used]
                if fits:
                    apply(cache, Load(data.draw(st.sampled_from(fits))))
                    moves += 1
            elif kind == "evict" and cache.resident:
                apply(cache, Evict(data.draw(st.sampled_from(sorted(cache.resident)))))
                moves += 1
            elif kind == "ship":
                queued = sorted(u.uid for q in cache.outstanding.values() for u in q)
                if queued:
                    picked = data.draw(st.lists(st.sampled_from(queued), min_size=1,
                                                unique=True))
                    apply(cache, ShipUpdates(tuple(picked)))
            assert cache.used == sum(catalog.entries[o].size for o in cache.resident)
            assert cache.moves == moves   # updates and ShipUpdates move nothing
            for o in cache.resident:
                assert (o not in cache.outstanding) == (not cache.outstanding.get(o))
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


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestFastPaths:
    """The set-level shortcuts in `interacting_updates` and `check_freshness`
    return or raise exactly what the plain per-object loops do."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_result_or_same_error_as_the_loops(self, data):
        catalog = ObjectCatalog.from_sizes({i: 10 for i in range(6)})
        objects = st.integers(0, 5)
        cache = make_cache(catalog, 60, data.draw(st.sets(objects)))
        uid = 0
        for _ in range(data.draw(st.integers(0, 10))):
            uid += 1
            cache.receive_update(mk_update(uid, data.draw(st.integers(0, 50)),
                                           data.draw(objects), 1))
        # corrupt states the audit must catch: a queue on a non-resident
        # object, and an empty queue, both made by direct mutation
        for oid in data.draw(st.sets(objects, max_size=2)):
            uid += 1
            cache.outstanding[oid] = [mk_update(uid, 0, oid, 1)]
        for oid in data.draw(st.sets(objects, max_size=2)):
            cache.outstanding[oid] = []
        assert outcome(check_freshness, cache) == outcome(loop_check_freshness, cache)
        q = mk_query(99, data.draw(st.integers(0, 60)),
                     data.draw(st.sets(objects, min_size=1)), 5,
                     tol=data.draw(st.integers(0, 30)))
        assert (outcome(interacting_updates, q, cache, q.time)
                == outcome(loop_interacting_updates, q, cache, q.time))

    def test_fresh_resident_query_takes_no_updates(self, small_catalog):
        cache = make_cache(small_catalog, 100, [0, 1])
        cache.receive_update(mk_update(1, 1, 1, 1))
        assert interacting_updates(mk_query(2, 5, {0}, 1), cache, 5) == []
        assert interacting_updates(mk_query(3, 5, {0, 1}, 1), cache, 5) == [
            cache.outstanding[1][0]]
        check_freshness(cache)


class Flag(int):
    """An int subclass: equal to an int, but not of type `int` exactly."""


class TestEventFields:
    """`Query` and `Update` refuse to be built with a field that breaks the
    trace contract, so no caller can replay one."""

    ODD = st.one_of(st.integers(-3, -1), st.booleans(), st.floats(), st.text(max_size=2))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_built_exactly_when_the_oracle_accepts(self, data):
        # Up to two fields take odd values (a negative int, a bool, a float
        # or a string); every other field is a small non-negative int.
        if data.draw(st.booleans(), label="query"):
            kind, names = Query, ("qid", "time", "ship_cost", "tolerance", "seq", "objects")
        else:
            kind, names = Update, ("uid", "time", "object", "ship_cost", "seq")
        odd = data.draw(st.sets(st.sampled_from(names), max_size=2), label="odd fields")

        def value(name):
            return data.draw(self.ODD if name in odd else st.integers(0, 9), label=name)

        fields = {name: value(name) for name in names if name != "objects"}
        if kind is Query:
            ids = [value("objects") for _ in range(data.draw(st.integers(0, 3)))]
            container = data.draw(st.sampled_from([frozenset] * 5 + [set]), label="container")
            fields["objects"] = container(ids)
        if event_fields_ok(fields):
            assert dataclasses.asdict(kind(**fields)) == fields
        else:
            with pytest.raises(ValueError):
                kind(**fields)

    @pytest.mark.parametrize("build, message", [
        (lambda: Query(qid=1, time=5, objects=frozenset({0}), ship_cost=1.5, seq=1),
         "query record has a non-integer field"),
        (lambda: Update(uid=2, time=3, object=0, ship_cost=-3, seq=2),
         "update 2 has negative cost -3"),
        (lambda: Query(qid=3, time=1, objects=frozenset({0}), ship_cost=-7, tolerance=-1,
                       seq=3),
         "query 3 has negative cost -7"),
    ], ids=["float-cost", "negative-update-cost", "negative-query-cost"])
    def test_run_contract_example_fails_when_built(self, build, message):
        # Each event of a list that run() used to replay to a ledger total
        # of -5.5 B now fails on its own, before any run.
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    @pytest.mark.parametrize("fields, message", [
        ({"objects": frozenset()}, "query 2 accesses no objects"),
        ({"objects": {0}}, "query 2: objects must be a frozenset, not set"),
        ({"objects": frozenset({0, "1"})}, "query record has a non-integer field"),
        ({"objects": frozenset({0, True})}, "query record has a non-integer field"),
        ({"objects": frozenset({0, Flag(1)})}, "query record has a non-integer field"),
        ({"qid": True}, "query record has a non-integer field"),
        ({"tolerance": -1}, "query 2 has negative tolerance"),
    ], ids=["no-objects", "set", "string-object-id", "bool-object-id", "int-subclass-object-id",
            "bool-id", "negative-tolerance"])
    def test_query_rejected_when_built(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Query(**{"qid": 2, "time": 2, "objects": frozenset({0}), "ship_cost": 7,
                     "seq": 4, **fields})

    def test_zero_costs_and_tolerance_are_valid(self):
        assert Query(qid=1, time=0, objects=frozenset({0}), ship_cost=0).tolerance == 0
        assert Update(uid=1, time=0, object=0, ship_cost=0).ship_cost == 0

    def test_largest_cost_is_valid(self):
        assert MAX_BYTES == 2**53 - 1
        query = Query(qid=1, time=0, objects=frozenset({0}), ship_cost=MAX_BYTES)
        assert query.ship_cost == Update(uid=1, time=0, object=0, ship_cost=MAX_BYTES).ship_cost

    @pytest.mark.parametrize("cost", [2**53, 10**400], ids=["2**53", "10**400"])
    def test_cost_above_the_bound_rejected_when_built(self, cost):
        # Costs feed float arithmetic, which holds an int exactly only up to
        # 2**53 and overflows past about 1.8e308.
        query = {"qid": 2, "time": 2, "objects": frozenset({0}), "ship_cost": cost, "seq": 4}
        assert not event_fields_ok(query)
        with pytest.raises(ValueError, match=r"^query 2 has cost above 9007199254740991$"):
            Query(**query)
        with pytest.raises(ValueError, match=r"^update 3 has cost above 9007199254740991$"):
            Update(uid=3, time=2, object=0, ship_cost=cost, seq=4)
        with pytest.raises(ValueError, match="^query 2 has cost above "):
            Query(**query, tolerance=-1)      # the cost rule comes before the tolerance one


def dataclass_twin(cls):
    """What plain `dataclass(frozen=True, slots=True)` makes of `cls`'s fields,
    with no `__post_init__`."""
    return dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type, dataclasses.field(default=f.default))
                       for f in dataclasses.fields(cls)], frozen=True, slots=True)


VALUES = {ObjectInfo: (5, 7), Update: (2, 3, 0, 4, 2), Query: (1, 1, frozenset({0, 2}), 5, 3, 1),
          ShipQuery: (1,), ShipUpdates: ((2, 4),), AnswerFromCache: (1,), Load: (3,),
          Evict: (3,)}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
class TestGeneratedInit:
    """`_value` swaps the dataclass `__init__` for one that sets the slots
    directly; callers cannot tell the two apart."""

    def test_signature_is_the_dataclass_one(self, cls):
        twin = dataclass_twin(cls).__init__
        assert inspect.signature(cls.__init__) == inspect.signature(twin)
        assert cls.__init__.__annotations__ == twin.__annotations__
        assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
        assert cls.__init__.__module__ == cls.__module__

    def test_keyword_positional_and_default_calls_agree(self, cls):
        args = VALUES[cls]
        fields = dataclasses.fields(cls)
        value = cls(*args)
        assert tuple(getattr(value, f.name) for f in fields) == args
        assert cls(**{f.name: a for f, a in zip(fields, args)}) == value
        required = [f for f in fields if f.default is dataclasses.MISSING]
        assert (cls(*args[:len(required)])
                == cls(*args[:len(required)], *(f.default for f in fields[len(required):])))

    def test_type_errors_read_as_the_dataclass_ones(self, cls):
        args, first = VALUES[cls], dataclasses.fields(cls)[0].name
        twin = dataclass_twin(cls)

        def message(build):
            with pytest.raises(TypeError) as exc:
                build()
            return str(exc.value)

        for call in (lambda c: c(), lambda c: c(*args, 9), lambda c: c(*args, note=1),
                     lambda c: c(*args, **{first: args[0]})):
            assert message(lambda: call(cls)) == message(lambda: call(twin))


@pytest.mark.parametrize("call", [lambda: Trace(), lambda: Trace((), frozenset()),
                                  lambda: Trace(events=(), object_ids=frozenset())])
def test_trace_keeps_its_refusing_init(call):
    with pytest.raises(TypeError, match=r"^build a Trace with Trace\.of\(catalog, events\)$"):
        call()


class TestSlottedValues:
    """Events, decisions and catalog entries are slotted frozen dataclasses:
    no per-instance `__dict__`, and the same repr, equality, hashing,
    immutability, `replace`, `asdict` and pickling as before."""

    @pytest.mark.parametrize("value, text", [
        (ObjectInfo(size=5, load_cost=7), "ObjectInfo(size=5, load_cost=7)"),
        (Update(uid=2, time=3, object=0, ship_cost=4, seq=2),
         "Update(uid=2, time=3, object=0, ship_cost=4, seq=2)"),
        (Query(qid=1, time=1, objects=frozenset({0, 2}), ship_cost=5, tolerance=3, seq=1),
         "Query(qid=1, time=1, objects=frozenset({0, 2}), ship_cost=5, tolerance=3, seq=1)"),
        (ShipQuery(1), "ShipQuery(qid=1)"),
        (ShipUpdates((2, 4)), "ShipUpdates(uids=(2, 4))"),
        (AnswerFromCache(1), "AnswerFromCache(qid=1)"),
        (Load(3), "Load(oid=3)"),
        (Evict(3), "Evict(oid=3)"),
    ], ids=["ObjectInfo", "Update", "Query", "ShipQuery", "ShipUpdates", "AnswerFromCache",
            "Load", "Evict"])
    def test_value_semantics_without_a_dict(self, value, text):
        assert not hasattr(value, "__dict__")
        assert repr(value) == text
        twin = dataclasses.replace(value)
        assert twin is not value and twin == value and hash(twin) == hash(value)
        assert pickle.loads(pickle.dumps(value)) == value
        first = dataclasses.fields(value)[0].name
        assert dataclasses.asdict(value)[first] == getattr(value, first)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, first, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, first)

    @pytest.mark.parametrize("value", [
        ObjectInfo(size=5, load_cost=7), Update(uid=2, time=3, object=0, ship_cost=4, seq=2),
        Query(qid=1, time=1, objects=frozenset({0, 2}), ship_cost=5, seq=1), ShipQuery(1),
        ShipUpdates((2, 4)), AnswerFromCache(1), Load(3), Evict(3),
        Trace.of(ObjectCatalog.from_sizes({0: 1}),
                 [Update(uid=1, time=1, object=0, ship_cost=1, seq=1)]),
    ], ids=lambda value: type(value).__name__)
    def test_any_attribute_write_raises_frozen_instance_error(self, value):
        # A name that is not a field too: `slots=True` once left it a TypeError.
        first = dataclasses.fields(value)[0].name
        kept = getattr(value, first)
        for name in (first, "note"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 2)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        assert getattr(value, first) is kept and not hasattr(value, "note")


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 + 5, 2**64 - 1])
def test_shuffle_is_random_shuffle(seed):
    # The same list and the same stream state as Random.shuffle, at every
    # length up to 64 and at 20,000 (a generator's event order), with one
    # stream running on through all of them.
    rng, expected_rng = random.Random(seed), random.Random(seed)
    for n in [*range(65), 20_000]:
        items, expected = list(range(n)), list(range(n))
        shuffle(items, rng)
        expected_rng.shuffle(expected)
        assert items == expected, n
        assert rng.getstate() == expected_rng.getstate(), n
