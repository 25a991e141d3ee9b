import dataclasses
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from midcache import core, simharness
from midcache.core import (AnswerFromCache, Evict, Load, ObjectCatalog, Query, ShipQuery,
                           ShipUpdates, Trace)
from midcache.simharness import (POLICY_NAMES, AuditError, RunConfig, compare,
                                 replay_decisions, run)
from midcache.workload import (GeneratorParams, TraceError, generate,
                               load_trace, validate)
from tests.conftest import mk_query, mk_update


class TestRun:
    def test_empty_trace_zero_ledger(self, small_catalog):
        report = run([], small_catalog, RunConfig(policy="nocache", seed=0))
        assert report.ledger.total == 0
        assert report.series == []

    def test_nocache_equals_query_fold(self, small_catalog):
        events = [mk_query(1, 1, {0}, 7), mk_update(2, 2, 0, 3),
                  mk_query(3, 3, {1}, 5)]
        report = run(events, small_catalog, RunConfig(policy="nocache", seed=0))
        assert report.ledger.query_ship == 12
        assert report.ledger.total == 12

    def test_identical_config_byte_identical_reports(self):
        params = GeneratorParams(n_objects=8, n_queries=40, n_updates=40,
                                 query_hotspots=(1, 2), update_hotspots=(5, 6))
        catalog, events = generate(params, seed=3)
        for policy in ("vcover", "benefit", "soptimal"):
            config = RunConfig(policy=policy, seed=17, cache_frac=0.4,
                               sample_stride=10,
                               params={"delta": 20} if policy == "benefit" else {})
            a = run(events, catalog, config)
            b = run(events, catalog, config)
            assert a.summary_json() == b.summary_json()
            assert a.series_csv() == b.series_csv()
            assert a.decision_log == b.decision_log

    def test_warmup_view_subtracts_prefix(self, small_catalog):
        # The second input skips seq 5, as a blank trace line does: the
        # snapshot follows the last event with seq <= warmup_events.
        for seqs, warmup in ((range(1, 11), 4), ([1, 2, 3, 4, *range(6, 12)], 5)):
            events = [mk_query(i, i, {0}, 10, seq=s) for i, s in enumerate(seqs, 1)]
            report = run(events, small_catalog,
                         RunConfig(policy="nocache", seed=0, warmup_events=warmup))
            assert report.ledger.total == 100
            assert report.post_warmup["total"] == 60

    @pytest.mark.parametrize("seqs, sampled", [
        (range(1, 21), [10, 20]),                 # the last seq sampled once
        (range(1, 26), [10, 20, 25]),             # the last seq added
        ([*range(1, 20), 25, 31], [10, 31]),      # a gap skips seq 20
        ([], []),
    ], ids=["last-on-stride", "last-off-stride", "gap-over-stride", "empty"])
    def test_series_monotone_and_sampled(self, small_catalog, seqs, sampled):
        events = [mk_query(i, i, {0}, 5, seq=s) for i, s in enumerate(seqs, 1)]
        report = run(events, small_catalog,
                     RunConfig(policy="nocache", seed=0, sample_stride=10))
        assert [row[0] for row in report.series] == sampled
        totals = [row[4] for row in report.series]
        assert totals == sorted(totals)
        if events:
            assert report.series[-1][1:5] == (report.ledger.query_ship, 0, 0,
                                              report.ledger.total)


class TestConfig:
    """A RunConfig is checked once, when it is built, and cannot change
    afterwards; its params go to the policy constructor unchanged."""

    @pytest.mark.parametrize("bad", [
        {"policy": "bogus"}, {"cache_frac": 2}, {"cache_frac": 0.0}, {"cache_bytes": -1},
    ], ids=["policy", "cache_frac-above-1", "cache_frac-zero", "cache_bytes"])
    def test_bad_value_raises_at_construction(self, bad):
        with pytest.raises(ValueError):
            RunConfig(**{"policy": "vcover", "seed": 0, **bad})

    @pytest.mark.parametrize("name,value", [
        ("cache_bytes", 12.5), ("cache_bytes", True), ("cache_bytes", "5"),
        ("warmup_events", 1.0), ("warmup_events", False),
        ("sample_stride", 2.5), ("sample_stride", True),
    ])
    def test_byte_and_count_fields_must_be_ints(self, name, value):
        # As ObjectCatalog.from_sizes requires for its fields: no floats, no bools.
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {value!r}$"):
            RunConfig(policy="vcover", seed=0, **{name: value})

    @pytest.mark.parametrize("name,value", [
        ("seed", 1.5), ("seed", True), ("seed", "1"), ("seed", None),
        ("cache_frac", True), ("cache_frac", "0.3"), ("cache_frac", None),
    ])
    def test_seed_must_be_an_int_and_cache_frac_a_number(self, name, value):
        # seed is of type int exactly; cache_frac an int or float but not a
        # bool, checked even when cache_bytes is set, as summary() records it
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {re.escape(repr(value))}$"):
            RunConfig(**{"policy": "vcover", "seed": 0, name: value})
        if name == "cache_frac":
            with pytest.raises(ValueError, match="^cache_frac must be "):
                RunConfig(policy="vcover", seed=0, cache_bytes=10, cache_frac=value)

    @pytest.mark.parametrize("params", [None, [("mode", "lazy")], "mode", {1: 0}, {"a": 0, None: 1}],
                             ids=["none", "list", "str", "int-key", "none-key"])
    def test_params_must_be_a_dict_with_str_keys(self, params):
        # Each would otherwise build and fail at run() as a TypeError from
        # the policy call's ** unpacking.
        with pytest.raises(ValueError,
                           match=f"^params must be a dict with str keys, got {re.escape(repr(params))}$"):
            RunConfig(policy="nocache", seed=0, params=params)

    def test_fields_cannot_be_assigned(self):
        config = RunConfig(policy="vcover", seed=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.cache_frac = 2.0

    @pytest.mark.parametrize("policy,params", [
        ("benefit", {"alpah": 0.1}), ("vcover", {"mode": "lazy"}),
    ])
    def test_param_the_policy_does_not_take_raises(self, small_catalog, policy, params):
        events = [mk_query(1, 1, {0}, 5)]
        with pytest.raises(TypeError):
            run(events, small_catalog, RunConfig(policy=policy, seed=0, params=params))


class TestAudit:
    def test_stale_answer_aborts_with_event_index(self, small_catalog):
        class BrokenPolicy:
            def __init__(self, cache):
                self.cache = cache

            def startup(self):
                self.cache.seed_resident([0])
                return []

            def on_query(self, q):
                return [AnswerFromCache(q.qid)]   # ignores staleness

            def on_update(self, u):
                return []

        import midcache.simharness as sh
        orig = sh.make_policy
        sh.make_policy = lambda cfg, cache, events: BrokenPolicy(cache)
        try:
            events = [mk_update(1, 1, 0, 2, seq=1),
                      mk_query(2, 2, {0}, 5, seq=2)]
            with pytest.raises(AuditError) as exc:
                run(events, small_catalog, RunConfig(policy="nocache", seed=0))
            assert exc.value.seq == 2
        finally:
            sh.make_policy = orig

    def test_answer_with_missing_object_aborts_with_index(self, small_catalog):
        class BrokenPolicy:
            def startup(self):
                return []

            def on_query(self, q):
                return [AnswerFromCache(q.qid)]   # nothing is resident

            def on_update(self, u):
                return []

        import midcache.simharness as sh
        orig = sh.make_policy
        sh.make_policy = lambda cfg, cache, events: BrokenPolicy()
        try:
            events = [mk_query(1, 1, {0}, 5, seq=1)]
            with pytest.raises(AuditError) as exc:
                run(events, small_catalog, RunConfig(policy="nocache", seed=0))
            assert exc.value.seq == 1
        finally:
            sh.make_policy = orig

    def test_residency_changed_behind_apply_fails_the_run(self, small_catalog):
        class CorruptingPolicy:
            def __init__(self, cache):
                self.cache = cache

            def startup(self):
                return []

            def on_query(self, q):
                self.cache.resident.add(3)   # bypasses apply and its counter
                return [ShipQuery(q.qid)]

            def on_update(self, u):
                return []

        import midcache.simharness as sh
        orig = sh.make_policy
        sh.make_policy = lambda cfg, cache, events: CorruptingPolicy(cache)
        try:
            events = [mk_query(1, 1, {0}, 5, seq=1), mk_query(2, 2, {1}, 5, seq=2)]
            with pytest.raises(AuditError, match="capacity counter") as exc:
                run(events, small_catalog, RunConfig(policy="nocache", seed=0))
            assert exc.value.seq == 2
        finally:
            sh.make_policy = orig

    def test_recount_of_a_trusted_trace_names_its_last_event(self, small_catalog,
                                                             monkeypatch):
        # A Trace skips run()'s walk; the recount still names the last seq.
        class CorruptingPolicy:
            def __init__(self, cache):
                self.cache = cache

            def startup(self):
                return []

            def on_query(self, q):
                self.cache.resident.add(3)   # bypasses apply and its counter
                return [ShipQuery(q.qid)]

            def on_update(self, u):
                return []

        monkeypatch.setattr(simharness, "make_policy",
                            lambda cfg, cache, events: CorruptingPolicy(cache))
        trace = Trace.of(small_catalog, [mk_query(1, 1, {0}, 5, seq=3),
                                         mk_query(2, 2, {1}, 5, seq=7)])
        with pytest.raises(AuditError, match="capacity counter") as exc:
            run(trace, small_catalog, RunConfig(policy="nocache", seed=0))
        assert exc.value.seq == 7

    @staticmethod
    def grow(cache):
        cache.resident.add(1)   # 20 B, with the counter kept
        cache._used += 20

    @staticmethod
    def drop_queued(cache):
        cache.resident.discard(0)   # its update queue stays behind
        cache._used -= 10

    @staticmethod
    def rebind_queues(cache):
        cache.outstanding = {1: []}   # a new map, queueing for a non-resident object

    @pytest.mark.parametrize("script, tamper, seq, match", [
        ({1: [AnswerFromCache(2)]}, None, 1, r"AnswerFromCache\(2\) outside its query event"),
        ({2: [AnswerFromCache(3)]}, None, 2, r"AnswerFromCache\(3\) outside its query event"),
        ({2: [object()]}, None, 2, "unknown decision"),
        ({2: [ShipUpdates((1,))]}, None, 2, "update 1 is not outstanding"),
        ({2: [Load(0)], 3: [Load(1)]}, None, 3,
         r"loading object 1 \(20 B\) exceeds free space \(5 B\)"),
        ({}, (3, grow), 3, "resident objects hold 20 B, capacity counter 20 B, capacity 15 B"),
        ({2: [ShipUpdates(())]}, (2, grow), 2, "residency 20 exceeds capacity 15"),
        ({0: [Load(0)]}, (2, drop_queued), 2, "non-resident object 0 has an outstanding queue"),
        ({}, (2, rebind_queues), 2, "non-resident object 1 has an outstanding queue"),
        ({2: [AnswerFromCache(2)]}, None, 2,
         "^event 2: query 2 answered at cache: query 2: object 0 is not resident$"),
        # Query 2 tolerates update 1's age, so the answer passes; seq 3 then fails.
        ({0: [Load(0)], 2: [AnswerFromCache(2)], 3: [Load(1)]}, None, 3,
         r"loading object 1 \(20 B\) exceeds free space \(5 B\)"),
        ({2: [ShipQuery(3)]}, None, 2, r"ShipQuery\(3\) outside its query event"),
        ({1: [ShipQuery(2)]}, None, 1, r"ShipQuery\(2\) outside its query event"),
        ({2: [ShipQuery(2), ShipQuery(2)]}, None, 2, r"ShipQuery\(2\) outside its query event"),
    ], ids=["answer-from-update", "answer-names-another-query", "unknown-decision",
            "ship-update-not-outstanding", "load-past-capacity",
            "grown-behind-apply-empty-hook", "grown-behind-apply-then-applied",
            "queue-left-on-dropped-object", "queue-map-rebound", "answer-non-resident",
            "answer-within-tolerance", "ship-another-qid", "ship-from-update",
            "ship-twice"])
    def test_bad_decision_aborts_with_event_index(self, small_catalog, monkeypatch,
                                                  script, tamper, seq, match):
        class ScriptedPolicy:
            def __init__(self, cache):
                self.cache = cache

            def startup(self):
                return script.get(0, [])

            def on_event(self, ev):
                if tamper and ev.seq == tamper[0]:
                    tamper[1](self.cache)   # behind apply's back
                return script.get(ev.seq, [])

            on_query = on_update = on_event

        monkeypatch.setattr(simharness, "make_policy",
                            lambda cfg, cache, events: ScriptedPolicy(cache))
        events = [mk_update(1, 1, 0, 2, seq=1), mk_query(2, 2, {0}, 5, tol=2, seq=2),
                  mk_query(3, 3, {1}, 5, seq=3)]
        with pytest.raises(AuditError, match=match) as exc:
            run(events, small_catalog, RunConfig(policy="nocache", seed=0, cache_bytes=15))
        assert exc.value.seq == seq

    def test_answer_over_unqueued_residents_skips_interacting_updates(self, small_catalog,
                                                                       monkeypatch):
        class AnsweringPolicy:
            def startup(self):
                return [Load(0)]

            def on_query(self, q):
                return [AnswerFromCache(q.qid)]

            def on_update(self, u):
                return []

        called = []
        real = simharness.interacting_updates
        monkeypatch.setattr(simharness, "interacting_updates",
                            lambda q, cache, now: called.append(q.qid) or real(q, cache, now))
        monkeypatch.setattr(simharness, "make_policy",
                            lambda cfg, cache, events: AnsweringPolicy())
        events = [mk_query(1, 1, {0}, 5), mk_update(2, 2, 0, 3),
                  mk_query(3, 3, {0}, 5, tol=5)]   # update 2 is queued but tolerated
        report = run(events, small_catalog, RunConfig(policy="nocache", seed=0))
        assert report.summary()["answers_audited"] == 2
        assert called == [3]

    def test_every_policy_replayable(self):
        params = GeneratorParams(n_objects=8, n_queries=50, n_updates=50,
                                 query_hotspots=(1, 2), update_hotspots=(5, 6))
        catalog, events = generate(params, seed=6)
        # A replica's capacity is the whole catalog even when cache_bytes
        # asks for less; the replay must rebuild it from the report.
        for sizing in ({"cache_frac": 0.5}, {"cache_bytes": catalog.total_size // 3}):
            for policy in POLICY_NAMES:
                config = RunConfig(policy=policy, seed=6, **sizing,
                                   params={"delta": 25} if policy == "benefit" else {})
                report = run(events, catalog, config)
                assert report.capacity == (catalog.total_size if policy == "replica"
                                           else config.capacity(catalog))
                cache, ledger = replay_decisions(events, catalog, report)
                assert ledger.snapshot() == report.ledger.snapshot()
                assert sorted(cache.resident) == report.final_resident


class TestReplayAudit:
    """`replay_decisions` re-audits a log through `run()`'s own event loop, so
    a corrupted log, or a cache that changes behind the decision step's back,
    fails with AuditError naming the event where a run would, not with a raw
    error or a silently different ledger."""

    @pytest.fixture
    def trace(self):
        params = GeneratorParams(n_objects=8, n_queries=60, n_updates=60,
                                 query_hotspots=(1, 2), update_hotspots=(1, 2))
        return generate(params, seed=2)

    def test_replica_log_without_its_update_shipping(self, trace):
        catalog, events = trace
        report = run(events, catalog, RunConfig(policy="replica", seed=0))
        kept = [(seq, d) for seq, d in report.decision_log if type(d) is not ShipUpdates]
        # The first query with an update old enough to interact is now stale.
        stale = next(q.seq for q in events if type(q) is Query and any(
            type(u) is not Query and u.seq < q.seq and u.object in q.objects
            and u.time <= q.time - q.tolerance for u in events))
        with pytest.raises(AuditError, match=r"answered at cache with \d+ interacting") as exc:
            replay_decisions(events, catalog, dataclasses.replace(report, decision_log=kept))
        assert exc.value.seq == stale

    def test_ship_query_naming_another_query(self, trace):
        catalog, events = trace
        report = run(events, catalog, RunConfig(policy="nocache", seed=0))
        log = list(report.decision_log)
        seq, first = log[3]
        log[3] = (seq, ShipQuery(log[4][1].qid))
        with pytest.raises(AuditError, match=rf"ShipQuery\({log[4][1].qid}\) outside") as exc:
            replay_decisions(events, catalog, dataclasses.replace(report, decision_log=log))
        assert exc.value.seq == seq and type(first) is ShipQuery

    def test_entry_whose_seq_names_no_event(self, trace):
        catalog, events = trace
        report = run(events, catalog, RunConfig(policy="nocache", seed=0))
        log = report.decision_log + [(10**6, AnswerFromCache(12345))]
        with pytest.raises(AuditError, match=r"AnswerFromCache\(qid=12345\) names no event") \
                as exc:
            replay_decisions(events, catalog, dataclasses.replace(report, decision_log=log))
        assert exc.value.seq == 10**6

    @pytest.fixture
    def churn(self):
        # A 5% cache over fine-grained objects: vcover loads and evicts often,
        # and evicts objects whose updates are still queued.
        params = dataclasses.replace(GeneratorParams.scaled_hotspots(68), selectivity=0.5,
                                     query_hotspot_weight=0.2, n_queries=40, n_updates=40)
        catalog, events = generate(params, seed=1)
        config = RunConfig(policy="vcover", seed=1, cache_frac=0.05)
        return catalog, events, config, run(events, catalog, config)

    def test_counter_drift_fails_the_final_recount(self, churn, monkeypatch):
        catalog, events, _, report = churn

        def drifting(cache, d):
            moved = core.apply(cache, d)
            if type(d) is Load:
                cache._used -= 1    # low, so the per-decision capacity audit passes
            return moved

        monkeypatch.setattr(simharness, "apply", drifting)
        with pytest.raises(AuditError, match="capacity counter") as exc:
            replay_decisions(events, catalog, report)
        assert exc.value.seq == events[-1].seq

    def test_queue_left_on_evict_fails_where_run_fails(self, churn, monkeypatch):
        catalog, events, config, report = churn

        def keeping_queue(cache, d):
            queue = cache.outstanding.get(d.oid) if type(d) is Evict else None
            moved = core.apply(cache, d)
            if queue:
                cache.outstanding[d.oid] = queue
            return moved

        monkeypatch.setattr(simharness, "apply", keeping_queue)
        match = r"non-resident object \d+ has an outstanding queue"
        with pytest.raises(AuditError, match=match) as ran:
            run(events, catalog, config)
        with pytest.raises(AuditError, match=match) as replayed:
            replay_decisions(events, catalog, report)
        assert replayed.value.seq == ran.value.seq
        assert str(replayed.value) == str(ran.value)


class TestReplayContract:
    """`replay_decisions` checks its events as `run()` does: a sequence that
    breaks the event contract raises ValueError before any cache is built,
    and a checked `Trace` is trusted without another walk."""

    EVENTS = [mk_query(1, 1, {0}, 7), mk_update(2, 2, 0, 3), mk_query(3, 3, {0, 1}, 5)]

    @pytest.fixture
    def report(self, small_catalog):
        return run(self.EVENTS, small_catalog, RunConfig(policy="replica", seed=0))

    @pytest.mark.parametrize("events,message", [
        ([mk_query(1, 1, {0}, 7, seq=2), mk_update(2, 2, 0, 3, seq=1)],
         "event 2: seq 1 is not above the previous seq 2"),
        ([mk_query(1, 1, {0}, 7), mk_update(2, 2, 9, 3)],
         "event 2: update 2 references unknown object 9"),
        ([mk_query(1, 1, {0}, 7), mk_update(2, 2, 0, 3), mk_query(1, 3, {1}, 5, seq=3)],
         "event 3: duplicate query id 1"),
        ([mk_query(1, 5, {0}, 7), mk_update(2, 2, 0, 3)],
         "event 2: events out of order: time 2 after 5"),
    ], ids=["seq", "unknown-object", "duplicate-id", "time"])
    def test_contract_fault_raises_before_any_cache(self, small_catalog, report, events,
                                                    message, monkeypatch):
        def no_cache(*args):
            raise AssertionError("a cache was built")

        monkeypatch.setattr(simharness, "CacheState", no_cache)
        with pytest.raises(ValueError, match=f"^{message}$"):
            replay_decisions(events, small_catalog, report)

    def test_a_checked_trace_is_not_walked_again(self, small_catalog, report, monkeypatch):
        trace = Trace.of(small_catalog, self.EVENTS)
        checked = []
        of = Trace.of
        monkeypatch.setattr(Trace, "of", lambda cat, evs: checked.append(1) or of(cat, evs))
        for events, walks in ((trace, []), (self.EVENTS, [1])):
            cache, ledger = replay_decisions(events, small_catalog, report)
            assert ledger.snapshot() == report.ledger.snapshot()
            assert sorted(cache.resident) == report.final_resident
            assert checked == walks


class TestInputContract:
    """Every trace that `validate` accepts runs under every policy and its
    decision log replays; every trace it rejects fails `load_trace`."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_validated_traces_run_and_replay_under_every_policy(self, tmp_path, data):
        # Some examples put one large byte quantity next to the small ones:
        # the largest one allowed, or one past the bound that fails `validate`.
        big = data.draw(st.sampled_from([[], [], [2**53 - 1], [2**53], [10**400]]), label="big")
        n_objects = data.draw(st.integers(1, 4), label="objects")
        quantity = st.sampled_from([1, 2, 3, 4, 5] + big)
        objects = [{"id": o, "size": data.draw(quantity), "load_cost": data.draw(quantity)}
                   for o in range(n_objects)]
        (tmp_path / "catalog.json").write_text(
            json.dumps({"schema": "catalog/v1", "objects": objects}))
        oid = st.integers(0, n_objects - 1)
        time, update_times, docs = 0, [0], []
        for eid in range(1, data.draw(st.integers(0, 15), label="events") + 1):
            time += data.draw(st.sampled_from([0, 0, 1, 2]))   # ties are common
            doc = {"id": eid, "time": time, "cost": data.draw(st.sampled_from([0, 2, 8] + big))}
            if data.draw(st.booleans()):
                # Some tolerances put an earlier update exactly on the boundary.
                tol = data.draw(st.sampled_from(sorted({time - t for t in update_times})))
                doc.update(kind="query", tolerance=tol,
                           objects=data.draw(st.lists(oid, min_size=1, max_size=3, unique=True)))
            else:
                doc.update(kind="update", object=data.draw(oid))
                update_times.append(time)
            docs.append(doc)
        fault = data.draw(st.sampled_from([None, "duplicate", "unknown object",
                                           "out of order"]))
        if fault == "duplicate" and docs:
            docs.append(dict(docs[0], time=time))
        elif fault == "unknown object":
            docs.append({"kind": "update", "id": 99, "time": time, "object": n_objects,
                         "cost": 1})
        elif fault == "out of order":
            docs.append({"kind": "update", "id": 99, "time": -1, "object": 0, "cost": 1})
        trace = tmp_path / "trace.jsonl"
        header = {"schema": "trace/v1", "catalog": "catalog.json", "n_events": len(docs)}
        trace.write_text("".join(json.dumps(d) + "\n" for d in [header] + docs))
        quantities = [d["cost"] for d in docs] + [o["size"] for o in objects] + [
            o["load_cost"] for o in objects]
        oversized = max(quantities) > core.MAX_BYTES
        rep = validate(trace)
        if not rep.ok:
            causes = ([fault] if fault else []) + ([f" {core.MAX_BYTES}"] if oversized else [])
            assert any(cause in msg for _, msg in rep.errors for cause in causes)
            with pytest.raises(TraceError, match=r"trace\.jsonl:\d+: "):
                load_trace(trace)
            return
        assert not oversized
        catalog, events = load_trace(trace)
        sizing = data.draw(st.sampled_from([{"cache_frac": 0.3}, {"cache_frac": 1.0},
                                            {"cache_bytes": 0}, {"cache_bytes": 6}]))
        for policy in POLICY_NAMES:
            params = {"delta": 3} if policy == "benefit" else {}
            if policy == "soptimal":
                params = {"mode": data.draw(st.sampled_from(["eager", "lazy"]))}
            report = run(events, catalog,
                         RunConfig(policy=policy, seed=1, params=params, **sizing))
            cache, ledger = replay_decisions(events, catalog, report)
            assert ledger.snapshot() == report.ledger.snapshot()
            assert sorted(cache.resident) == report.final_resident


    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("seqs, message", [
        ((1, 1), "event 2: seq 1 is not above the previous seq 1"),
        ((2, 1), "event 2: seq 1 is not above the previous seq 2"),
        ((0, 1), "event 1: seq 0 is not above the previous seq 0"),
    ], ids=["repeated", "falling", "zero"])
    def test_seq_not_increasing_rejected_before_any_policy(self, small_catalog, policy,
                                                           seqs, message):
        # Decisions are logged and replayed by seq, so two events sharing one
        # would have their decisions replayed together at the first.
        events = [Query(qid=1, time=1, objects=frozenset({0}), ship_cost=7, seq=seqs[0]),
                  mk_query(2, 2, {1}, 5, seq=seqs[1])]
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(events, small_catalog, RunConfig(policy=policy, seed=0))

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_time_running_backwards_rejected_before_any_policy(self, small_catalog, policy,
                                                               monkeypatch):
        # `validate` rejects a trace whose time falls; a library caller gets
        # the same rule from run(), and equal times stay allowed.
        def no_policy(*args):
            raise AssertionError("a policy was built")

        monkeypatch.setattr(simharness, "make_policy", no_policy)
        events = [mk_query(1, 5, {0}, 7), mk_update(2, 5, 0, 3), mk_query(3, 4, {1}, 5)]
        with pytest.raises(ValueError,
                           match=r"^event 3: events out of order: time 4 after 5$"):
            run(events, small_catalog, RunConfig(policy=policy, seed=0))

    # run() checks object ids and duplicate ids up front too, with
    # `validate`'s wording after the event's position.

    @pytest.mark.parametrize("policy", ["benefit", "soptimal"])
    def test_query_on_unknown_object_names_it(self, policy, monkeypatch):
        monkeypatch.setattr(simharness, "make_policy", self.no_policy)
        catalog = ObjectCatalog.from_sizes({0: 10, 1: 20})
        events = [mk_query(1, 1, {0, 9}, 7)]
        with pytest.raises(ValueError, match=r"^event 1: query 1 references unknown object 9$"):
            run(events, catalog, RunConfig(policy=policy, seed=0))

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_update_on_unknown_object_names_it(self, policy, monkeypatch):
        monkeypatch.setattr(simharness, "make_policy", self.no_policy)
        catalog = ObjectCatalog.from_sizes({0: 10, 1: 20})
        events = [mk_update(1, 1, 9, 3)]
        with pytest.raises(ValueError, match=r"^event 1: update 1 references unknown object 9$"):
            run(events, catalog, RunConfig(policy=policy, seed=0))

    @staticmethod
    def no_policy(*args):
        raise AssertionError("a policy was built")

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("events, message", [
        ([mk_query(1, 1, {9}, 5)], "event 1: query 1 references unknown object 9"),
        ([mk_query(1, 1, {0}, 5, seq=1), mk_query(1, 2, {1}, 5, seq=2)],
         "event 2: duplicate query id 1"),
        ([mk_update(1, 1, 0, 5, seq=1), mk_update(1, 2, 1, 5, seq=2)],
         "event 2: duplicate update id 1"),
    ], ids=["unknown-object", "duplicate-qid", "duplicate-uid"])
    def test_ids_and_objects_rejected_before_any_policy(self, policy, events, message,
                                                        monkeypatch):
        monkeypatch.setattr(simharness, "make_policy", self.no_policy)
        catalog = ObjectCatalog.from_sizes({0: 10, 1: 10})
        config = RunConfig(policy=policy, seed=0, cache_frac=1.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(events, catalog, config)
        with pytest.raises(ValueError, match=f"^{message}$"):
            compare(events, catalog, [config])


class TestCompare:
    def test_replica_zero_on_update_free_trace(self, small_catalog):
        events = [mk_query(1, 1, {0}, 7)]
        rep = compare(events, small_catalog,
                      [RunConfig(policy="nocache", seed=0),
                       RunConfig(policy="replica", seed=0)])
        totals = {r.config["policy"]: r.ledger.total for r in rep.runs}
        assert totals == {"nocache": 7, "replica": 0}

    def test_events_are_checked_once_for_every_run(self, small_catalog, monkeypatch):
        checked = []
        of = Trace.of
        monkeypatch.setattr(Trace, "of", lambda cat, evs: checked.append(1) or of(cat, evs))
        events = [mk_query(1, 1, {0}, 7), mk_update(2, 2, 0, 3)]
        rep = compare(events, small_catalog, [RunConfig(policy=p, seed=0)
                                              for p in ("nocache", "replica", "soptimal")])
        assert [r.ledger.total for r in rep.runs] == [7, 3, 7]
        assert checked == [1]

    def test_five_policy_table_shape(self):
        params = GeneratorParams(n_objects=6, n_queries=20, n_updates=20,
                                 query_hotspots=(1,), update_hotspots=(4,))
        catalog, events = generate(params, seed=2)
        configs = [RunConfig(policy=p, seed=2, cache_frac=0.5,
                             params={"delta": 10} if p == "benefit" else {})
                   for p in ("vcover", "benefit", "nocache", "replica", "soptimal")]
        rep = compare(events, catalog, configs)
        assert [r.config["policy"] for r in rep.runs] == \
            ["vcover", "benefit", "nocache", "replica", "soptimal"]
        assert rep.series_csv().splitlines()[0] == \
            "policy,seq,query_ship,update_ship,load,total,occupancy"
