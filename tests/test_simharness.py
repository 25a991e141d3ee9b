import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from midcache.core import AnswerFromCache, ObjectCatalog, ShipQuery
from midcache.simharness import (POLICY_NAMES, AuditError, RunConfig, compare,
                                 replay_decisions, run)
from midcache.workload import (GeneratorParams, TraceError, generate,
                               load_trace, validate, write_catalog)
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
        events = [mk_query(i, i, {0}, 10, seq=i) for i in range(1, 11)]
        report = run(events, small_catalog,
                     RunConfig(policy="nocache", seed=0, warmup_events=4))
        assert report.ledger.total == 100
        assert report.post_warmup["total"] == 60

    def test_series_monotone_and_sampled(self, small_catalog):
        events = [mk_query(i, i, {0}, 5, seq=i) for i in range(1, 26)]
        report = run(events, small_catalog,
                     RunConfig(policy="nocache", seed=0, sample_stride=10))
        seqs = [row[0] for row in report.series]
        assert seqs == [10, 20, 25]
        totals = [row[4] for row in report.series]
        assert totals == sorted(totals)


class TestAudit:
    def test_stale_answer_aborts_with_event_index(self, small_catalog):
        class BrokenPolicy:
            def __init__(self, cache):
                self.cache = cache

            def startup(self):
                self.cache.seed_resident([0])
                return []

            def on_query(self, q, now):
                return [AnswerFromCache(q.qid)]   # ignores staleness

            def on_update(self, u, now):
                return []

            def finalize(self):
                return []

        import midcache.simharness as sh
        orig = sh.make_policy
        sh.make_policy = lambda cfg, cat, cache, events: BrokenPolicy(cache)
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

            def on_query(self, q, now):
                return [AnswerFromCache(q.qid)]   # nothing is resident

            def on_update(self, u, now):
                return []

            def finalize(self):
                return []

        import midcache.simharness as sh
        orig = sh.make_policy
        sh.make_policy = lambda cfg, cat, cache, events: BrokenPolicy()
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

            def on_query(self, q, now):
                self.cache.resident.add(3)   # bypasses apply and its counter
                return [ShipQuery(q.qid)]

            def on_update(self, u, now):
                return []

            def finalize(self):
                return []

        import midcache.simharness as sh
        orig = sh.make_policy
        sh.make_policy = lambda cfg, cat, cache, events: CorruptingPolicy(cache)
        try:
            events = [mk_query(1, 1, {0}, 5, seq=1), mk_query(2, 2, {1}, 5, seq=2)]
            with pytest.raises(AuditError, match="capacity counter") as exc:
                run(events, small_catalog, RunConfig(policy="nocache", seed=0))
            assert exc.value.seq == 2
        finally:
            sh.make_policy = orig

    def test_audit_error_survives_pickling(self):
        # compare(..., jobs>1) sends a worker's AuditError back by pickle.
        import pickle
        err = pickle.loads(pickle.dumps(AuditError(3, "boom")))
        assert isinstance(err, AuditError)
        assert err.seq == 3
        assert str(err) == "event 3: boom"

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


class TestInputContract:
    """Every trace that `validate` accepts runs under every policy and its
    decision log replays; every trace it rejects fails `load_trace`."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_validated_traces_run_and_replay_under_every_policy(self, tmp_path, data):
        n_objects = data.draw(st.integers(1, 4), label="objects")
        catalog = ObjectCatalog.from_sizes(
            {o: data.draw(st.integers(1, 5)) for o in range(n_objects)})
        write_catalog(catalog, tmp_path / "catalog.json")
        oid = st.integers(0, n_objects - 1)
        time, update_times, docs = 0, [0], []
        for eid in range(1, data.draw(st.integers(0, 15), label="events") + 1):
            time += data.draw(st.sampled_from([0, 0, 1, 2]))   # ties are common
            doc = {"id": eid, "time": time, "cost": data.draw(st.sampled_from([0, 2, 8]))}
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
        rep = validate(trace)
        if not rep.ok:
            assert any(fault in msg for _, msg in rep.errors)
            with pytest.raises(TraceError, match=r"trace\.jsonl:\d+: "):
                load_trace(trace)
            return
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


class TestCompare:
    def test_replica_zero_on_update_free_trace(self, small_catalog):
        events = [mk_query(1, 1, {0}, 7)]
        rep = compare(events, small_catalog,
                      [RunConfig(policy="nocache", seed=0),
                       RunConfig(policy="replica", seed=0)])
        table = {r["policy"]: r["total"] for r in rep.table()}
        assert table == {"nocache": 7, "replica": 0}

    def test_five_policy_table_shape(self):
        params = GeneratorParams(n_objects=6, n_queries=20, n_updates=20,
                                 query_hotspots=(1,), update_hotspots=(4,))
        catalog, events = generate(params, seed=2)
        configs = [RunConfig(policy=p, seed=2, cache_frac=0.5,
                             params={"delta": 10} if p == "benefit" else {})
                   for p in ("vcover", "benefit", "nocache", "replica", "soptimal")]
        rep = compare(events, catalog, configs)
        assert [r["policy"] for r in rep.table()] == \
            ["vcover", "benefit", "nocache", "replica", "soptimal"]
        assert rep.series_csv().splitlines()[0] == \
            "policy,seq,query_ship,update_ship,load,total,occupancy"

    def test_parallel_jobs_match_sequential(self):
        params = GeneratorParams(n_objects=6, n_queries=30, n_updates=30,
                                 query_hotspots=(1,), update_hotspots=(4,))
        catalog, events = generate(params, seed=9)
        configs = [RunConfig(policy=p, seed=9, cache_frac=0.4)
                   for p in ("vcover", "nocache", "replica")]
        seq = compare(events, catalog, configs, jobs=1)
        par = compare(events, catalog, configs, jobs=3)
        assert seq.summary_json() == par.summary_json()
