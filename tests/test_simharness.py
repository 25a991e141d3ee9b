import pytest

from midcache.core import AnswerFromCache, ShipQuery
from midcache.simharness import (AuditError, RunConfig, compare,
                                 replay_decisions, run)
from midcache.workload import GeneratorParams, generate
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

    def test_every_policy_replayable(self):
        params = GeneratorParams(n_objects=8, n_queries=50, n_updates=50,
                                 query_hotspots=(1, 2), update_hotspots=(5, 6))
        catalog, events = generate(params, seed=6)
        for policy in ("vcover", "benefit", "nocache", "replica", "soptimal"):
            config = RunConfig(policy=policy, seed=6, cache_frac=0.5,
                               params={"delta": 25} if policy == "benefit" else {})
            report = run(events, catalog, config)
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
