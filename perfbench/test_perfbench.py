"""Tests of the benchmark's own code. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import re

import pytest

import bench
import hostspeed
import layers
from midcache import core, covergraph, simharness, vcover
from tracing import Tracer, aggregate, patched, self_times, tail_percentile
from workloads import WORKLOADS

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def test_wrap_passes_results_and_exceptions_through():
    tr = Tracer()
    payload = {"x": [1, 2]}
    wrapped = tr.wrap(lambda a, b=0: (a, b), "f")
    assert wrapped(payload, b=3) == (payload, 3)
    assert wrapped(payload)[0] is payload

    def boom():
        raise KeyError("k")
    with pytest.raises(KeyError):
        tr.wrap(boom, "g")()
    assert [s[0] for s in tr.spans] == ["f", "f", "g"]
    assert tr.stack == []


def test_wrapped_library_functions_return_identical_results(worked):
    catalog, events = worked
    q = next(e for e in events if isinstance(e, core.Query))
    tr = Tracer()
    cache = core.CacheState(10**12, catalog)
    cache.seed_resident(catalog.ids())
    plain = core.interacting_updates(q, cache, q.time)
    assert tr.wrap(core.interacting_updates, "i")(q, cache, q.time) == plain
    g = covergraph.InteractionGraph()
    g.add_query(1, 5)
    g.add_update(2, 3)
    g.add_edge(2, 1)
    plain_cover, plain_flow = covergraph.min_weight_cover(g)
    cover, flow = tr.wrap(covergraph.min_weight_cover, "c")(g)
    assert cover == plain_cover and flow == plain_flow


def test_self_time_is_duration_minus_direct_children():
    spans = [("root", 0, 100, -1, 0),
             ("a", 10, 40, 0, 1),
             ("a.child", 15, 25, 1, 1),
             ("b", 50, 60, 0, 2),
             ("a", 70, 75, 0, 3)]
    assert self_times(spans) == [100 - 30 - 10 - 5, 30 - 10, 10, 10, 5]
    assert aggregate(spans)["a"] == [2, 35, 25]


def test_nested_spans_record_parent_and_seq():
    tr = Tracer()
    inner = tr.wrap(lambda: None, "inner")
    with tr.span("outer"):
        tr.seq = 7
        inner()
    inner_span, outer_span = tr.spans[1], tr.spans[0]
    assert outer_span[0] == "outer" and outer_span[3] == -1 and outer_span[4] == 0
    assert inner_span[0] == "inner" and inner_span[3] == 0 and inner_span[4] == 7


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(1000))) == (99.0, 989)
    assert tail_percentile(list(range(100_000)))[0] == 99.99
    assert tail_percentile([5.0, 1.0, 3.0]) == (50.0, 3.0)


def test_patched_restores_every_original():
    before = {(id(o), a): vars(o)[a] for o, a, _ in layers.targets(Tracer())}
    with pytest.raises(RuntimeError):
        with patched(layers.targets(Tracer())):
            assert vcover.min_weight_cover is not covergraph.min_weight_cover
            raise RuntimeError
    after = {(id(o), a): vars(o)[a] for o, a, _ in layers.targets(Tracer())}
    assert before == after
    assert vcover.min_weight_cover is covergraph.min_weight_cover


@pytest.fixture
def worked():
    from pathlib import Path
    from midcache.workload import load_trace
    root = Path(bench.__file__).resolve().parent.parent
    return load_trace(root / "tests" / "data" / "worked_example" / "trace.jsonl")


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    hot = WORKLOADS["hot68"]
    return dataclasses.replace(
        hot, panel=2, others_every=1, fingerprints={},
        params=lambda: dataclasses.replace(hot.params(), n_queries=300, n_updates=300))


def declared():
    doc = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def test_untraced_run_reports_every_end_to_end_metric(tiny):
    result = bench.run_benchmark(tiny, seed=3, seconds=0, traced=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    end_to_end, _ = declared()
    assert {k: m["unit"] for k, m in result["metrics"].items()} == end_to_end
    assert all(NAME_RE.fullmatch(k) for k in result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_matches_untraced_and_reports_every_layer(tiny, tmp_path):
    plain = bench.run_benchmark(tiny, seed=3, seconds=0, traced=False)
    traced = bench.run_benchmark(tiny, seed=3, seconds=0, traced=True)
    assert traced["correct"] and traced["failed"] == 0
    _, per_layer = declared()
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == per_layer
    assert all(NAME_RE.fullmatch(k) for k in traced["metrics"])
    assert list(tmp_path.glob("spans-*.csv.gz"))
    # The traced replays left the library exactly as it was.
    assert simharness.apply is core.apply
    assert isinstance(vars(core.CacheState)["used"], property)
    assert vars(core.CacheState)["used"].fget.__name__ == "used"
    again = bench.run_benchmark(tiny, seed=3, seconds=0, traced=False)
    for name in ("vcover.traffic_bytes", "benefit.traffic_bytes", "soptimal.traffic_bytes"):
        assert again["metrics"][name] == plain["metrics"][name]


def test_gate_fails_a_replay_whose_behaviour_changed(tiny):
    setup = bench.set_up(tiny, tiny.default_seed, bench.OUT / "work")
    gate = bench.Gate(setup)
    cfg = bench.config(tiny, "nocache", 1)
    assert gate.attempt(cfg) is not None

    def overcharge(record):
        def charged(ledger, d, costs, seq=0):
            record(ledger, d, costs, seq)
            ledger.query_ship += 1
        return charged
    with patched([(simharness, "record", overcharge)]):
        assert gate.attempt(cfg) is None
    assert (gate.attempted, gate.failed) == (2, 1)


def test_fingerprint_drift_fails_loudly(tiny):
    drifted = dataclasses.replace(tiny, fingerprints={1: "0" * 64})
    with pytest.raises(bench.SetupError, match="differs from the recorded"):
        bench.run_benchmark(drifted, seed=1, seconds=0, traced=False)


def test_host_probe_is_deterministic_work():
    assert hostspeed.kernel() == hostspeed.kernel()
    assert hostspeed.probe() > 0 and hostspeed.REFERENCE_S > 0


def test_schedule_runs_whole_passes_then_stops_on_time(tiny):
    group = len(bench.POLICIES)
    untimed = [(c.policy, c.seed) for c in bench.schedule(tiny, 3, 0, 1)]
    assert untimed == [("vcover", 6), *[(p, 3) for p in bench.POLICIES[1:]],
                       ("vcover", 7), *[(p, 3) for p in bench.POLICIES[1:]]]
    assert len(list(bench.schedule(tiny, 3, 0, 0))) == group


def test_every_workload_records_default_and_held_out_fingerprints():
    for w in WORKLOADS.values():
        assert set(w.fingerprints) == {w.default_seed, w.held_out_seed}
        assert NAME_RE.fullmatch(w.name)
