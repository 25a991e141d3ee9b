import copy
import dataclasses
import gzip
import hashlib
import json
import operator
import pickle
import re
import tempfile
import time
import zlib
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from midcache.cli import main
from midcache.core import EventContract, ObjectCatalog, ObjectInfo, Query, Trace, Update
from midcache import workload
from midcache.simharness import RunConfig, run
from midcache.workload import (GeneratorParams, TraceError, ValidationReport, _read,
                               generate, load_trace, params_meta, read_catalog, regrain,
                               validate, write_catalog, write_trace)
from tests.conftest import DATA_DIR
from perfbench.workloads import WORKLOADS
from tests.oracles import event_record, reference_generate


class TestGenerate:
    def test_default_catalog_size(self):
        catalog, _ = generate(GeneratorParams(n_queries=10, n_updates=10), seed=1)
        assert len(catalog.entries) == 68

    def test_deterministic_bytes(self, tmp_path):
        params = GeneratorParams(n_objects=10, n_queries=100, n_updates=100,
                                 query_hotspots=(2,), update_hotspots=(7,))
        blobs = []
        for run_no in range(2):
            catalog, events = generate(params, seed=77)
            cpath = tmp_path / f"c{run_no}.json"
            tpath = tmp_path / f"t{run_no}.jsonl"
            write_catalog(catalog, cpath)
            write_trace(events, tpath, catalog_ref=cpath.name,
                        meta=params_meta(params, 77))
            blobs.append(cpath.read_bytes() + tpath.read_bytes())
        assert blobs[0].replace(b"c0", b"cX").replace(b"t0", b"tX") == \
            blobs[1].replace(b"c1", b"cX").replace(b"t1", b"tX")

    def test_referential_integrity_and_ordering(self):
        params = GeneratorParams(n_objects=12, n_queries=200, n_updates=200,
                                 query_hotspots=(3, 4), update_hotspots=(8, 9))
        catalog, events = generate(params, seed=5)
        last_time = 0
        for ev in events:
            oids = ev.objects if isinstance(ev, Query) else {ev.object}
            assert all(o in catalog.entries for o in oids)
            assert ev.ship_cost >= 1
            assert ev.time >= last_time
            last_time = ev.time

    def test_sizes_within_bounds(self):
        params = GeneratorParams(n_objects=40, n_queries=1, n_updates=1,
                                 size_min=1000, size_max=2000,
                                 query_hotspots=(0,), update_hotspots=(1,))
        catalog, _ = generate(params, seed=9)
        for oid in catalog.ids():
            assert 1000 <= catalog.entries[oid].size <= 2000

    def test_statistical_shape(self):
        params = GeneratorParams(n_objects=68, n_queries=50_000, n_updates=50_000)
        catalog, events = generate(params, seed=13)
        hot = set()
        for h in params.query_hotspots:
            hot.update({(h - 2 + k) % 68 for k in range(5)})
        queries = [e for e in events if isinstance(e, Query)]
        hot_share = sum(1 for q in queries if q.objects & hot) / len(queries)
        assert abs(hot_share - params.query_hotspot_weight) < 0.1
        # update scan runs: consecutive updates mostly advance by one object id
        updates = [e for e in events if isinstance(e, Update)]
        steps = Counter((b.object - a.object) % 68
                        for a, b in zip(updates, updates[1:]))
        frac_contiguous = steps[1] / len(updates)
        assert frac_contiguous > (1 - 1 / params.scan_len) * 0.9

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError, match="hotspot id 9"):
            GeneratorParams(n_objects=4, query_hotspots=(9,))
        with pytest.raises(ValueError, match="hotspot weights"):
            dataclasses.replace(GeneratorParams(), query_hotspot_weight=1.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            GeneratorParams().n_queries = 5

    @pytest.mark.parametrize("field, value", [
        ("objects_per_query_weights", (0.0, 0.0)),
        ("objects_per_query_weights", (float("inf"), 1.0)),
        ("objects_per_query_weights", (float("nan"), 1.0)),
        ("objects_per_query_weights", (1e308, 1e308)),      # total past float range
        ("objects_per_query_weights", (10**400,)),
        ("objects_per_query_weights", (True,)),
        ("tolerance_mix", ()),
        ("tolerance_mix", ((0, 0.0), (5, 0.0))),
        ("tolerance_mix", ((0, float("inf")),)),
        ("tolerance_mix", ((0, float("nan")),)),
        ("tolerance_mix", ((1.5, 1.0),)),
        ("tolerance_mix", ((True, 1.0),)),
        ("selectivity", float("inf")),
        ("selectivity", float("nan")),
        ("update_fraction", float("nan")),
        ("drift_cycles", float("nan")),
        ("drift_cycles", float("inf")),
        ("selectivity", 1e300),         # int() of an inf cost: OverflowError
        ("update_fraction", 1e300),
        ("load_cost_factor", 1e300),
        ("load_cost_factor", float("nan")),
        ("load_cost_factor", True),
        ("scan_len", 2.5),
        ("n_objects", 68.0),
        ("n_objects", True),
        ("n_queries", 10.0),
        ("n_updates", 10.0),
        ("size_min", 5e7),
        ("size_max", 2e10),
        ("mean_interarrival_us", 1.5),
        ("query_hotspots", (22.0,)),
        ("update_hotspots", (True,)),
    ])
    def test_params_generate_cannot_run_are_rejected(self, field, value):
        # Each of these used to be accepted, and generate then raised from
        # inside `random` or `int()`, or (scan_len 2.5) ran one endless scan.
        with pytest.raises(ValueError, match=f"^{field} must "):
            dataclasses.replace(GeneratorParams(), **{field: value})

    def test_size_max_past_the_byte_bound_rejected(self):
        # math.exp overflowed on 10**400; past 2**53 - 1 the catalog refused
        # the sizes only once they were drawn.
        for size_max in (2**53, 10**400):
            with pytest.raises(ValueError, match="^size bounds must satisfy"):
                GeneratorParams(size_max=size_max)


@st.composite
def generator_params(draw) -> GeneratorParams:
    """Any settings `GeneratorParams` accepts whose costs fit the byte bound:
    hotspot tuples empty or not, hotspot weights at 0 and 1, weight vectors
    with zero entries and single-entry mixes."""
    n = draw(st.integers(1, 600))
    hotspots = st.lists(st.integers(0, n - 1), max_size=6).map(tuple)
    unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    weight = st.one_of(st.just(0), st.integers(0, 5), st.floats(0.0, 10.0))
    size_min = draw(st.integers(1, 10**11))
    return GeneratorParams(
        n_objects=n, size_min=size_min, size_max=draw(st.integers(size_min, 10**11)),
        load_cost_factor=draw(st.floats(0.0, 100.0)),
        n_queries=draw(st.integers(0, 60)), n_updates=draw(st.integers(0, 60)),
        query_hotspots=draw(hotspots), query_hotspot_weight=draw(unit),
        update_hotspots=draw(hotspots), update_hotspot_weight=draw(unit),
        scan_len=draw(st.integers(1, 20)),
        objects_per_query_weights=draw(st.lists(weight, min_size=1, max_size=8)
                                       .filter(lambda ws: sum(ws) > 0).map(tuple)),
        tolerance_mix=draw(st.lists(st.tuples(st.integers(0, 10**6), weight),
                                    min_size=1, max_size=4)
                           .filter(lambda m: sum(w for _, w in m) > 0).map(tuple)),
        selectivity=draw(st.floats(1e-6, 10.0)),
        update_fraction=draw(st.floats(1e-6, 10.0)),
        mean_interarrival_us=draw(st.integers(1, 10**6)),
        drift_cycles=draw(st.floats(-5.0, 5.0)))


class TestGenerateMatchesReference:
    """`generate` draws its weighted picks and gaps from `rng.random()`
    directly and builds each query shape once; `reference_generate` calls
    `Random.choices`/`expovariate` and builds every query afresh. Both must
    give the same catalog, events and bytes."""

    @settings(max_examples=150, deadline=None)
    @given(generator_params(), st.integers(0, 2**32))
    def test_same_catalog_events_and_bytes(self, params, seed):
        catalog, events = generate(params, seed)
        ref_catalog, ref_events = reference_generate(params, seed)
        assert catalog.entries == ref_catalog.entries
        assert tuple(events) == ref_events
        sets = [q.objects for q in events if type(q) is Query]
        assert len({id(s) for s in sets}) == len(set(sets))
        with tempfile.TemporaryDirectory() as d:
            blobs = []
            for name, cat, evs in (("new", catalog, events), ("ref", ref_catalog, ref_events)):
                write_catalog(cat, Path(d) / f"{name}.json")
                write_trace(evs, Path(d) / f"{name}.jsonl", meta=params_meta(params, seed))
                blobs.append((Path(d) / f"{name}.json").read_bytes()
                             + (Path(d) / f"{name}.jsonl").read_bytes())
            assert blobs[0] == blobs[1]


class TestBenchmarkTraces:
    """The benchmark's workloads regenerate to the fingerprints it recorded,
    written as its set-up writes them (`perfbench/bench.py` `set_up`)."""

    @pytest.mark.parametrize("name, seed", [(w.name, seed) for w in WORKLOADS.values()
                                            for seed in w.fingerprints])
    def test_fingerprint_matches_the_recorded_one(self, tmp_path, name, seed):
        w = WORKLOADS[name]
        params = w.params()
        catalog, events = generate(params, seed)
        write_catalog(catalog, tmp_path / "catalog.json")
        write_trace(events, tmp_path / "trace.jsonl", catalog_ref="catalog.json",
                    meta=params_meta(params, seed))
        h = hashlib.sha256((tmp_path / "catalog.json").read_bytes())
        h.update(b"\0")
        h.update((tmp_path / "trace.jsonl").read_bytes())
        assert h.hexdigest() == w.fingerprints[seed]


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        params = GeneratorParams(n_objects=8, n_queries=30, n_updates=30,
                                 query_hotspots=(1,), update_hotspots=(5,))
        catalog, events = generate(params, seed=3)
        write_catalog(catalog, tmp_path / "catalog.json")
        write_trace(events, tmp_path / "trace.jsonl")
        catalog2, events2 = load_trace(tmp_path / "trace.jsonl")
        assert catalog2.entries == catalog.entries
        assert events2 == events

    def test_gzip_transparent(self, tmp_path):
        params = GeneratorParams(n_objects=6, n_queries=10, n_updates=10,
                                 query_hotspots=(1,), update_hotspots=(4,))
        catalog, events = generate(params, seed=3)
        write_catalog(catalog, tmp_path / "catalog.json.gz")
        write_trace(events, tmp_path / "trace.jsonl.gz",
                    catalog_ref="catalog.json.gz")
        assert gzip.open(tmp_path / "trace.jsonl.gz").readline()
        catalog2, events2 = load_trace(tmp_path / "trace.jsonl.gz")
        assert events2 == events

    def test_out_of_order_named_by_line(self, tmp_path):
        write_catalog(read_catalog(DATA_DIR / "worked_example" / "catalog.json"),
                      tmp_path / "catalog.json")
        lines = [
            json.dumps({"schema": "trace/v1", "catalog": "catalog.json",
                        "n_events": 2}),
            json.dumps({"kind": "update", "id": 1, "time": 10, "object": 1,
                        "cost": 1}),
            json.dumps({"kind": "update", "id": 2, "time": 5, "object": 1,
                        "cost": 1}),
        ]
        trace = tmp_path / "bad.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        rep = validate(trace)
        assert not rep.ok
        assert rep.errors[0][0] == 3
        assert "out of order" in rep.errors[0][1]

    def test_malformed_record_named_by_line(self, tmp_path):
        write_catalog(read_catalog(DATA_DIR / "worked_example" / "catalog.json"),
                      tmp_path / "catalog.json")
        trace = tmp_path / "bad.jsonl"
        trace.write_text(
            json.dumps({"schema": "trace/v1", "catalog": "catalog.json",
                        "n_events": 1}) + "\n{oops\n")
        rep = validate(trace)
        assert not rep.ok and rep.errors[0][0] == 2

    @pytest.mark.parametrize("count, error", [
        ("3", None),
        (None, None),
        ("4", "header declares 4 events, file has 3"),
        ("3.0", "bad header or catalog: n_events must be an int, got 3.0"),
        ("null", "bad header or catalog: n_events must be an int, got null"),
        ('"3"', 'bad header or catalog: n_events must be an int, got "3"'),
        ("true", "bad header or catalog: n_events must be an int, got true"),
    ], ids=["int", "absent", "wrong-count", "float", "null", "string", "bool"])
    def test_header_event_count_is_an_int(self, tmp_path, capsys, count, error):
        # A present n_events is of JSON type integer, as every count in the
        # format is, and equals the events the file holds.
        write_catalog(read_catalog(DATA_DIR / "worked_example" / "catalog.json"),
                      tmp_path / "catalog.json")
        field = "" if count is None else f',"n_events":{count}'
        updates = [json.dumps({"kind": "update", "id": i, "time": i, "object": 1, "cost": 1})
                   for i in (1, 2, 3)]
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join(['{"catalog":"catalog.json"%s,"schema":"trace/v1"}' % field]
                                   + updates) + "\n")
        assert validate(trace).errors == ([] if error is None else [(1, error)])
        for command in (["run", "--policy", "nocache"], ["compare"]):
            rc = main(command + ["--trace", str(trace), "--seed", "1", "--out", str(tmp_path)])
            assert rc == (0 if error is None else 1)
            err = capsys.readouterr().err
            assert err == ("" if error is None else f"invalid trace: {trace}:1: {error}\n")

    @pytest.mark.parametrize("line, errors", [
        ("\n", []),
        (" \t\r\n", []),
        ("\x0c\n", [(3, "malformed JSON: Expecting value: line 1 column 1 (char 0)")]),
        ("\x0b\n", [(3, "malformed JSON: Expecting value: line 1 column 1 (char 0)")]),
    ], ids=["empty", "json-whitespace", "form-feed", "vertical-tab"])
    def test_blank_means_json_whitespace_only(self, tmp_path, line, errors):
        write_catalog(read_catalog(DATA_DIR / "worked_example" / "catalog.json"),
                      tmp_path / "catalog.json")
        update = json.dumps({"kind": "update", "id": 1, "time": 1, "object": 1, "cost": 1})
        trace = tmp_path / "trace.jsonl"
        trace.write_text(json.dumps({"schema": "trace/v1", "catalog": "catalog.json",
                                     "n_events": 2 if errors else 1}) + "\n" +
                         update + "\n" + line)
        assert validate(trace).errors == errors

    LONG = '{"cost"%s' + "1" * 4301 + ',"id":2,"kind":"update","object":1,"time":1}'
    TOO_LONG = "malformed JSON: Exceeds the limit (4300"

    @pytest.mark.parametrize("where, bad, line, prefix", [
        ("event", "[" * 100_000, 3, "malformed JSON: "),
        ("header", "[" * 100_000, 1, "bad header or catalog: "),
        ("event", LONG % ":", 3, TOO_LONG), ("event", LONG % ": ", 3, TOO_LONG),
        ("header", '{"catalog":"catalog.json","n_events":%s,"schema":"trace/v1"}' % ("1" * 4301),
         1, "bad header or catalog: Exceeds the limit (4300"),
    ], ids=["deep-event", "deep-header", "long-int-template", "long-int-json", "long-int-header"])
    def test_undecodable_json_is_named_by_line(self, tmp_path, capsys, where, bad, line,
                                               prefix):
        # The JSON decoder raises RecursionError for deep nesting and a plain
        # ValueError, advising a Python call, for an int past int()'s digit
        # limit; neither is a JSONDecodeError.
        write_catalog(read_catalog(DATA_DIR / "worked_example" / "catalog.json"),
                      tmp_path / "catalog.json")
        header = json.dumps({"schema": "trace/v1", "catalog": "catalog.json", "n_events": 2})
        update = json.dumps({"kind": "update", "id": 1, "time": 1, "object": 1, "cost": 1})
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join([header, update, bad] if where == "event"
                                   else [bad, update]) + "\n")
        (got_line, message), *_ = validate(trace).errors
        assert got_line == line and message.startswith(prefix)
        assert main(["validate", "--trace", str(trace)]) == 1
        err = capsys.readouterr().err
        assert f"{trace}:{line}: {prefix}" in err
        assert "Traceback" not in err and "set_int_max_str_digits" not in err

    def test_long_int_in_catalog_names_the_limit(self, tmp_path, capsys):
        # As for a header or event line: no advice to call a Python API.
        (tmp_path / "catalog.json").write_text(
            '{"objects":[{"id":0,"load_cost":1,"size":%s}],"schema":"catalog/v1"}' % ("1" * 4301))
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"catalog":"catalog.json","n_events":0,"schema":"trace/v1"}\n')
        [(line, message)] = validate(trace).errors
        assert line == 1 and message.startswith("bad header or catalog: Exceeds the limit (4300")
        assert "4301 digits" in message and "use sys." not in message
        for command in (["validate"], ["run", "--policy", "nocache", "--seed", "1",
                                       "--out", str(tmp_path)]):
            assert main(command + ["--trace", str(trace)]) == 1
            err = capsys.readouterr().err
            assert f"{trace}:1: {message}" in err
            assert "Traceback" not in err and "set_int_max_str_digits" not in err

    def test_unknown_object_flagged(self, tmp_path):
        write_catalog(read_catalog(DATA_DIR / "worked_example" / "catalog.json"),
                      tmp_path / "catalog.json")
        trace = tmp_path / "bad.jsonl"
        trace.write_text(
            json.dumps({"schema": "trace/v1", "catalog": "catalog.json",
                        "n_events": 1}) + "\n" +
            json.dumps({"kind": "update", "id": 1, "time": 1, "object": 99,
                        "cost": 1}) + "\n")
        rep = validate(trace)
        assert not rep.ok
        assert "unknown object 99" in rep.errors[0][1]

    def test_worked_example_file_parses_and_replays(self):
        path = DATA_DIR / "worked_example" / "trace.jsonl"
        assert validate(path).ok
        catalog, events = load_trace(path)
        assert len(events) == 8
        # replays cleanly under the online policies from a cold cache
        for policy in ("vcover", "nocache", "replica"):
            report = run(events, catalog,
                         RunConfig(policy=policy, seed=1, cache_frac=1.0))
            assert report.ledger.total >= 0


BIG = st.integers(-2**64, 2**64)        # well past 2**53, where floats lose ints


@st.composite
def valid_traces(draw):
    """A catalog and a trace it accepts: ids unique per kind, times in
    order, `seq` counting from 1, as `load_trace` numbers them."""
    object_ids = draw(st.lists(BIG, min_size=1, max_size=6, unique=True))
    n = draw(st.integers(0, 12))
    times = sorted(draw(st.lists(BIG, min_size=n, max_size=n)))
    ids = draw(st.lists(BIG, min_size=n, max_size=n, unique=True))
    costs = st.integers(0, 2**53 - 1)    # the byte bound; tolerances have none
    events = []
    for seq, (t, eid) in enumerate(zip(times, ids), start=1):
        if draw(st.booleans()):
            objects = draw(st.frozensets(st.sampled_from(object_ids), min_size=1, max_size=4))
            events.append(Query(qid=eid, time=t, objects=objects, ship_cost=draw(costs),
                                tolerance=draw(st.integers(0, 2**64)), seq=seq))
        else:
            events.append(Update(uid=eid, time=t, object=draw(st.sampled_from(object_ids)),
                                 ship_cost=draw(costs), seq=seq))
    return ObjectCatalog.from_sizes({oid: 1 for oid in object_ids}), events


class TestTraceEncoding:
    """The writer's lines are the JSON encoder's lines, and the reader takes
    them back to equal events."""

    @settings(max_examples=200, deadline=None)
    @given(valid_traces(), st.sampled_from(["trace.jsonl", "trace.jsonl.gz"]))
    def test_lines_are_sorted_compact_json(self, trace, name):
        catalog, events = trace
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            write_catalog(catalog, d / "catalog.json")
            write_trace(events, d / name)
            with gzip.open(d / name) if name.endswith(".gz") else open(d / name, "rb") as fh:
                lines = fh.read().decode().splitlines()
            assert lines[1:] == [json.dumps(event_record(ev), sort_keys=True,
                                            separators=(",", ":")) for ev in events]
            catalog2, events2 = load_trace(d / name)
        assert catalog2.entries == catalog.entries
        assert list(events2) == events

    def test_gz_output_is_deterministic(self, tmp_path, monkeypatch):
        """Two `.gz` writes of the same content, under different names and
        at different times, give the same bytes: those of the plain file,
        compressed."""
        catalog, events = generate(GeneratorParams(n_objects=8, n_queries=30, n_updates=30,
                                                   query_hotspots=(1,), update_hotspots=(5,)),
                                   seed=3)
        write_catalog(catalog, tmp_path / "catalog.json")
        write_trace(events, tmp_path / "trace.jsonl")
        write_catalog(catalog, tmp_path / "a.json.gz")
        write_trace(events, tmp_path / "a.jsonl.gz")
        later = time.time() + 3600
        monkeypatch.setattr(time, "time", lambda: later)
        write_catalog(catalog, tmp_path / "b.json.gz")
        write_trace(events, tmp_path / "b.jsonl.gz")
        monkeypatch.undo()
        for plain, ext in (("catalog.json", ".json.gz"), ("trace.jsonl", ".jsonl.gz")):
            a, b = (tmp_path / f"a{ext}").read_bytes(), (tmp_path / f"b{ext}").read_bytes()
            assert a == b
            assert gzip.decompress(a) == (tmp_path / plain).read_bytes()


# Values that replace one int of a record line: leading zeros, -0,
# negatives, floats, bools, other JSON types, and ints at and past int()'s
# 4300-digit limit.
ODD_INTS = ["00", "01", "-0", "-3", "1.0", "1.5", "1e2", "true", "false", "null", '"1"',
            "9" * 4300, "1" + "0" * 4300]


@st.composite
def record_lines(draw):
    """Event lines as the writer spells them, some of them mutated: spaces,
    odd int spellings, reordered, extra or missing keys, duplicate object ids,
    a BOM, a CRLF ending, and no final newline on the last line. Small ids,
    times and object ids (6 and 7 are not in the catalog) make the contract
    fail too."""
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        small = st.integers(0, 9).map(str)
        if draw(st.booleans()):
            objects = draw(st.lists(st.integers(0, 7), min_size=1, max_size=4))
            if not draw(st.booleans()):
                objects = sorted(set(objects))
            fields = {"cost": draw(small), "id": draw(small), "kind": '"query"',
                      "objects": [str(o) for o in objects], "time": draw(small),
                      "tolerance": draw(small)}
        else:
            fields = {"cost": draw(small), "id": draw(small), "kind": '"update"',
                      "object": str(draw(st.integers(0, 7))), "time": draw(small)}
        mutations = draw(st.sets(st.sampled_from(
            ["odd-int", "odd-object", "spaces", "reorder", "extra", "missing", "bom", "crlf"]),
            max_size=2))
        ints = [k for k in fields if k not in ("kind", "objects")]
        if "odd-int" in mutations:
            fields[draw(st.sampled_from(ints))] = draw(st.sampled_from(ODD_INTS))
        if "odd-object" in mutations and "objects" in fields:
            fields["objects"][draw(st.integers(0, len(fields["objects"]) - 1))] = \
                draw(st.sampled_from(ODD_INTS))
        if "missing" in mutations:
            del fields[draw(st.sampled_from(sorted(fields)))]
        if "extra" in mutations:
            fields["note"] = draw(st.sampled_from(["1", '"x"', "[]"]))
        keys = draw(st.permutations(list(fields))) if "reorder" in mutations else list(fields)
        comma, colon = (", ", ": ") if "spaces" in mutations else (",", ":")
        text = "{" + comma.join(
            f'"{k}"{colon}' + ("[" + comma.join(fields[k]) + "]" if k == "objects"
                               else fields[k]) for k in keys) + "}"
        lines.append(("\ufeff" if "bom" in mutations else "") + text
                     + ("\r\n" if "crlf" in mutations else "\n"))
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return lines


class TestTemplatePath:
    """The reader builds a line in the writer's own spelling from its template
    match, without the JSON decoder, and every other line through `json`; the
    two paths give the same events and the same errors."""

    NEVER = mock.patch.object(workload, "_EVENT_RE", re.compile(b"(?!)"))

    @staticmethod
    def read(path):
        """Events, errors and counts as the reader gives them, after checking
        that every query's objects are interned all-int frozensets."""
        rep = ValidationReport()
        events = list(_read(path, rep)[1])
        sets = [ev.objects for ev in events if type(ev) is Query]
        assert all(type(o) is int for objects in sets for o in objects)
        assert len({id(s) for s in sets}) == len(set(sets))
        return events, rep.errors, rep.n_queries, rep.n_updates

    @settings(max_examples=300, deadline=None)
    @given(record_lines())
    def test_template_path_reads_as_the_json_path(self, lines):
        header = json.dumps({"catalog": "catalog.json", "n_events": len(lines),
                             "schema": "trace/v1"}) + "\n"
        data = (header + "".join(lines)).encode()
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            write_catalog(ObjectCatalog.from_sizes({o: 1 for o in range(6)}), d / "catalog.json")
            (d / "trace.jsonl").write_bytes(data)
            (d / "trace.jsonl.gz").write_bytes(gzip.compress(data))
            fast = [self.read(d / name) for name in ("trace.jsonl", "trace.jsonl.gz")]
            with self.NEVER, mock.patch.object(json, "loads", wraps=json.loads) as loads:
                slow = [self.read(d / name) for name in ("trace.jsonl", "trace.jsonl.gz")]
        assert fast[0] == fast[1] == slow[0] == slow[1]
        # Under NEVER every record line is decoded: were NEVER to patch a
        # name the reader does not use, both sides would take the template
        # path. Each read also decodes its header and, through json.load, its
        # catalog.
        assert loads.call_count == 2 * (2 + len(lines))

    @pytest.mark.parametrize("valid", [
        '{"cost":1,"id":2,"kind":"query","objects":[1],"time":2,"tolerance":0}',
        '{"cost": 1, "id": 2, "kind": "query", "objects": [1], "time": 2, "tolerance": 0}',
    ], ids=["template", "json"])
    @pytest.mark.parametrize("odd", ["1.0", "true"])
    def test_a_rejected_object_set_is_never_shared(self, tmp_path, odd, valid):
        # [1.0] and [true] give sets equal to frozenset({1}); sharing one
        # before Query rejects it would hand a later valid query a float.
        write_catalog(ObjectCatalog.from_sizes({1: 1}), tmp_path / "catalog.json")
        (tmp_path / "trace.jsonl").write_text(
            '{"catalog":"catalog.json","n_events":2,"schema":"trace/v1"}\n'
            f'{{"cost":1,"id":1,"kind":"query","objects":[{odd}],"time":1,"tolerance":0}}\n'
            f"{valid}\n")
        rep = ValidationReport()
        (ev,) = _read(tmp_path / "trace.jsonl", rep)[1]
        assert rep.errors == [(2, "bad event record: query record has a non-integer field")]
        assert ev.objects == {1} and all(type(o) is int for o in ev.objects)

    @pytest.mark.parametrize("params", [
        GeneratorParams(),
        GeneratorParams(n_queries=5_000, n_updates=5_000),                       # hot68
        dataclasses.replace(GeneratorParams.scaled_hotspots(532), size_max=2_000_000_000,
                            selectivity=0.5, query_hotspot_weight=0.2,
                            n_queries=4_000, n_updates=4_000),                   # churn532
    ], ids=["default", "hot68", "churn532"])
    def test_every_written_line_fits_a_template(self, tmp_path, params):
        # Were the writer's spelling and the templates to drift apart, every
        # line would silently take the JSON path.
        catalog, events = generate(params, seed=1)
        self.assert_templated(tmp_path, catalog, events)

    def test_zero_and_limit_sized_ints_fit_a_template(self, tmp_path):
        big = int("9" * 4300)           # the most digits int() reads by default
        top = 2**53 - 1                 # the largest cost
        catalog = ObjectCatalog.from_sizes({0: 1, big: 1})
        events = [Query(1, 0, frozenset({0}), 0, 0, 1), Update(2, 0, 0, 0, 2),
                  Query(big, big, frozenset({0, big}), top, big, 3),
                  Update(big, big, big, top, 4)]
        self.assert_templated(tmp_path, catalog, events)

    @staticmethod
    def assert_templated(d, catalog, events):
        write_catalog(catalog, d / "catalog.json")
        write_trace(events, d / "trace.jsonl")
        lines = (d / "trace.jsonl").read_bytes().splitlines(keepends=True)[1:]
        assert len(lines) == len(events)
        for line in lines:
            assert workload._EVENT_RE.fullmatch(line)
        assert list(load_trace(d / "trace.jsonl")[1]) == list(events)


class TestEventFieldsInTraces:
    """A record that `Query`/`Update` refuse to build is reported on its own
    line, and the lines around it still read."""

    QUERY = {"kind": "query", "id": 5, "time": 20, "objects": [1], "cost": 4, "tolerance": 0}
    UPDATE = {"kind": "update", "id": 6, "time": 20, "object": 1, "cost": 3}

    @pytest.mark.parametrize("record, message", [
        ({**UPDATE, "cost": True}, "update record has a non-integer field"),
        ({**QUERY, "cost": 1.5}, "query record has a non-integer field"),
        ({**QUERY, "objects": [1, "2"]}, "query record has a non-integer field"),
        ({**QUERY, "objects": []}, "query 5 accesses no objects"),
        ({**UPDATE, "cost": -3}, "update 6 has negative cost -3"),
        ({**QUERY, "tolerance": -1}, "query 5 has negative tolerance"),
    ], ids=["bool-cost", "float-cost", "string-object-id", "no-objects", "negative-cost",
            "negative-tolerance"])
    def test_validate_names_the_line(self, tmp_path, record, message):
        write_catalog(read_catalog(DATA_DIR / "worked_example" / "catalog.json"),
                      tmp_path / "catalog.json")
        records = [{"schema": "trace/v1", "catalog": "catalog.json", "n_events": 3},
                   {"kind": "update", "id": 1, "time": 10, "object": 1, "cost": 1},
                   record,
                   {"kind": "query", "id": 2, "time": 30, "objects": [1], "cost": 2}]
        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join(json.dumps(r) + "\n" for r in records))
        rep = validate(trace)
        assert rep.errors == [(3, f"bad event record: {message}")]
        assert (rep.n_queries, rep.n_updates) == (1, 1)


class TestCatalogContract:
    """Catalog fields are integers, as event fields are, and ids are unique."""

    BAD = {
        "float-size": [{"id": 0, "size": 1.5, "load_cost": 2}],
        "float-load-cost": [{"id": 0, "size": 1, "load_cost": 2.5}],
        "bool-size": [{"id": 0, "size": True, "load_cost": 2}],
        "bool-id": [{"id": False, "size": 1, "load_cost": 2}],
        "string-id": [{"id": "0", "size": 1, "load_cost": 2}],
        "duplicate-id": [{"id": 0, "size": 1, "load_cost": 2},
                         {"id": 0, "size": 3, "load_cost": 4}],
        "size-above-max": [{"id": 0, "size": 2**53, "load_cost": 2}],
        "load-cost-1e400": [{"id": 0, "size": 1, "load_cost": 10**400}],
    }

    @pytest.fixture(params=sorted(BAD))
    def bad_trace(self, request, tmp_path):
        (tmp_path / "catalog.json").write_text(
            json.dumps({"schema": "catalog/v1", "objects": self.BAD[request.param]}))
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            json.dumps({"schema": "trace/v1", "catalog": "catalog.json",
                        "n_events": 1}) + "\n" +
            json.dumps({"kind": "query", "id": 1, "time": 1, "objects": [0],
                        "cost": 1, "tolerance": 0}) + "\n")
        return trace

    def test_validate_reports_line_1(self, bad_trace):
        rep = validate(bad_trace)
        assert rep.errors and rep.errors[0][0] == 1
        assert "bad header or catalog" in rep.errors[0][1]

    @pytest.mark.parametrize("command", [["validate"], ["run", "--policy", "nocache"],
                                         ["compare"]], ids=["validate", "run", "compare"])
    def test_cli_exits_1(self, bad_trace, command, capsys):
        extra = [] if command == ["validate"] else ["--seed", "1", "--out",
                                                    str(bad_trace.parent)]
        assert main(command + ["--trace", str(bad_trace)] + extra) == 1
        err = capsys.readouterr().err
        assert ":1: bad header or catalog" in err and "Traceback" not in err
        assert not list(bad_trace.parent.glob("*.csv"))

    @pytest.mark.parametrize("sizes, costs", [
        ({0: 1.5}, None), ({0: 1}, {0: 2.5}), ({0: True}, None),
        ({True: 1}, None), ({0: 1}, {0: True})],
        ids=["float-size", "float-load-cost", "bool-size", "bool-id", "bool-load-cost"])
    def test_from_sizes_rejects_non_int(self, sizes, costs):
        with pytest.raises(ValueError, match="must be integers"):
            ObjectCatalog.from_sizes(sizes, costs)

    @pytest.mark.parametrize("build", [
        lambda oid, size, lc: ObjectCatalog({oid: ObjectInfo(size, lc)}),
        lambda oid, size, lc: ObjectCatalog.from_sizes({oid: size}, {oid: lc}),
    ], ids=["direct", "from_sizes"])
    @pytest.mark.parametrize("oid, size, lc, message", [
        (0, 0, 1, "object 0: size must be positive, got 0"),
        (0, 1, -2, "object 0: load cost must be positive, got -2"),
        (0, 1.5, 1, "object 0: id, size and load cost must be integers, got 1.5 and 1"),
        (0, 1, True, "object 0: id, size and load cost must be integers, got 1 and True"),
        ("0", 1, 1, "object '0': id, size and load cost must be integers, got 1 and 1"),
        (0, 2**53, 1, "object 0: size must be at most 9007199254740991"),
        (0, 1, 10**400, "object 0: load cost must be at most 9007199254740991"),
    ], ids=["zero-size", "negative-load-cost", "float-size", "bool-load-cost", "string-id",
            "size-above-max", "load-cost-1e400"])
    def test_every_way_of_building_checks_it(self, build, oid, size, lc, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(oid, size, lc)

    @pytest.mark.parametrize("entry", [(1, 1), {"size": 1, "load_cost": 1}, 1],
                             ids=["tuple", "dict", "int"])
    def test_entry_that_is_not_an_object_info_is_refused(self, entry):
        with pytest.raises(ValueError, match=f"^object 0: entry must be an ObjectInfo, "
                                             f"not {type(entry).__name__}$"):
            ObjectCatalog({0: entry})

    def test_largest_quantity_builds(self):
        top = 2**53 - 1
        for catalog in (ObjectCatalog({0: ObjectInfo(top, top)}),
                        ObjectCatalog.from_sizes({0: top})):
            assert catalog.entries[0].size == catalog.entries[0].load_cost == top

    def test_derived_catalogs_are_checked(self, tmp_path):
        catalog = ObjectCatalog.from_sizes({0: 2**52, 1: 2**52})
        with pytest.raises(ValueError, match="^object 0: size must be at most "):
            regrain(catalog, [], 1)     # the merged size is 2**53
        with pytest.raises(ValueError, match="^object 1: size must be positive, got 0$"):
            dataclasses.replace(catalog, entries={1: ObjectInfo(0, 1)})
        with pytest.raises(ValueError, match="^object 0: load cost must be at most "):
            generate(GeneratorParams(n_objects=1, size_min=10**10, size_max=10**10,
                                     load_cost_factor=10**6, query_hotspots=(),
                                     update_hotspots=()), seed=1)
        (tmp_path / "catalog.json").write_text(json.dumps(
            {"schema": "catalog/v1", "objects": [{"id": 0, "size": 1, "load_cost": 0}]}))
        with pytest.raises(ValueError, match="^object 0: load cost must be positive, got 0$"):
            read_catalog(tmp_path / "catalog.json")

    @pytest.mark.parametrize("write", [
        lambda c: operator.setitem(c.entries, 0, ObjectInfo(0, 1)),
        lambda c: operator.delitem(c.entries, 0),
        lambda c: c.entries.update({0: ObjectInfo(0, 1)}),
        lambda c: c.entries.pop(0),
        lambda c: c.entries.clear(),
        lambda c: c.entries.setdefault(9, ObjectInfo(1, 1)),
        lambda c: setattr(c, "entries", {0: ObjectInfo(0, 1)}),
    ], ids=["setitem", "del", "update", "pop", "clear", "setdefault", "assign-entries"])
    def test_entries_refuse_every_write(self, small_catalog, write):
        """A built catalog cannot be changed past its checks, and it still
        pickles, deep-copies, replaces and compares as a value."""
        with pytest.raises((TypeError, AttributeError)):
            write(small_catalog)
        assert small_catalog.entries[0].size == 10 and len(small_catalog.entries) == 4
        for twin in (pickle.loads(pickle.dumps(small_catalog)), copy.deepcopy(small_catalog),
                     dataclasses.replace(small_catalog)):
            assert twin is not small_catalog and twin == small_catalog
            assert twin.entries[3].size == 40
        assert small_catalog != ObjectCatalog.from_sizes({0: 10})


class TestUnreadableTrace:
    """A trace that cannot be read to its end, or holds bytes that are not
    UTF-8, is an invalid trace: every reader path names the line where
    reading stopped or the bad byte sits, and raises nothing else."""

    @staticmethod
    def gzip_cut(data: bytes, n: int) -> bytes:
        """The gzip stream of `data`, cut right after its first `n` bytes
        (a full flush there, then no end-of-stream marker)."""
        c = zlib.compressobj(wbits=31)
        return c.compress(data[:n]) + c.flush(zlib.Z_FULL_FLUSH)

    @staticmethod
    def with_bad_byte(lines: list[bytes], index: int) -> bytes:
        lines = list(lines)
        lines[index] = lines[index][:10] + b"\xff" + lines[index][10:]
        return b"".join(lines)

    @pytest.fixture(params=["truncated-mid-stream", "corrupt-header-block",
                            "truncated-header-block", "bad-byte-early", "bad-byte-late"])
    def probe(self, request, tmp_path):
        """(trace path, line its first error must name)"""
        params = GeneratorParams(n_objects=8, n_queries=300, n_updates=300,
                                 query_hotspots=(1,), update_hotspots=(5,))
        catalog, events = generate(params, seed=3)
        write_catalog(catalog, tmp_path / "catalog.json")
        write_trace(events, tmp_path / "whole.jsonl")
        data = (tmp_path / "whole.jsonl").read_bytes()
        lines = data.splitlines(keepends=True)
        kind = request.param
        if kind == "truncated-mid-stream":
            line, content = 282, self.gzip_cut(data, len(b"".join(lines[:281])))
        elif kind == "corrupt-header-block":
            # A first deflate byte of 0xff declares the reserved block type.
            line, content = 1, gzip.compress(data)[:10] + b"\xff" + bytes(64)
        elif kind == "truncated-header-block":
            line, content = 1, self.gzip_cut(data, 20)
        elif kind == "bad-byte-early":
            assert len(b"".join(lines[:6])) < 8192
            line, content = 6, self.with_bad_byte(lines, 5)
        else:
            assert len(b"".join(lines[:500])) > 8192
            line, content = 501, self.with_bad_byte(lines, 500)
        trace = tmp_path / ("trace.jsonl" if kind.startswith("bad-byte") else "trace.jsonl.gz")
        trace.write_bytes(content)
        return trace, line

    def test_validate_names_the_line(self, probe):
        trace, line = probe
        rep = validate(trace)
        assert rep.errors[0][0] == line

    def test_load_trace_raises_naming_the_line(self, probe):
        trace, line = probe
        with pytest.raises(TraceError) as exc:
            load_trace(trace)
        assert str(exc.value).startswith(f"{trace}:{line}: ")

    def test_report_counts_the_events_read(self, probe):
        # However reading ends, the counts are those of the events yielded
        # before it ended.
        trace, line = probe
        events = list(_read(trace, ValidationReport())[1])
        assert len(events) >= line - 2
        rep = validate(trace)
        n_queries = sum(type(ev) is Query for ev in events)
        assert (rep.n_queries, rep.n_updates) == (n_queries, len(events) - n_queries)

    def test_run_exits_1_with_one_line(self, probe, capsys):
        trace, line = probe
        rc = main(["run", "--policy", "nocache", "--trace", str(trace),
                   "--seed", "1", "--out", str(trace.parent)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [err.rstrip("\n")]
        assert err.startswith(f"invalid trace: {trace}:{line}: ")
        assert "Traceback" not in err


class TestRegrain:
    def test_merge_preserves_mass_and_costs(self):
        params = GeneratorParams(n_objects=20, n_queries=50, n_updates=50,
                                 query_hotspots=(3,), update_hotspots=(12,))
        catalog, events = generate(params, seed=8)
        merged, mevents = regrain(catalog, events, 5)
        assert len(merged.entries) == 5
        assert merged.total_size == catalog.total_size
        assert sum(e.ship_cost for e in mevents) == sum(e.ship_cost for e in events)
        for ev in mevents:
            oids = ev.objects if isinstance(ev, Query) else {ev.object}
            assert all(o in merged.entries for o in oids)

    def test_splitting_rejected(self, small_catalog):
        with pytest.raises(ValueError):
            regrain(small_catalog, [], 10)


class TestTraceValue:
    """`core.Trace` holds events that passed the whole contract. The reader,
    the generator and `regrain` return one; `Trace.of` checks any other
    sequence, failing exactly where `validate` fails on the same events."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_trace_of_fails_where_validate_does(self, data):
        # Small id and object ranges make duplicate ids (also across kinds)
        # and unknown objects (id n_objects) common; time ties too.
        n_objects = data.draw(st.integers(1, 3), label="objects")
        catalog = ObjectCatalog.from_sizes({o: 1 for o in range(n_objects)})
        oid = st.sampled_from([*range(n_objects)] * 4 + [n_objects])
        time, events = data.draw(st.integers(0, 3)), []
        for seq in range(1, data.draw(st.integers(0, 10), label="events") + 1):
            time += data.draw(st.sampled_from([0, 0, 1, 1, 2, -1]))
            eid, cost = data.draw(st.integers(1, 8)), data.draw(st.integers(0, 3))
            if data.draw(st.booleans()):
                objects = data.draw(st.frozensets(oid, min_size=1, max_size=2))
                events.append(Query(qid=eid, time=time, objects=objects, ship_cost=cost,
                                    seq=seq))
            else:
                events.append(Update(uid=eid, time=time, object=data.draw(oid),
                                     ship_cost=cost, seq=seq))
        with tempfile.TemporaryDirectory() as tmp:
            write_catalog(catalog, Path(tmp) / "catalog.json")
            write_trace(events, Path(tmp) / "trace.jsonl")
            rep = validate(Path(tmp) / "trace.jsonl")
        if rep.ok:
            assert list(Trace.of(catalog, events)) == events
            return
        line, message = rep.errors[0]
        with pytest.raises(ValueError) as exc:
            Trace.of(catalog, events)
        position = line - 1            # the header is line 1
        assert str(exc.value) == f"event {position}: {message}"

    def test_one_event_breaking_several_rules(self, tmp_path):
        # `validate` reports every rule the line breaks, in rule order, and
        # Trace.of raises the first; both word them as EventContract does.
        catalog = ObjectCatalog.from_sizes({0: 1, 1: 1})
        first = Query(qid=1, time=5, objects=frozenset({0}), ship_cost=1, seq=1)
        bad = Query(qid=1, time=4, objects=frozenset({9, 0, 7}), ship_cost=1, seq=2)
        rules = ["query 1 references unknown object 7", "query 1 references unknown object 9",
                 "duplicate query id 1", "events out of order: time 4 after 5"]
        write_catalog(catalog, tmp_path / "catalog.json")
        write_trace([first, bad], tmp_path / "trace.jsonl")
        assert validate(tmp_path / "trace.jsonl").errors == [(3, m) for m in rules]
        with pytest.raises(ValueError, match=f"^event 2: {rules[0]}$"):
            Trace.of(catalog, [first, bad])
        # The reader never repeats a seq; a list can, and that rule comes first.
        again = dataclasses.replace(bad, seq=1)
        with pytest.raises(ValueError, match=r"^event 2: seq 1 is not above the previous seq 1$"):
            Trace.of(catalog, [first, again])
        contract = EventContract(catalog)
        assert contract.check(first) == ()
        assert contract.check(again) == ("seq 1 is not above the previous seq 1", *rules)
        # A failing event still joins the state: time 4 and seq 1 are the last.
        assert contract.check(Query(qid=2, time=4, objects=frozenset({1}), ship_cost=1,
                                    seq=2)) == ()
        assert contract.check(Update(uid=1, time=4, object=1, ship_cost=1, seq=3)) == ()
        assert contract.check(Update(uid=1, time=4, object=1, ship_cost=1, seq=4)) == \
            ("duplicate update id 1",)

    def test_empty_sequence_is_a_trace(self, small_catalog):
        assert len(Trace.of(small_catalog, [])) == 0

    def test_readers_return_a_trace_of_their_catalog(self, tmp_path):
        params = GeneratorParams(n_objects=8, n_queries=30, n_updates=30,
                                 query_hotspots=(1,), update_hotspots=(5,))
        catalog, events = generate(params, seed=3)
        write_catalog(catalog, tmp_path / "catalog.json")
        write_trace(events, tmp_path / "trace.jsonl")
        loaded_catalog, loaded = load_trace(tmp_path / "trace.jsonl")
        merged, regrained = regrain(catalog, events, 4)
        for cat, trace in ((catalog, events), (loaded_catalog, loaded), (merged, regrained)):
            assert type(trace) is Trace
            assert trace.object_ids == frozenset(cat.entries)
            assert list(Trace.of(cat, trace)) == list(trace)
        assert loaded == events

    def test_equal_object_sets_are_one_frozenset(self, tmp_path):
        params = GeneratorParams(n_objects=8, n_queries=60, n_updates=10,
                                 query_hotspots=(1,), update_hotspots=(5,))
        catalog, events = generate(params, seed=3)
        write_catalog(catalog, tmp_path / "catalog.json")
        write_trace(events, tmp_path / "trace.jsonl")
        for trace in (events, load_trace(tmp_path / "trace.jsonl")[1],
                      regrain(catalog, events, 3)[1]):
            sets = [ev.objects for ev in trace if isinstance(ev, Query)]
            assert len(set(sets)) < len(sets)
            assert len({id(s) for s in sets}) == len(set(sets))

    def test_trace_is_immutable(self, small_catalog):
        trace = Trace.of(small_catalog, [Update(uid=1, time=1, object=0, ship_cost=1, seq=1)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.events = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.object_ids = frozenset({0, 1, 2, 3, 9})
        with pytest.raises(TypeError, match=r"Trace\.of"):
            Trace(trace.events, trace.object_ids)
        assert not hasattr(trace, "__dict__")

    def test_slices_are_plain_tuples_that_run_checks_again(self, monkeypatch):
        params = GeneratorParams(n_objects=6, n_queries=20, n_updates=20,
                                 query_hotspots=(1,), update_hotspots=(4,))
        catalog, events = generate(params, seed=2)
        assert type(events[3:]) is tuple and type(events[0]) in (Query, Update)
        checked = []
        of = Trace.of
        monkeypatch.setattr(Trace, "of", lambda cat, evs: checked.append(len(evs)) or of(cat, evs))
        config = RunConfig(policy="nocache", seed=0)
        assert run(events[3:], catalog, config).summary_json() == \
            run(of(catalog, events[3:]), catalog, config).summary_json()
        assert checked == [len(events) - 3]
        run(events, catalog, config)
        assert checked == [len(events) - 3]
        with pytest.raises(ValueError, match=r"^event 2: seq \d+ is not above"):
            run(events[::-1], catalog, config)

    def test_trace_is_checked_again_under_a_catalog_missing_one_of_its_ids(
            self, monkeypatch):
        wide = ObjectCatalog.from_sizes({0: 10, 1: 20, 2: 30})
        trace = Trace.of(wide, [Query(qid=1, time=1, objects=frozenset({0, 1}),
                                      ship_cost=5, seq=1),
                                Update(uid=1, time=2, object=1, ship_cost=3, seq=2)])
        checked = []
        of = Trace.of
        monkeypatch.setattr(Trace, "of", lambda cat, evs: checked.append(cat) or of(cat, evs))
        config = RunConfig(policy="nocache", seed=0)
        narrow = ObjectCatalog.from_sizes({0: 10, 1: 20})
        assert run(trace, narrow, config).ledger.total == 5
        assert checked == [narrow]
        run(trace, ObjectCatalog.from_sizes({0: 10, 1: 20, 2: 30, 3: 40}), config)
        assert checked == [narrow]
        with pytest.raises(ValueError, match=r"^event 1: query 1 references unknown object 1$"):
            run(trace, ObjectCatalog.from_sizes({0: 10, 2: 30}), config)

    def test_an_item_that_is_no_event_is_named(self, small_catalog):
        events = [Update(uid=1, time=1, object=0, ship_cost=1, seq=1), {"kind": "update"}]
        with pytest.raises(TypeError, match=r"^event 2: \{'kind': 'update'\} is not a Query"):
            Trace.of(small_catalog, events)
