import csv
import dataclasses
import gc
import hashlib
import io
import json
from pathlib import Path

import pytest

from midcache.cli import main
from midcache.core import ObjectCatalog, Query
from midcache.simharness import POLICY_NAMES, ComparisonReport, RunConfig, run
from midcache.workload import (GeneratorParams, generate, load_trace, regrain,
                               write_catalog, write_trace)
from tests.conftest import DATA_DIR


@pytest.fixture
def workspace(tmp_path):
    rc = main(["gen", "--objects", "12", "--queries", "80", "--updates", "80",
               "--seed", "7", "--out", str(tmp_path)])
    assert rc == 0
    return tmp_path


class TestGen:
    def test_writes_catalog_and_trace(self, workspace):
        assert (workspace / "catalog.json").exists()
        assert (workspace / "trace.jsonl").exists()

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["gen", "--objects", "10", "--queries", "50", "--updates", "50",
                  "--seed", "3", "--out", str(out)])
        assert (a / "trace.jsonl").read_bytes() == (b / "trace.jsonl").read_bytes()
        assert (a / "catalog.json").read_bytes() == (b / "catalog.json").read_bytes()

    def test_seed_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["gen", "--out", str(tmp_path)])

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MIDCACHE_OUT", str(tmp_path / "envout"))
        rc = main(["gen", "--objects", "6", "--queries", "5", "--updates", "5",
                   "--seed", "1"])
        assert rc == 0
        assert (tmp_path / "envout" / "trace.jsonl").exists()

    @pytest.mark.parametrize("flag, event", [
        ("--selectivity", "query 1"), ("--update-fraction", "update 4")])
    def test_drawn_cost_past_byte_bound_names_the_flag(self, tmp_path, capsys, flag, event):
        # The value passes GeneratorParams' own checks; only the costs it
        # draws pass 2**53 - 1, and the error names the flag that set them.
        out = tmp_path / "out"
        rc = main(["gen", "--seed", "1", "--queries", "5", "--updates", "5", flag, "1e10",
                   "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {flag} 10000000000.0: {event} has cost above "
                                "9007199254740991\n")
        assert not out.exists()


class TestValidate:
    def test_valid_trace(self, workspace, capsys):
        rc = main(["validate", "--trace", str(workspace / "trace.jsonl")])
        assert rc == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_trace_nonzero_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema":"nope"}\n')
        rc = main(["validate", "--trace", str(bad)])
        assert rc == 1


class TestRun:
    def test_run_writes_reports(self, workspace, capsys):
        rc = main(["run", "--policy", "vcover", "--trace",
                   str(workspace / "trace.jsonl"), "--seed", "1",
                   "--out", str(workspace)])
        assert rc == 0
        assert (workspace / "run-vcover-seed1.json").exists()
        assert (workspace / "run-vcover-seed1.csv").exists()
        assert "vcover: total=" in capsys.readouterr().out

    def test_run_twice_identical_outputs(self, workspace, tmp_path):
        outs = []
        for sub in ("x", "y"):
            out = tmp_path / sub
            rc = main(["run", "--policy", "vcover", "--trace",
                       str(workspace / "trace.jsonl"), "--seed", "5",
                       "--out", str(out)])
            assert rc == 0
            outs.append((out / "run-vcover-seed5.json").read_bytes()
                        + (out / "run-vcover-seed5.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", [["run", "--policy", "vcover"], ["compare"]])
    @pytest.mark.parametrize("bad", [
        {"kind": "update", "id": 9, "time": 10**7, "object": 99, "cost": 1},
        {"kind": "query", "id": 7, "time": 10**7, "objects": [1], "cost": 1},
    ], ids=["unknown-object", "duplicate-query-id"])
    def test_invalid_trace_exits_1_naming_the_line(self, tmp_path, capsys, command, bad):
        src = DATA_DIR / "worked_example"
        (tmp_path / "catalog.json").write_bytes((src / "catalog.json").read_bytes())
        lines = (src / "trace.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        header["n_events"] += 1
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join([json.dumps(header)] + lines[1:] + [json.dumps(bad)]) + "\n")
        rc = main(command + ["--trace", str(trace), "--seed", "1", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{trace}:{len(lines) + 1}: " in err
        assert "Traceback" not in err


class TestGcFreeze:
    """`run` and `compare` freeze the loaded trace out of the cyclic GC; the
    library's run() leaves the process's GC as it found it."""

    def test_cli_run_freezes_and_writes_what_run_returns(self, workspace, tmp_path):
        assert gc.get_freeze_count() == 0
        assert main(["run", "--policy", "vcover", "--trace", str(workspace / "trace.jsonl"),
                     "--seed", "1", "--out", str(tmp_path)]) == 0
        assert gc.get_freeze_count() > 0
        catalog, events = load_trace(workspace / "trace.jsonl")
        report = run(events, catalog, RunConfig(policy="vcover", seed=1))
        assert (tmp_path / "run-vcover-seed1.json").read_text() == report.summary_json()
        assert (tmp_path / "run-vcover-seed1.csv").read_text() == report.series_csv()

    def test_library_run_leaves_the_freeze_count(self, workspace):
        catalog, events = load_trace(workspace / "trace.jsonl")
        gc.freeze()
        before = gc.get_freeze_count()
        for policy in POLICY_NAMES:
            run(events, catalog, RunConfig(policy=policy, seed=1))
        assert gc.get_freeze_count() == before


class TestCompare:
    def test_five_way_compare(self, workspace, capsys):
        rc = main(["compare", "--trace", str(workspace / "trace.jsonl"),
                   "--seed", "2", "--cache-frac", "0.3", "--out", str(workspace),
                   "--policies", "vcover,benefit,nocache,replica,soptimal"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("vcover", "benefit", "nocache", "replica", "soptimal"):
            assert f"{name}: total=" in out
        doc = json.loads((workspace / "compare.json").read_text())
        assert len(doc["runs"]) == 5

    def test_granularity_sweep(self, workspace):
        rc = main(["compare", "--trace", str(workspace / "trace.jsonl"),
                   "--seed", "2", "--policies", "nocache,replica",
                   "--granularity", "3,6", "--out", str(workspace)])
        assert rc == 0
        assert (workspace / "compare-g3.json").exists()
        assert (workspace / "compare-g6.json").exists()

    @pytest.mark.parametrize("grains, trace", [
        ("3,0", "trace.jsonl"), ("0", "missing.jsonl"), ("6,99", "trace.jsonl"),
        ("3,a", "trace.jsonl"), ("3,,6", "trace.jsonl"), ("a", "missing.jsonl")],
        ids=["zero-after-valid", "zero-missing-trace", "above-catalog-size",
             "non-integer-after-valid", "empty-entry", "non-integer-missing-trace"])
    def test_bad_granularity_rejected_before_any_grain(self, workspace, capsys,
                                                       grains, trace):
        rc = main(["compare", "--trace", str(workspace / trace), "--seed", "2",
                   "--policies", "nocache", "--granularity", grains,
                   "--out", str(workspace)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --granularity")
        assert not list(workspace.glob("compare-g*"))

    def test_granularity_past_byte_bound_named(self, tmp_path, capsys):
        # Each object fits the 2**53 - 1 bound, but merged into one group
        # they do not: the error names the granularity, not merged object 0.
        write_catalog(ObjectCatalog.from_sizes({0: 2**52, 1: 2**52}), tmp_path / "catalog.json")
        write_trace([Query(qid=1, time=1, objects=frozenset({0, 1}), ship_cost=5, seq=1)],
                    tmp_path / "trace.jsonl")
        rc = main(["compare", "--trace", str(tmp_path / "trace.jsonl"), "--seed", "1",
                   "--policies", "nocache", "--granularity", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: --granularity 1: a merged object's size or load cost would be "
            "above 9007199254740991\n")

    def test_unknown_policy_rejected(self, workspace, capsys):
        rc = main(["compare", "--trace", str(workspace / "trace.jsonl"),
                   "--seed", "2", "--policies", "wat"])
        assert rc == 2
        assert "unknown policy" in capsys.readouterr().err


class TestBadOptions:
    @pytest.mark.parametrize("argv", [
        ["run", "--policy", "vcover", "--cache-frac", "2"],
        ["run", "--policy", "benefit", "--alpha", "2"],
        ["compare", "--granularity", "0"],
        ["compare", "--policies", ","],
        ["gen", "--objects", "0"],
        ["gen", "--interarrival-us", "0"],
        ["gen", "--queries", "-5"],
        ["gen", "--updates", "-1"],
    ], ids=["cache-frac", "alpha", "granularity", "no-policies", "objects",
            "interarrival-us", "queries", "updates"])
    def test_bad_value_exits_2_with_one_line(self, workspace, capsys, argv):
        if argv[0] != "gen":
            argv = argv + ["--trace", str(workspace / "trace.jsonl")]
        rc = main(argv + ["--seed", "1", "--out", str(workspace / "bad")])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["run", "--policy", "benefit", "--alpha", "2"],
        ["run", "--policy", "benefit", "--delta", "0"],
        ["compare", "--policies", "vcover,benefit", "--alpha", "2"],
    ], ids=["alpha", "delta", "alpha-after-vcover"])
    def test_bad_value_checked_before_the_trace(self, tmp_path, capsys, argv):
        rc = main(argv + ["--trace", str(tmp_path / "missing.jsonl"),
                          "--seed", "1", "--out", str(tmp_path / "bad")])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["gen", "run", "compare", "report"])
    def test_unwritable_output_exits_2_with_one_line(self, workspace, capsys, command):
        trace = workspace / "trace.jsonl"     # an existing file, not a directory
        if command == "report":
            assert main(["run", "--policy", "nocache", "--trace", str(trace),
                         "--seed", "1", "--format", "json", "--out", str(workspace)]) == 0
        argv = {"gen": ["gen", "--seed", "1", "--objects", "6", "--out", str(trace / "x")],
                "run": ["run", "--policy", "nocache", "--trace", str(trace),
                        "--seed", "1", "--out", str(trace)],
                "compare": ["compare", "--trace", str(trace), "--seed", "1",
                            "--out", str(trace)],
                "report": ["report", str(workspace / "run-nocache-seed1.json"),
                           "--out-file", str(workspace / "missing" / "x.csv")]}[command]
        capsys.readouterr()
        rc = main(argv)
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


class TestRunFlags:
    """Each replay flag reaches the runs: `run` and `compare` write the
    summary and series that a direct `run()` with the matching `RunConfig`
    gives, and `--format` writes only the file it names."""

    COMPARED = ("vcover", "benefit", "soptimal")
    DEFAULT_PARAMS = {"benefit": {"alpha": 0.5, "delta": 1000},
                      "soptimal": {"mode": "eager"}}
    # name -> (policy for `run`, flags, RunConfig fields, policy params); each
    # value differs from its default and changes the result on the trace below.
    CASES = {"cache-bytes": ("vcover", ["--cache-bytes", "1000000000"],
                             {"cache_bytes": 1_000_000_000}, {}),
             "stride": ("vcover", ["--stride", "7"], {"sample_stride": 7}, {}),
             "soptimal-lazy": ("soptimal", ["--soptimal-mode", "lazy"], {}, {"mode": "lazy"}),
             "alpha": ("benefit", ["--alpha", "0.9"], {}, {"alpha": 0.9}),
             "delta": ("benefit", ["--delta", "250"], {}, {"delta": 250})}

    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("flags")
        assert main(["gen", "--objects", "12", "--queries", "1200", "--updates", "1200",
                     "--seed", "7", "--out", str(out)]) == 0
        return out / "trace.jsonl"

    def runs(self, trace, policies, fields, params) -> list:
        catalog, events = load_trace(trace)
        return [run(events, catalog, RunConfig(
                    policy=p, seed=1, **fields,
                    params={k: params.get(k, v)
                            for k, v in self.DEFAULT_PARAMS.get(p, {}).items()}))
                for p in policies]

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flag_matches_direct_run(self, trace, tmp_path, case, command):
        policy, flags, fields, params = self.CASES[case]
        policies = [policy] if command == "run" else self.COMPARED
        runs = self.runs(trace, policies, fields, params)

        def outcome(reports):
            return [({k: v for k, v in r.summary().items() if k != "config"}, r.series)
                    for r in reports]
        assert outcome(runs) != outcome(self.runs(trace, policies, {}, {}))

        if command == "run":
            argv, stem, expect = ["run", "--policy", policy], f"run-{policy}-seed1", runs[0]
        else:
            argv, stem = ["compare", "--policies", ",".join(policies)], "compare"
            expect = ComparisonReport(runs)
        for fmt, text in (("json", expect.summary_json()), ("csv", expect.series_csv())):
            out = tmp_path / fmt
            assert main(argv + flags + ["--trace", str(trace), "--seed", "1",
                                        "--format", fmt, "--out", str(out)]) == 0
            assert [f.name for f in out.iterdir()] == [f"{stem}.{fmt}"]
            assert (out / f"{stem}.{fmt}").read_text() == text


class TestReport:
    def test_merges_summaries_to_csv(self, workspace, capsys):
        main(["compare", "--trace", str(workspace / "trace.jsonl"),
              "--seed", "2", "--policies", "nocache,replica",
              "--out", str(workspace)])
        capsys.readouterr()
        rc = main(["report", str(workspace / "compare.json"), "--label", "demo"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "label,policy,seed,n_events,query_ship,update_ship,load,total"
        assert len(lines) == 3
        assert lines[1].startswith("demo,nocache,")

    @pytest.mark.parametrize("label", ["x,y", "two\nlines"], ids=["comma", "newline"])
    def test_a_label_with_csv_syntax_reads_back_intact(self, workspace, capsys, label):
        main(["compare", "--trace", str(workspace / "trace.jsonl"),
              "--seed", "2", "--policies", "nocache,replica",
              "--out", str(workspace)])
        capsys.readouterr()
        assert main(["report", str(workspace / "compare.json"), "--label", label]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["policy"] for r in rows] == ["nocache", "replica"]
        for r in rows:
            assert len(r) == 8 and None not in r and r["label"] == label

    @pytest.mark.parametrize("content", [None, "{}", "[1, 2]", "{not json"],
                             ids=["missing", "no-config", "list", "not-json"])
    def test_bad_input_exits_2_with_one_line(self, tmp_path, capsys, content):
        path = tmp_path / "summary.json"
        if content is not None:
            path.write_text(content)
        rc = main(["report", str(path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: {path}: ")


class TestSweepRecipe:
    """The README's two sweeps, `gen` + `compare` + `report` per point, on a
    tiny trace: one report row per (point, policy), each total the one a
    direct `run()` on the generated workload gives."""

    @staticmethod
    def report_rows(capsys, *argv) -> list[dict]:
        capsys.readouterr()
        assert main(["report", *argv]) == 0
        return list(csv.DictReader(io.StringIO(capsys.readouterr().out)))

    def test_update_and_granularity_sweeps(self, tmp_path, capsys):
        rows = []
        for n in (20, 40):
            out = str(tmp_path / f"u{n}")
            assert main(["gen", "--seed", "1", "--queries", "40", "--updates", str(n),
                         "--out", out]) == 0
            assert main(["compare", "--trace", f"{out}/trace.jsonl", "--seed", "1",
                         "--cache-frac", "0.3", "--out", out]) == 0
            rows += self.report_rows(capsys, f"{out}/compare.json", "--label", str(n))
        expect = []
        for n in (20, 40):
            catalog, events = generate(GeneratorParams(n_queries=40, n_updates=n), 1)
            expect += [(str(n), p, run(events, catalog, RunConfig(
                policy=p, seed=1, cache_frac=0.3)).ledger.total) for p in POLICY_NAMES]
        assert [(r["label"], r["policy"], int(r["total"])) for r in rows] == expect

        out = str(tmp_path / "grain")
        assert main(["gen", "--seed", "1", "--objects", "24", "--queries", "40",
                     "--updates", "40", "--out", out]) == 0
        policies = ("vcover", "benefit", "soptimal")
        assert main(["compare", "--trace", f"{out}/trace.jsonl", "--seed", "1",
                     "--granularity", "24,12,6", "--policies", ",".join(policies),
                     "--out", out]) == 0
        rows = self.report_rows(capsys, *(f"{out}/compare-g{g}.json" for g in (24, 12, 6)))
        catalog, events = generate(dataclasses.replace(
            GeneratorParams.scaled_hotspots(24), n_queries=40, n_updates=40), 1)
        expect = []
        for g in (24, 12, 6):
            cat, evs = (catalog, events) if g == 24 else regrain(catalog, events, g)
            expect += [(f"compare-g{g}", p, run(evs, cat, RunConfig(
                policy=p, seed=1, cache_frac=0.3)).ledger.total) for p in policies]
        assert [(r["label"], r["policy"], int(r["total"])) for r in rows] == expect


class TestAuditPath:
    def test_worked_example_through_cli(self, tmp_path, capsys):
        rc = main(["run", "--policy", "vcover",
                   "--trace", str(DATA_DIR / "worked_example" / "trace.jsonl"),
                   "--seed", "4", "--cache-frac", "1.0", "--out", str(tmp_path)])
        assert rc == 0


class TestCliDigests:
    """Byte identity of the CLI's file round trip: `gen` writes a catalog and
    a trace, `compare` reads them back and writes its reports. The 91-object
    catalog takes the scaled-hotspot path; the five-policy compare passes
    the benefit and soptimal params through from their flags."""

    GEN = ["gen", "--seed", "3", "--queries", "200", "--updates", "200"]
    GOLDEN = {
        "gen": "21169c322a3148e142af0b3e5a8af8f5a8614627e6527915c0edd2cb660a0084",
        "gen-91": "b2c4ca436e2991fc5921a90ad288ec1b38889e554141231343041447a431e2e2",
        "compare": "1ba247c5fbbbc8509f0e211321abadd680610ea1fa9ac7bb9d93bbf625ad8630",
    }

    @staticmethod
    def digest(out: Path, *names: str) -> str:
        return hashlib.sha256(b"".join((out / n).read_bytes() for n in names)).hexdigest()

    def test_gen_and_compare_outputs_pinned(self, tmp_path):
        got = {}
        for key, extra in (("gen", []), ("gen-91", ["--objects", "91"])):
            out = tmp_path / key
            assert main(self.GEN + extra + ["--out", str(out)]) == 0
            got[key] = self.digest(out, "catalog.json", "trace.jsonl")
        out = tmp_path / "gen"
        assert main(["compare", "--trace", str(out / "trace.jsonl"), "--seed", "1",
                     "--warmup", "50", "--out", str(out)]) == 0
        got["compare"] = self.digest(out, "compare.json", "compare.csv")
        assert got == self.GOLDEN
