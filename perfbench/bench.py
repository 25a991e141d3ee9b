"""Closed-loop replay benchmark: one replay after another, single process,
single thread, driving midcache only through its public functions.

Untraced run (`--trace 0`): set the workload up SETUP_REPEATS times
(generate, write catalog and trace, load and validate them back), then
replay all five policies over the vcover seed panel, one whole pass and on
until `--seconds` have passed (see `schedule`). Every timed set-up and replay
sits between two runs of the host speed probe (`hostspeed.py`), and the
end-to-end timings are medians of time over probe time. A replay is `run()`
plus `summary_json()` plus `series_csv()`, which is what `midcache run` costs
once its trace is loaded. Traced run (`--trace 1`): the same schedule, at
least one group, in which every replay runs twice, plain and traced; the
per-layer metrics come from the traced copies.

Every replay is one operation of the correctness gate (class Gate); gate
work and garbage collection happen outside the timed region.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from midcache import simharness, workload
from midcache.simharness import RunConfig

import hostspeed
import layers
from tracing import END, NAME, START, Tracer, aggregate, patched
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
POLICIES = ("vcover", "benefit", "nocache", "replica", "soptimal")
# nocache and replica traffic is fixed by the trace, so it is not reported.
TRAFFIC_POLICIES = ("vcover", "benefit", "soptimal")
SETUP_REPEATS = 15
MIN_PASSES = 1
SETUP_STEPS = ("generate", "write_trace", "load_trace", "validate")


class SetupError(Exception):
    """Set-up did not produce the trace the benchmark was defined on."""


class Setup:
    """The loaded workload plus the timing of each set-up repeat: seconds
    per step, and the whole repeat's time over the probe time around it."""

    def __init__(self, catalog, events, steps: list[dict[str, float]],
                 relative: list[float]):
        self.catalog = catalog
        self.events = events
        self.steps = steps
        self.relative = relative

    def median(self, step: str) -> float:
        return statistics.median(s[step] for s in self.steps)

    @property
    def seconds(self) -> float:
        """Median set-up time, in seconds of the reference host."""
        return statistics.median(self.relative) * hostspeed.REFERENCE_S


def fingerprint(catalog_path: Path, trace_path: Path) -> str:
    h = hashlib.sha256(catalog_path.read_bytes())
    h.update(b"\0")
    h.update(trace_path.read_bytes())
    return h.hexdigest()


def set_up(w: Workload, gen_seed: int, work: Path) -> Setup:
    """Build the workload's files SETUP_REPEATS times and check that they
    match each other and the recorded fingerprint."""
    params = w.params()
    steps, relative, prints = [], [], set()
    probe = hostspeed.probe()
    for i in range(SETUP_REPEATS):
        d = work / f"setup{i}"
        d.mkdir(parents=True)
        gc.collect()
        t0 = time.perf_counter()
        catalog, events = workload.generate(params, gen_seed)
        t1 = time.perf_counter()
        workload.write_catalog(catalog, d / "catalog.json")
        workload.write_trace(events, d / "trace.jsonl", catalog_ref="catalog.json",
                             meta=workload.params_meta(params, gen_seed))
        t2 = time.perf_counter()
        catalog, events = workload.load_trace(d / "trace.jsonl")
        t3 = time.perf_counter()
        report = workload.validate(d / "trace.jsonl")
        t4 = time.perf_counter()
        after = hostspeed.probe()
        relative.append((t4 - t0) / ((probe + after) / 2))
        probe = after
        if not report.ok:
            raise SetupError(f"{w.name} seed {gen_seed}: generated trace does not "
                                   f"validate: {report.errors[:3]}")
        steps.append(dict(zip(SETUP_STEPS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3))))
        prints.add(fingerprint(d / "catalog.json", d / "trace.jsonl"))
        shutil.rmtree(d)
    if len(prints) != 1:
        raise SetupError(f"{w.name} seed {gen_seed}: set-up is not deterministic")
    (fp,) = prints
    expected = w.fingerprints.get(gen_seed)
    if expected is None:
        print(f"perfbench: no recorded fingerprint for {w.name} seed {gen_seed}; "
              f"this trace is {fp}", file=sys.stderr)
    elif fp != expected:
        raise SetupError(
            f"{w.name} seed {gen_seed}: trace fingerprint {fp} differs from the recorded "
            f"{expected}; the generator or its defaults changed, so this benchmark no "
            f"longer measures the workload it was defined on")
    return Setup(catalog, events, steps, relative)


def panel_seeds(w: Workload, seed: int) -> list[int]:
    """The vcover policy seeds of one run; disjoint for distinct run seeds."""
    return [seed * w.panel + k for k in range(w.panel)]


def config(w: Workload, policy: str, seed: int) -> RunConfig:
    return RunConfig(policy=policy, seed=seed, cache_frac=w.cache_frac)


def replay(setup: Setup, cfg: RunConfig, tr: Tracer | None = None):
    """One operation: replay the trace and render both reports. Returns
    (seconds, report, summary JSON)."""
    span = tr.span if tr is not None else (lambda name: nullcontext())
    t0 = time.perf_counter()
    with span("replay"):
        with span("simharness.run"):
            report = simharness.run(setup.events, setup.catalog, cfg)
        with span("simharness.report"):
            summary = report.summary_json()
            report.series_csv()
    return time.perf_counter() - t0, report, summary


class Gate:
    """Correctness gate. An operation is one (workload, policy, seed) replay;
    it fails if `run()` raises, if the decision log does not reproduce the
    ledger and final resident set, or if its summary differs from the first
    replay of the same policy and seed."""

    def __init__(self, setup: Setup):
        self.setup = setup
        self.attempted = 0
        self.failed = 0
        self.digests: dict[tuple[str, int], str] = {}
        self.traffic: dict[tuple[str, int], int] = {}

    def fail(self, key, message: str) -> None:
        self.failed += 1
        print(f"perfbench: {key[0]} seed {key[1]}: {message}", file=sys.stderr)

    def attempt(self, cfg: RunConfig, tr: Tracer | None = None) -> float | None:
        """Replay once and check it; returns the replay's seconds, or None
        if the operation failed."""
        key = (cfg.policy, cfg.seed)
        self.attempted += 1
        gc.collect()
        try:
            seconds, report, summary = replay(self.setup, cfg, tr)
        except Exception:
            self.fail(key, "replay raised\n" + traceback.format_exc())
            return None
        digest = hashlib.sha256(summary.encode()).hexdigest()
        if key in self.digests:
            if digest != self.digests[key]:
                self.fail(key, "summary differs from an earlier replay")
                return None
            return seconds
        try:
            cache, ledger = simharness.replay_decisions(self.setup.events,
                                                        self.setup.catalog, report)
        except Exception:
            self.fail(key, "decision log does not replay\n" + traceback.format_exc())
            return None
        if (ledger.snapshot() != report.ledger.snapshot()
                or sorted(cache.resident) != report.final_resident):
            self.fail(key, "decision log does not reproduce the ledger and resident set")
            return None
        self.digests[key] = digest
        self.traffic[key] = report.ledger.total
        return seconds


def schedule(w: Workload, seed: int, seconds: float, min_passes: int):
    """The run's replay configs, in passes over the panel, until `seconds`
    have gone by and at least `min_passes` whole passes are done. A group is
    one panel seed's vcover replay, followed on every `others_every`-th seed
    by one replay of each other policy; the first group always runs."""
    panel = panel_seeds(w, seed)
    start, passes = time.perf_counter(), 0
    while True:
        for k, ps in enumerate(panel):
            if ((passes or k) and passes >= min_passes
                    and time.perf_counter() - start > seconds):
                return
            yield config(w, "vcover", ps)
            # Only vcover draws on its seed; the others replay identically under any.
            if k % w.others_every == 0:
                yield from (config(w, p, seed) for p in POLICIES if p != "vcover")
        passes += 1


def measure(w: Workload, seed: int, seconds: float, gate: Gate) -> dict[str, tuple]:
    """End-to-end metrics, as name -> (value, unit).

    At least MIN_PASSES whole passes, so every (policy, seed) of the panel
    replays, and then on until `seconds` have gone by. Each replay counts
    as its time over the mean of the probes just before and after it. A
    (policy, seed) counts with the median of those ratios, and a policy's
    throughput is the trace length over the median of its seeds' ratios,
    in seconds of the reference host."""
    panel = panel_seeds(w, seed)
    relative: dict[tuple[str, int], list[float]] = {}
    gc.collect()
    probe = hostspeed.probe()
    for cfg in schedule(w, seed, seconds, MIN_PASSES):
        took = gate.attempt(cfg)
        gc.collect()
        after = hostspeed.probe()
        if took is not None:
            relative.setdefault((cfg.policy, cfg.seed), []).append(took / ((probe + after) / 2))
        probe = after

    n = len(gate.setup.events)
    metrics = {}
    for p in POLICIES:
        per_seed = [statistics.median(r) for (policy, _), r in relative.items() if policy == p]
        metrics[f"{p}.events_per_s"] = (
            n / (statistics.median(per_seed) * hostspeed.REFERENCE_S) if per_seed else 0.0,
            "1/s")
    for p in TRAFFIC_POLICIES:
        keys = [(p, s) for s in (panel if p == "vcover" else [seed])]
        got = [gate.traffic[k] for k in keys if k in gate.traffic]
        metrics[f"{p}.traffic_bytes"] = (statistics.fmean(got) if len(got) == len(keys)
                                         else 0.0, "B")
    return metrics


def trace(w: Workload, seed: int, seconds: float, gate: Gate,
          spans_path: Path) -> dict[str, tuple]:
    """Per-layer metrics from replay groups (see `schedule`) in which every
    replay runs plain and then traced, until `seconds` have gone by. The
    traced replay must produce the plain one's summary."""
    tr = Tracer()
    targets = layers.targets(tr)
    totals = {p: layers.LayerTotals() for p in POLICIES}
    plain = {p: 0.0 for p in POLICIES}
    traced = {p: 0.0 for p in POLICIES}
    kept: dict[str, list[tuple]] = {}
    for cfg in schedule(w, seed, seconds, 0):
        base = gate.attempt(cfg)
        tr.reset()
        with patched(targets):
            done = gate.attempt(cfg, tr)
        if base is None or done is None:
            continue
        plain[cfg.policy] += base
        traced[cfg.policy] += done
        on_query = [s[END] - s[START] for s in tr.spans if s[NAME] == "vcover.on_query"]
        totals[cfg.policy].add(aggregate(tr.spans), tr, on_query)
        kept.setdefault(cfg.policy, list(tr.spans))
    write_spans(spans_path, kept)

    metrics: dict[str, tuple] = {}
    for p in POLICIES:
        if totals[p].replays:
            metrics.update(layers.policy_metrics(p, totals[p], traced[p] / plain[p] - 1.0))
    return metrics


def write_spans(path: Path, kept: dict[str, list[tuple]]) -> None:
    """The first traced replay of each policy, one span per line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("policy,index,parent,seq,name,start_ns,end_ns\n")
        for policy, spans in kept.items():
            for i, (name, start, end, parent, seq) in enumerate(spans):
                fh.write(f"{policy},{i},{parent},{seq},{name},{start},{end}\n")


def setup_metrics(setup: Setup) -> dict[str, tuple]:
    m = {f"workload.{step}_s": (setup.median(step), "s") for step in SETUP_STEPS}
    m["workload.events_parsed"] = (len(setup.events), "count")
    return m


def run_benchmark(w: Workload, seed: int, seconds: float, traced: bool,
                  gen_seed: int | None = None) -> dict:
    """The result object printed as the last line of the benchmark."""
    gen_seed = w.default_seed if gen_seed is None else gen_seed
    work = OUT / f"work-{os.getpid()}"
    try:
        setup = set_up(w, gen_seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    gate = Gate(setup)
    if traced:
        metrics = setup_metrics(setup)
        metrics.update(trace(w, seed, seconds, gate,
                             OUT / f"spans-{w.name}-gen{gen_seed}-seed{seed}.csv.gz"))
    else:
        metrics = measure(w, seed, seconds, gate)
        metrics["setup_s"] = (setup.seconds, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="picks the run's vcover policy-seed panel")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gen-seed", type=int, default=None,
                    help="trace generator seed (default: the workload's; "
                         "use its held-out seed to confirm a claim)")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    try:
        result = run_benchmark(w, args.seed, args.seconds, bool(args.trace), args.gen_seed)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(f"# {w.name} seed={args.seed} trace={args.trace} "
          f"failed/attempted={result['failed']}/{result['attempted']}")
    for name, m in result["metrics"].items():
        print(f"#   {name:48s} {m['value']:>18.6g} {m['unit']}")
    print(json.dumps(result))
    return 0
