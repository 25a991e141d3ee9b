"""Command-line front end: generate workloads, run or compare policies over a
trace, re-emit plot-ready data, and validate trace files.

Every subcommand is a pure function of its inputs, flags and seed; running
one twice produces byte-identical output files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import benefit, simharness, workload
from .core import MAX_BYTES
from .simharness import POLICY_NAMES, RunConfig


def _out_dir(args) -> Path:
    out = Path(args.out or os.environ.get("MIDCACHE_OUT", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen(args) -> int:
    """Generator flags left out take `GeneratorParams`' scaled defaults."""
    fields = {f.name for f in dataclasses.fields(workload.GeneratorParams)}
    given = {k: v for k, v in vars(args).items() if k in fields}
    n_objects = given.get("n_objects", workload.GeneratorParams.n_objects)
    params = dataclasses.replace(
        workload.GeneratorParams.scaled_hotspots(n_objects), **given)
    try:
        catalog, events = workload.generate(params, args.seed)
    except ValueError as exc:   # the params passed their checks, so a drawn cost is too large
        flag, value = (("--selectivity", params.selectivity) if str(exc).startswith("query")
                       else ("--update-fraction", params.update_fraction))
        raise ValueError(f"{flag} {value}: {exc}") from None
    out = _out_dir(args)
    workload.write_catalog(catalog, out / "catalog.json")
    workload.write_trace(events, out / "trace.jsonl", catalog_ref="catalog.json",
                         meta=workload.params_meta(params, args.seed))
    print(f"wrote {out / 'catalog.json'} ({len(catalog.entries)} objects)")
    print(f"wrote {out / 'trace.jsonl'} ({len(events)} events)")
    return 0


def _run_config(args, policy: str) -> RunConfig:
    params = {}
    if policy == "benefit":
        benefit.check_window(args.alpha, args.delta)
        params = {"alpha": args.alpha, "delta": args.delta}
    elif policy == "soptimal":
        params = {"mode": args.soptimal_mode}
    return RunConfig(policy=policy, seed=args.seed,
                     cache_bytes=args.cache_bytes, cache_frac=args.cache_frac,
                     warmup_events=args.warmup, sample_stride=args.stride,
                     params=params)


def _write_report(report, out: Path, stem: str, fmt: str) -> None:
    if fmt in ("json", "both"):
        (out / f"{stem}.json").write_text(report.summary_json())
    if fmt in ("csv", "both"):
        (out / f"{stem}.csv").write_text(report.series_csv())


def _cost_line(policy: str, f) -> str:
    """One run's final costs, from its `TrafficLedger`."""
    return (f"{policy}: total={f.total} query_ship={f.query_ship} "
            f"update_ship={f.update_ship} load={f.load}")


def cmd_run(args) -> int:
    config = _run_config(args, args.policy)
    out = _out_dir(args)
    catalog, events = workload.load_trace(args.trace)
    report = simharness.run(events, catalog, config)
    stem = f"run-{args.policy}-seed{args.seed}"
    _write_report(report, out, stem, args.format)
    print(_cost_line(args.policy, report.ledger))
    return 0


def cmd_compare(args) -> int:
    configs = [_run_config(args, p.strip()) for p in args.policies.split(",") if p.strip()]
    if not configs:
        raise ValueError("--policies names no policy")
    try:
        grains = [int(g) for g in args.granularity.split(",")] if args.granularity else []
    except ValueError:
        raise ValueError("--granularity: object counts must be integers") from None
    if min(grains, default=1) < 1:
        raise ValueError("--granularity: object counts must be >= 1")
    out = _out_dir(args)
    catalog, events = workload.load_trace(args.trace)
    if max(grains, default=0) > len(catalog.entries):
        raise ValueError(f"--granularity: object counts must be <= {len(catalog.entries)}")
    for grain in grains or [None]:
        try:
            cat, evs = workload.regrain(catalog, events, grain) if grain else (catalog, events)
        except ValueError:   # the trace passed its checks, so a merged quantity is too large
            raise ValueError(f"--granularity {grain}: a merged object's size or load cost "
                             f"would be above {MAX_BYTES}") from None
        cmp_report = simharness.compare(evs, cat, configs)
        _write_report(cmp_report, out, f"compare-g{grain}" if grain else "compare", args.format)
        label = f"[{grain} objects] " if grain else ""
        for r in cmp_report.runs:
            print(label + _cost_line(r.config["policy"], r.ledger))
    return 0


def cmd_report(args) -> int:
    """Merge run/compare summaries into one plot-ready CSV of final costs."""
    cols = ("label", "policy", "seed", "n_events",
            "query_ship", "update_ship", "load", "total")
    rows = []
    for path in args.inputs:
        try:
            doc = json.loads(Path(path).read_text())
            for r in doc["runs"] if "runs" in doc else [doc]:
                row = {"label": args.label or Path(path).stem,
                       "policy": r["config"]["policy"],
                       "seed": r["config"]["seed"],
                       "n_events": r["n_events"],
                       **r["final"]}
                rows.append([row[c] for c in cols])
        except (OSError, ValueError, LookupError, TypeError) as exc:
            raise ValueError(f"{path}: not a readable run or compare summary "
                             f"({type(exc).__name__}: {exc})") from None
    text = simharness._csv(cols, rows)
    if args.out_file:
        Path(args.out_file).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_validate(args) -> int:
    rep = workload.validate(args.trace)
    if rep.ok:
        print(f"ok: {rep.n_queries} queries, {rep.n_updates} updates")
        return 0
    for line, msg in rep.errors[:50]:
        print(f"{args.trace}:{line}: {msg}", file=sys.stderr)
    print(f"invalid: {len(rep.errors)} error(s)", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="midcache",
        description="Trace-driven middleware-cache simulator: decouples query "
                    "shipping, update shipping and object loading to minimize "
                    "network traffic.")
    sub = ap.add_subparsers(dest="command", required=True)

    # Generator flags are named after GeneratorParams fields and have no
    # default of their own: a flag left out is absent from the namespace.
    g = sub.add_parser("gen", help="generate a synthetic catalog + trace",
                       argument_default=argparse.SUPPRESS)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--objects", dest="n_objects", type=int)
    g.add_argument("--queries", dest="n_queries", type=int)
    g.add_argument("--updates", dest="n_updates", type=int)
    g.add_argument("--size-min", type=int)
    g.add_argument("--size-max", type=int)
    g.add_argument("--query-hotspot-weight", type=float)
    g.add_argument("--update-hotspot-weight", type=float)
    g.add_argument("--scan-len", type=int)
    g.add_argument("--selectivity", type=float)
    g.add_argument("--update-fraction", type=float)
    g.add_argument("--interarrival-us", dest="mean_interarrival_us", type=int)
    g.add_argument("--out", default=None, help="output dir (default $MIDCACHE_OUT or .)")
    g.set_defaults(func=cmd_gen)

    def add_run_flags(p):
        p.add_argument("--trace", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--cache-frac", type=float, default=0.3)
        p.add_argument("--cache-bytes", type=int, default=None)
        p.add_argument("--warmup", type=int, default=0)
        p.add_argument("--stride", type=int, default=100)
        p.add_argument("--alpha", type=float, default=0.5)
        p.add_argument("--delta", type=int, default=1000)
        p.add_argument("--soptimal-mode", choices=("eager", "lazy"), default="eager")
        p.add_argument("--format", choices=("json", "csv", "both"), default="both")
        p.add_argument("--out", default=None)

    r = sub.add_parser("run", help="run one policy over a trace")
    r.add_argument("--policy", choices=POLICY_NAMES, required=True)
    add_run_flags(r)
    r.set_defaults(func=cmd_run)

    c = sub.add_parser("compare", help="run several policies over one trace")
    c.add_argument("--policies", default=",".join(POLICY_NAMES))
    c.add_argument("--granularity", default=None,
                   help="comma list of object counts; re-partitions the catalog "
                        "by merging contiguous id ranges")
    add_run_flags(c)
    c.set_defaults(func=cmd_compare)

    rp = sub.add_parser("report", help="merge summaries into plot-ready CSV")
    rp.add_argument("inputs", nargs="+")
    rp.add_argument("--label", default=None)
    rp.add_argument("--out-file", default=None)
    rp.set_defaults(func=cmd_report)

    v = sub.add_parser("validate", help="validate a trace file")
    v.add_argument("--trace", required=True)
    v.set_defaults(func=cmd_validate)
    return ap


def main(argv=None) -> int:
    """Run one subcommand; an invalid trace exits 1, an audit failure, a bad
    option value, an unreadable summary or an output path that cannot be
    written 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except workload.TraceError as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return 1
    except simharness.AuditError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
