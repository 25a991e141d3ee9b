"""Deterministic event-driven replay: dispatch each trace event to a policy,
apply and charge its decisions, audit the cache invariants as they happen,
and sample cumulative traffic for reporting.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .benefit import BenefitPolicy
from .core import (AnswerFromCache, CacheState, CostContext, Decision, Event,
                   ObjectCatalog, Query, TrafficLedger, Update, apply,
                   check_capacity, check_freshness, interacting_updates, record)
from .vcover import VCoverPolicy
from .yardsticks import NoCachePolicy, ReplicaPolicy, SOptimalPolicy


class AuditError(Exception):
    """An invariant broke during replay; carries the offending event index."""

    def __init__(self, seq: int, message: str):
        super().__init__(f"event {seq}: {message}")
        self.seq = seq
        self.message = message

    def __reduce__(self):
        # Rebuild from both fields, so the error survives a trip through a
        # worker process.
        return AuditError, (self.seq, self.message)


@dataclass
class RunConfig:
    policy: str
    seed: int
    cache_bytes: int | None = None     # wins over cache_frac when set
    cache_frac: float = 0.3            # fraction of total catalog size
    warmup_events: int = 0
    sample_stride: int = 100
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")
        if self.warmup_events < 0:
            raise ValueError("warmup_events must be >= 0")

    def capacity(self, catalog: ObjectCatalog) -> int:
        """The run's cache capacity in bytes. A replica holds every object,
        so its capacity is the catalog's total size whatever was asked."""
        if self.cache_bytes is not None:
            if self.cache_bytes < 0:
                raise ValueError("cache_bytes must be non-negative")
            capacity = self.cache_bytes
        elif 0.0 < self.cache_frac <= 1.0:
            capacity = int(self.cache_frac * catalog.total_size)
        else:
            raise ValueError("cache_frac must be in (0,1]")
        return catalog.total_size if self.policy == "replica" else capacity

    def to_dict(self) -> dict:
        return {"policy": self.policy, "seed": self.seed,
                "cache_bytes": self.cache_bytes, "cache_frac": self.cache_frac,
                "warmup_events": self.warmup_events,
                "sample_stride": self.sample_stride, "params": self.params}


POLICY_NAMES = ("vcover", "benefit", "nocache", "replica", "soptimal")


def make_policy(config: RunConfig, catalog: ObjectCatalog, cache: CacheState,
                events: list[Event]):
    name = config.policy
    p = config.params
    if name == "vcover":
        return VCoverPolicy(catalog, cache, seed=config.seed)
    if name == "benefit":
        return BenefitPolicy(catalog, cache,
                             alpha=float(p.get("alpha", 0.5)),
                             delta=int(p.get("delta", 1000)))
    if name == "nocache":
        return NoCachePolicy(catalog, cache)
    if name == "replica":
        return ReplicaPolicy(catalog, cache)
    if name == "soptimal":
        return SOptimalPolicy(catalog, cache, events, mode=p.get("mode", "eager"))
    raise ValueError(f"unknown policy {name!r} (have: {', '.join(POLICY_NAMES)})")


@dataclass
class RunReport:
    config: dict
    capacity: int                      # bytes; kept out of summary()
    ledger: TrafficLedger
    post_warmup: dict
    series: list[tuple]                # (seq, query_ship, update_ship, load, total, occupancy)
    decision_counts: dict
    answers_audited: int
    n_events: int
    initial_resident: list[int]
    decision_log: list[tuple[int, Decision]]
    final_resident: list[int]

    SERIES_COLUMNS = ("seq", "query_ship", "update_ship", "load", "total", "occupancy")

    def summary(self) -> dict:
        return {
            "config": self.config,
            "final": {"query_ship": self.ledger.query_ship,
                      "update_ship": self.ledger.update_ship,
                      "load": self.ledger.load,
                      "total": self.ledger.total},
            "post_warmup": self.post_warmup,
            "decisions": self.decision_counts,
            "answers_audited": self.answers_audited,
            "n_events": self.n_events,
        }

    def summary_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True, separators=(",", ":")) + "\n"

    def series_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(self.SERIES_COLUMNS)
        for row in self.series:
            w.writerow(row)
        return buf.getvalue()


def run(events: list[Event], catalog: ObjectCatalog, config: RunConfig) -> RunReport:
    """Replay the trace under one policy. Raises AuditError (with the event
    index) if any decision breaks capacity, freshness, or the staleness
    contract of a cache-answered query, or if the capacity counter disagrees
    with the resident set at the end of the run."""
    cache = CacheState(config.capacity(catalog), catalog)
    policy = make_policy(config, catalog, cache, events)
    initial_resident = sorted(cache.resident)
    ledger = TrafficLedger()
    costs = CostContext(catalog)
    counts: dict[str, int] = {}
    log: list[tuple[int, Decision]] = []
    answers = 0
    series: list[tuple] = []
    warmup_snapshot = (0, 0, 0)

    def execute(decisions: list[Decision], seq: int, current_query: Query | None, now: int):
        nonlocal answers
        for d in decisions:
            if isinstance(d, AnswerFromCache):
                if current_query is None or d.qid != current_query.qid:
                    raise AuditError(seq, f"AnswerFromCache({d.qid}) outside its query event")
                try:
                    stale = interacting_updates(current_query, cache, now)
                except Exception as exc:
                    raise AuditError(seq, f"query {d.qid} answered at cache: {exc}") from exc
                if stale:
                    raise AuditError(
                        seq, f"query {d.qid} answered at cache with "
                             f"{len(stale)} interacting updates outstanding")
                answers += 1
            try:
                apply(cache, d)
            except Exception as exc:
                raise AuditError(seq, f"applying {d!r}: {exc}") from exc
            record(ledger, d, costs)
            counts[type(d).__name__] = counts.get(type(d).__name__, 0) + 1
            log.append((seq, d))
        check_capacity(cache)

    execute(policy.startup(), 0, None, events[0].time if events else 0)
    last_seq = 0
    for i, ev in enumerate(events):
        seq = ev.seq if ev.seq else i + 1
        last_seq = seq
        costs.see(ev)
        if isinstance(ev, Update):
            cache.receive_update(ev)
            execute(policy.on_update(ev, ev.time), seq, None, ev.time)
        else:
            execute(policy.on_query(ev, ev.time), seq, ev, ev.time)
        try:
            check_freshness(cache)
        except Exception as exc:
            raise AuditError(seq, str(exc)) from exc
        if config.warmup_events and seq == config.warmup_events:
            warmup_snapshot = ledger.snapshot()
        if seq % config.sample_stride == 0 or i == len(events) - 1:
            series.append((seq, ledger.query_ship, ledger.update_ship,
                           ledger.load, ledger.total, cache.used))
    execute(policy.finalize(), last_seq, None,
            events[-1].time if events else 0)
    # The per-event capacity audit trusts the running counter; recount it
    # once, so a counter that drifted behind apply's back fails the run.
    resident_bytes = sum(catalog.size(o) for o in cache.resident)
    if resident_bytes != cache.used:
        raise AuditError(last_seq, f"capacity counter reads {cache.used} B but "
                                   f"resident objects hold {resident_bytes} B")

    wq, wu, wl = warmup_snapshot
    post_warmup = {"query_ship": ledger.query_ship - wq,
                   "update_ship": ledger.update_ship - wu,
                   "load": ledger.load - wl,
                   "total": ledger.total - (wq + wu + wl)}
    return RunReport(config=config.to_dict(), capacity=cache.capacity,
                     ledger=ledger, post_warmup=post_warmup, series=series,
                     decision_counts=dict(sorted(counts.items())),
                     answers_audited=answers, n_events=len(events),
                     initial_resident=initial_resident, decision_log=log,
                     final_resident=sorted(cache.resident))


def replay_decisions(events: list[Event], catalog: ObjectCatalog,
                     report: RunReport) -> tuple[CacheState, TrafficLedger]:
    """Re-apply a report's decision log against a fresh cache; the result must
    reproduce the run's final cache and ledger exactly."""
    cache = CacheState(report.capacity, catalog)
    cache.seed_resident(report.initial_resident)
    ledger = TrafficLedger()
    costs = CostContext(catalog)
    by_seq: dict[int, list[Decision]] = {}
    for seq, d in report.decision_log:
        by_seq.setdefault(seq, []).append(d)
    for d in by_seq.get(0, ()):
        apply(cache, d)
        record(ledger, d, costs)
    for i, ev in enumerate(events):
        seq = ev.seq if ev.seq else i + 1
        costs.see(ev)
        if isinstance(ev, Update):
            cache.receive_update(ev)
        for d in by_seq.get(seq, ()):
            apply(cache, d)
            record(ledger, d, costs)
    return cache, ledger


@dataclass
class ComparisonReport:
    runs: list[RunReport]

    def table(self) -> list[dict]:
        return [{"policy": r.config["policy"],
                 "seed": r.config["seed"],
                 "query_ship": r.ledger.query_ship,
                 "update_ship": r.ledger.update_ship,
                 "load": r.ledger.load,
                 "total": r.ledger.total} for r in self.runs]

    def summary_json(self) -> str:
        return json.dumps({"runs": [r.summary() for r in self.runs]},
                          sort_keys=True, separators=(",", ":")) + "\n"

    def series_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(("policy",) + RunReport.SERIES_COLUMNS)
        for r in self.runs:
            name = r.config["policy"]
            for row in r.series:
                w.writerow((name,) + row)
        return buf.getvalue()


def _run_one(args) -> RunReport:
    events, catalog, config = args
    return run(events, catalog, config)


def compare(events: list[Event], catalog: ObjectCatalog,
            configs: list[RunConfig], jobs: int = 1) -> ComparisonReport:
    """Run several configs over the same trace. Runs share nothing mutable,
    so they may execute in parallel worker processes without affecting
    per-run determinism."""
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            runs = list(pool.map(_run_one, [(events, catalog, c) for c in configs]))
    else:
        runs = [run(events, catalog, c) for c in configs]
    return ComparisonReport(runs)
