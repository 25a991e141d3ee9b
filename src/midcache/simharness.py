"""Deterministic event-driven replay: dispatch each trace event to a policy,
apply and charge its decisions, audit the cache invariants as they happen,
and sample cumulative traffic for reporting.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import asdict, dataclass, field

from .benefit import BenefitPolicy
from .core import (AnswerFromCache, CacheState, CostContext, Decision, Event, Evict,
                   ObjectCatalog, Query, ShipQuery, TrafficLedger, Update, apply,
                   check_capacity, check_freshness, interacting_updates, record)
from .vcover import VCoverPolicy
from .yardsticks import NoCachePolicy, ReplicaPolicy, SOptimalPolicy


class AuditError(Exception):
    """An invariant broke during replay; carries the offending event index."""

    def __init__(self, seq: int, message: str):
        super().__init__(f"event {seq}: {message}")
        self.seq = seq


POLICY_NAMES = ("vcover", "benefit", "nocache", "replica", "soptimal")


@dataclass(frozen=True)
class RunConfig:
    """One run's settings, checked once at construction. `params` go to the
    policy's constructor as keywords; a key it does not take is a TypeError."""

    policy: str
    seed: int
    cache_bytes: int | None = None     # wins over cache_frac when set
    cache_frac: float = 0.3            # fraction of total catalog size
    warmup_events: int = 0
    sample_stride: int = 100
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {self.policy!r} (have: {', '.join(POLICY_NAMES)})")
        if self.cache_bytes is not None and self.cache_bytes < 0:
            raise ValueError("cache_bytes must be non-negative")
        if self.cache_bytes is None and not 0.0 < self.cache_frac <= 1.0:
            raise ValueError("cache_frac must be in (0,1]")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")
        if self.warmup_events < 0:
            raise ValueError("warmup_events must be >= 0")

    def capacity(self, catalog: ObjectCatalog) -> int:
        """The run's cache capacity in bytes. A replica holds every object,
        so its capacity is the catalog's total size whatever was asked."""
        if self.policy == "replica":
            return catalog.total_size
        if self.cache_bytes is not None:
            return self.cache_bytes
        return int(self.cache_frac * catalog.total_size)


def make_policy(config: RunConfig, catalog: ObjectCatalog, cache: CacheState,
                events: list[Event]):
    name, p = config.policy, config.params
    if name == "vcover":
        return VCoverPolicy(catalog, cache, seed=config.seed, **p)
    if name == "benefit":
        return BenefitPolicy(catalog, cache, **p)
    if name == "nocache":
        return NoCachePolicy(catalog, cache, **p)
    if name == "replica":
        return ReplicaPolicy(catalog, cache, **p)
    return SOptimalPolicy(catalog, cache, events, **p)


def _csv(header: tuple, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


@dataclass
class RunReport:
    config: dict
    capacity: int                      # bytes; kept out of summary()
    ledger: TrafficLedger
    post_warmup: dict
    series: list[tuple]                # (seq, query_ship, update_ship, load, total, occupancy)
    n_events: int
    initial_resident: list[int]
    decision_log: list[tuple[int, Decision]]
    final_resident: list[int]

    SERIES_COLUMNS = ("seq", "query_ship", "update_ship", "load", "total", "occupancy")

    def summary(self) -> dict:
        # Every AnswerFromCache in a finished run's log passed its audit.
        counts = Counter(type(d).__name__ for _, d in self.decision_log)
        return {
            "config": self.config,
            "final": {"query_ship": self.ledger.query_ship,
                      "update_ship": self.ledger.update_ship,
                      "load": self.ledger.load,
                      "total": self.ledger.total},
            "post_warmup": self.post_warmup,
            "decisions": dict(sorted(counts.items())),
            "answers_audited": counts["AnswerFromCache"],
            "n_events": self.n_events,
        }

    def summary_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True, separators=(",", ":")) + "\n"

    def series_csv(self) -> str:
        return _csv(self.SERIES_COLUMNS, self.series)


def run(events: list[Event], catalog: ObjectCatalog, config: RunConfig) -> RunReport:
    """Replay the trace under one policy. Raises AuditError (with the event
    index) if a ShipQuery or a cache answer names anything but its own query
    event, a query ships twice, a cache answer breaks its staleness contract,
    a decision that changes the cache (Load, Evict, ShipUpdates) overfills it,
    an event leaves a broken update queue, or, at the end, the resident set
    disagrees with the capacity counter or exceeds capacity. Events check
    their own fields when built; run() re-checks only their order, before any
    policy is built, and raises ValueError if an event's `seq` is not above
    the previous event's (the first must be above 0) or its time is before
    the previous event's. Only `load_trace` and `validate` check duplicate
    ids and catalog members."""
    last_seq, last_time = 0, float("-inf")
    for i, ev in enumerate(events):
        if ev.seq <= last_seq:
            raise ValueError(f"event {i + 1}: seq {ev.seq} is not above "
                             f"the previous seq {last_seq}")
        if ev.time < last_time:
            raise ValueError(f"event {i + 1}: time {ev.time} is before "
                             f"the previous time {last_time}")
        last_seq, last_time = ev.seq, ev.time
    cache = CacheState(config.capacity(catalog), catalog)
    policy = make_policy(config, catalog, cache, events)
    initial_resident = sorted(cache.resident)
    ledger = TrafficLedger()
    costs = CostContext(catalog)
    log: list[tuple[int, Decision]] = []
    series: list[tuple] = []
    warmup_snapshot = (0, 0, 0)

    def execute(decisions: list[Decision], seq: int, current_query: Query | None):
        to_ship = current_query
        for d in decisions:
            kind = type(d)
            if kind is ShipQuery:
                if to_ship is None or d.qid != to_ship.qid:
                    raise AuditError(seq, f"ShipQuery({d.qid}) outside its query event")
                to_ship = None
                record(ledger, d, costs)
            elif kind is AnswerFromCache:
                if current_query is None or d.qid != current_query.qid:
                    raise AuditError(seq, f"AnswerFromCache({d.qid}) outside its query event")
                try:
                    stale = interacting_updates(current_query, cache, current_query.time)
                except Exception as exc:
                    raise AuditError(seq, f"query {d.qid} answered at cache: {exc}") from exc
                if stale:
                    raise AuditError(
                        seq, f"query {d.qid} answered at cache with "
                             f"{len(stale)} interacting updates outstanding")
            else:
                try:
                    apply(cache, d)
                    check_capacity(cache)
                except Exception as exc:
                    raise AuditError(seq, f"applying {d!r}: {exc}") from exc
                if kind is not Evict:   # an eviction moves no bytes
                    record(ledger, d, costs)
            log.append((seq, d))

    execute(policy.startup(), 0, None)
    # Bound after make_policy, so class-level wrappers set before run() apply.
    see, on_query, on_update = costs.see, policy.on_query, policy.on_update
    receive_update, outstanding = cache.receive_update, cache.outstanding
    warmup, stride, last = config.warmup_events, config.sample_stride, len(events) - 1
    for i, ev in enumerate(events):
        seq = ev.seq
        see(ev)
        if isinstance(ev, Update):
            receive_update(ev)
            if decisions := on_update(ev):
                execute(decisions, seq, None)
        elif decisions := on_query(ev):
            execute(decisions, seq, ev)
        if outstanding:
            try:
                check_freshness(cache)
            except Exception as exc:
                raise AuditError(seq, str(exc)) from exc
        if seq <= warmup:
            warmup_snapshot = ledger.snapshot()
        if seq % stride == 0 or i == last:
            series.append((seq, ledger.query_ship, ledger.update_ship,
                           ledger.load, ledger.total, cache.used))
    # The per-decision capacity audit trusts the running counter; recount it
    # once, so residency that changed behind apply's back fails the run.
    resident_bytes = sum(catalog.size(o) for o in cache.resident)
    if resident_bytes != cache.used or resident_bytes > cache.capacity:
        raise AuditError(last_seq, f"resident objects hold {resident_bytes} B, capacity "
                                   f"counter {cache.used} B, capacity {cache.capacity} B")

    wq, wu, wl = warmup_snapshot
    post_warmup = {"query_ship": ledger.query_ship - wq,
                   "update_ship": ledger.update_ship - wu,
                   "load": ledger.load - wl,
                   "total": ledger.total - (wq + wu + wl)}
    return RunReport(config=asdict(config), capacity=cache.capacity,
                     ledger=ledger, post_warmup=post_warmup, series=series,
                     n_events=len(events),
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
    for ev in events:
        costs.see(ev)
        if isinstance(ev, Update):
            cache.receive_update(ev)
        for d in by_seq.get(ev.seq, ()):
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
        return _csv(("policy",) + RunReport.SERIES_COLUMNS,
                    ((r.config["policy"],) + row for r in self.runs for row in r.series))


def compare(events: list[Event], catalog: ObjectCatalog,
            configs: list[RunConfig]) -> ComparisonReport:
    """Run several configs over the same trace, one after another."""
    return ComparisonReport([run(events, catalog, c) for c in configs])
