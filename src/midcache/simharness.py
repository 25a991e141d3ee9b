"""Deterministic event-driven replay: dispatch each trace event to a policy,
apply and charge its decisions, audit the cache invariants as they happen,
and sample cumulative traffic for reporting.
"""

from __future__ import annotations

import csv
import gc
import io
import json
from collections import Counter
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from types import SimpleNamespace

from .benefit import BenefitPolicy
from .core import (AnswerFromCache, CacheState, Decision, Event, ObjectCatalog,
                   Query, ShipQuery, Trace, TrafficLedger, Update, apply, as_trace,
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
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if isinstance(self.cache_frac, bool) or not isinstance(self.cache_frac, (int, float)):
            raise ValueError(f"cache_frac must be an int or float, got {self.cache_frac!r}")
        if self.cache_bytes is not None and (type(self.cache_bytes) is not int
                                             or self.cache_bytes < 0):
            raise ValueError(f"cache_bytes must be a non-negative int, got {self.cache_bytes!r}")
        if self.cache_bytes is None and not 0.0 < self.cache_frac <= 1.0:
            raise ValueError("cache_frac must be in (0,1]")
        if not (type(self.sample_stride) is int and self.sample_stride >= 1):
            raise ValueError(f"sample_stride must be an int >= 1, got {self.sample_stride!r}")
        if not (type(self.warmup_events) is int and self.warmup_events >= 0):
            raise ValueError(f"warmup_events must be an int >= 0, got {self.warmup_events!r}")
        if not (isinstance(self.params, dict) and all(isinstance(k, str) for k in self.params)):
            raise ValueError(f"params must be a dict with str keys, got {self.params!r}")

    def capacity(self, catalog: ObjectCatalog) -> int:
        """The run's cache capacity in bytes. A replica holds every object,
        so its capacity is the catalog's total size whatever was asked."""
        if self.policy == "replica":
            return catalog.total_size
        if self.cache_bytes is not None:
            return self.cache_bytes
        return int(self.cache_frac * catalog.total_size)


def make_policy(config: RunConfig, cache: CacheState, events: Trace):
    name, p = config.policy, config.params
    if name == "vcover":
        return VCoverPolicy(cache, seed=config.seed, **p)
    if name == "soptimal":
        return SOptimalPolicy(cache, events, **p)
    plain = {"benefit": BenefitPolicy, "nocache": NoCachePolicy, "replica": ReplicaPolicy}
    return plain[name](cache, **p)


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
        by_type = Counter(map(type, map(itemgetter(1), self.decision_log)))
        counts = {kind.__name__: n for kind, n in by_type.items()}
        return {
            "config": self.config,
            "final": {"query_ship": self.ledger.query_ship,
                      "update_ship": self.ledger.update_ship,
                      "load": self.ledger.load,
                      "total": self.ledger.total},
            "post_warmup": self.post_warmup,
            "decisions": dict(sorted(counts.items())),
            "answers_audited": by_type[AnswerFromCache],
            "n_events": self.n_events,
        }

    def summary_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True, separators=(",", ":")) + "\n"

    def series_csv(self) -> str:
        return _csv(self.SERIES_COLUMNS, self.series)


def execute(cache: CacheState, ledger: TrafficLedger, log: list | None,
            decisions: Sequence[Decision], seq: int, query: Query | None) -> None:
    """The one decision step of `run()` and `replay_decisions`: apply, audit
    and charge one event's decisions, logging each as `(seq, d)` unless `log`
    is None. `query` is the event's query, None for an update or startup. A
    ShipQuery costs `query`'s ship cost, any other decision what `apply` returns."""
    to_ship = query
    for d in decisions:
        kind = type(d)
        if kind is ShipQuery:
            if to_ship is None or d.qid != to_ship.qid:
                raise AuditError(seq, f"ShipQuery({d.qid}) outside its query event")
            to_ship = None
            record(ledger, d, query.ship_cost, seq)
        elif kind is AnswerFromCache:
            if query is None or d.qid != query.qid:
                raise AuditError(seq, f"AnswerFromCache({d.qid}) outside its query event")
            # Resident with no queue is fresh; anything else goes to the full check.
            objects = query.objects
            if not (objects <= cache.resident and cache.outstanding.keys().isdisjoint(objects)):
                try:
                    stale = interacting_updates(query, cache, query.time)
                except Exception as exc:
                    raise AuditError(seq, f"query {d.qid} answered at cache: {exc}") from exc
                if stale:
                    raise AuditError(seq, f"query {d.qid} answered at cache with {len(stale)} "
                                          "interacting updates outstanding")
        else:
            try:
                moved = apply(cache, d)
                check_capacity(cache)
            except Exception as exc:
                raise AuditError(seq, f"applying {d!r}: {exc}") from exc
            record(ledger, d, moved, seq)
        if log is not None:
            log.append((seq, d))


def _event_loop(events: Trace, cache: CacheState, source, log: list | None,
                warmup: int, stride: int) -> tuple[TrafficLedger, list[tuple], tuple]:
    """`run()`'s event loop, shared by `replay_decisions`: returns the ledger,
    the series sampled every `stride` seqs and the ledger at `warmup`."""
    was = gc.isenabled()
    gc.disable()
    try:
        ledger = TrafficLedger()
        series: list[tuple] = []
        warmup_snapshot = (0, 0, 0)

        execute(cache, ledger, log, source.startup(), 0, None)
        # Bound after make_policy, so class-level wrappers apply (package call rule).
        on_query, on_update = source.on_query, source.on_update
        receive_update = cache.receive_update
        for ev in events:
            seq = ev.seq
            if isinstance(ev, Update):
                receive_update(ev)
                if decisions := on_update(ev):
                    execute(cache, ledger, log, decisions, seq, None)
            elif decisions := on_query(ev):
                execute(cache, ledger, log, decisions, seq, ev)
            if cache.outstanding:   # read each event: a policy may rebind the map
                try:
                    check_freshness(cache)
                except Exception as exc:
                    raise AuditError(seq, str(exc)) from exc
            if seq <= warmup:
                warmup_snapshot = ledger.snapshot()
            if seq % stride == 0:
                series.append((seq, ledger.query_ship, ledger.update_ship,
                               ledger.load, ledger.total, cache.used))
        if events and events[-1].seq % stride:   # the last event is always sampled
            series.append((events[-1].seq, ledger.query_ship, ledger.update_ship,
                           ledger.load, ledger.total, cache.used))
        # The per-decision capacity audit trusts the running counter; recount it
        # once, so residency that changed behind apply's back fails the run.
        resident_bytes = sum(cache.catalog.entries[o].size for o in cache.resident)
        if resident_bytes != cache.used or resident_bytes > cache.capacity:
            raise AuditError(events[-1].seq if events else 0,
                             f"resident objects hold {resident_bytes} B, capacity "
                             f"counter {cache.used} B, capacity {cache.capacity} B")
        return ledger, series, warmup_snapshot
    finally:
        if was:
            gc.enable()


def run(events: Sequence[Event], catalog: ObjectCatalog, config: RunConfig) -> RunReport:
    """Replay the trace under one policy. Raises AuditError (with the event
    index) if a ShipQuery or a cache answer names anything but its own query
    event, a query ships twice, a cache answer breaks its staleness contract,
    a decision that changes the cache (Load, Evict, ShipUpdates) overfills it,
    an event leaves a broken update queue, or, at the end, the resident set
    disagrees with the capacity counter or exceeds capacity. The events go
    through `as_trace` first, so anything but a trusted `Trace` raises
    ValueError naming its first bad event (`Trace.of`). The event loop pauses
    the cyclic GC process-wide (another thread's cycles wait too), restoring
    it after: a replay makes no cycles, so reference counting frees it all."""
    events = as_trace(catalog, events)
    cache = CacheState(config.capacity(catalog), catalog)
    policy = make_policy(config, cache, events)
    initial_resident = sorted(cache.resident)
    log: list[tuple[int, Decision]] = []
    ledger, series, warmup_snapshot = _event_loop(events, cache, policy, log,
                                                  config.warmup_events, config.sample_stride)
    post = [now - then for now, then in zip(ledger.snapshot(), warmup_snapshot)]
    post_warmup = dict(zip(("query_ship", "update_ship", "load"), post), total=sum(post))
    return RunReport(config=asdict(config), capacity=cache.capacity, ledger=ledger,
                     post_warmup=post_warmup, series=series, n_events=len(events),
                     initial_resident=initial_resident, decision_log=log,
                     final_resident=sorted(cache.resident))


def replay_decisions(events: Sequence[Event], catalog: ObjectCatalog,
                     report: RunReport) -> tuple[CacheState, TrafficLedger]:
    """Re-apply a report's decision log on a fresh cache through `run()`'s own
    event loop, which makes every audit a run makes; the result must reproduce
    the run's final cache and ledger. The events are checked first, as `run()`
    checks them. Raises AuditError where `run()` would, or for the first log
    entry whose seq names no event (0 names the startup)."""
    events = as_trace(catalog, events)
    cache = CacheState(report.capacity, catalog)
    cache.seed_resident(report.initial_resident)
    by_seq: dict[int, list[Decision]] = {}
    for seq, d in report.decision_log:
        by_seq.setdefault(seq, []).append(d)
    take = by_seq.pop
    source = SimpleNamespace(startup=lambda: take(0, ()), on_query=lambda ev: take(ev.seq, None))
    source.on_update = source.on_query
    ledger, _, _ = _event_loop(events, cache, source, None, 0, report.config["sample_stride"])
    for seq, decisions in by_seq.items():   # the first entry that no event took
        raise AuditError(seq, f"logged {decisions[0]!r} names no event")
    return cache, ledger


@dataclass
class ComparisonReport:
    runs: list[RunReport]

    def summary_json(self) -> str:
        return json.dumps({"runs": [r.summary() for r in self.runs]},
                          sort_keys=True, separators=(",", ":")) + "\n"

    def series_csv(self) -> str:
        return _csv(("policy",) + RunReport.SERIES_COLUMNS,
                    ((r.config["policy"],) + row for r in self.runs for row in r.series))


def compare(events: Sequence[Event], catalog: ObjectCatalog,
            configs: list[RunConfig]) -> ComparisonReport:
    """Run several configs over the same trace, one after another, checking
    the events once, as `run()` checks them."""
    trace = as_trace(catalog, events)
    return ComparisonReport([run(trace, catalog, c) for c in configs])
