"""Trace-driven simulator and decision library for dynamic middleware caches.

Policies decide, per event, between shipping queries to the server, shipping
updates to the cache, and loading whole objects, so that total network
traffic is minimized while every query meets its staleness tolerance.

Call rule: a cross-module call looks its callee up at call time through the
caller's module globals (`apply` in `simharness`, `loadmgr.offer` in
`vcover`), so that the benchmark's layer table (`perfbench/layers.py`) can
wrap it there; the package does not need the rule itself. Kept only for
that table: `core.CostContext`, `core.record`'s `seq`,
`covergraph.source_reachable`, `FlowState.copy`, `InteractionGraph.n_edges`
and `interacting_updates`' `now`.
"""

from .core import (AnswerFromCache, CacheState, Decision, Evict, Event, Load,
                   ObjectCatalog, Query, ShipQuery, ShipUpdates, Trace,
                   TrafficLedger, Update, interacting_updates)
from .covergraph import CoverResult, FlowState, InteractionGraph, min_weight_cover
from .simharness import RunConfig, RunReport, compare, run
from .workload import GeneratorParams, generate, load_trace, validate

__version__ = "0.1.0"

__all__ = [
    "AnswerFromCache", "CacheState", "CoverResult", "Decision", "Evict",
    "Event", "FlowState", "GeneratorParams", "InteractionGraph", "Load",
    "ObjectCatalog", "Query", "RunConfig", "RunReport", "ShipQuery",
    "ShipUpdates", "Trace", "TrafficLedger", "Update", "compare", "generate",
    "interacting_updates", "load_trace", "min_weight_cover", "run",
    "validate",
]
