"""The layer boundaries the traced run records, and the per-layer metrics
derived from them.

Each public function is wrapped where the calling module looks it up: the
harness finds `apply` in `midcache.simharness`, `VCoverPolicy` finds
`min_weight_cover` in `midcache.vcover`, and so on. Wrapping only the
defining module would miss those calls.
"""

from __future__ import annotations

from midcache import (benefit, core, covergraph, loadmgr, simharness, vcover,
                      yardsticks)

from tracing import Tracer, percentile, tail_percentile

POLICY_CLASSES = {
    "vcover": vcover.VCoverPolicy, "benefit": benefit.BenefitPolicy,
    "nocache": yardsticks.NoCachePolicy, "replica": yardsticks.ReplicaPolicy,
    "soptimal": yardsticks.SOptimalPolicy,
}
POLICY_LAYER = {"vcover": "vcover", "benefit": "benefit", "nocache": "yardsticks.nocache",
                "replica": "yardsticks.replica", "soptimal": "yardsticks.soptimal"}


def targets(tr: Tracer) -> list[tuple]:
    """(owner, attribute, make) triples for `tracing.patched`."""
    def span(name, before=None, after=None):
        return lambda fn: tr.wrap(fn, name, before, after)

    def interacting_returned(args, result):
        tr.count("core.interacting_updates.returned", len(result))

    def graph_size(args):
        g = args[0]
        tr.high("covergraph.graph_nodes", len(g.query_weight) + len(g.update_weight))
        tr.high("covergraph.graph_edges", g.n_edges)

    def augmentations(args, result):
        prior = args[1] if len(args) > 1 else None
        tr.count("covergraph.augmentations",
                 result[1].augmentations - (prior.augmentations if prior else 0))

    def cover_outcome(args, result):
        if any(isinstance(d, core.AnswerFromCache) for d in result):
            tr.count("vcover.cover_answers")
        else:
            tr.count("vcover.ship_cover")

    def candidacies(args, result):
        tr.count("loadmgr.candidacies", len(result))

    def residency_changes(args, result):
        _, decisions = result
        tr.count("loadmgr.loads", sum(isinstance(d, core.Load) for d in decisions))
        tr.count("loadmgr.evictions", sum(isinstance(d, core.Evict) for d in decisions))

    def set_seq(see):
        def traced_see(self, ev):
            tr.seq = ev.seq
            return see(self, ev)
        return traced_see

    out = [
        (core.CostContext, "see", set_seq),
        (core.CacheState, "used", lambda p: property(tr.wrap(p.fget, "core.cache_used"))),
        (core.CacheState, "receive_update", span("core.receive_update")),
        (simharness, "make_policy", span("simharness.make_policy")),
        (simharness, "apply", span("core.apply")),
        (simharness, "record", span("core.record")),
        (simharness, "check_capacity", span("simharness.check_capacity")),
        (simharness, "check_freshness", span("simharness.check_freshness")),
        (vcover.VCoverPolicy, "update_manager",
         span("vcover.update_manager", after=cover_outcome)),
        (vcover, "min_weight_cover",
         span("covergraph.min_weight_cover", before=graph_size, after=augmentations)),
        (vcover, "prune_remainder", span("covergraph.prune")),
        (covergraph, "source_reachable", span("covergraph.source_reachable")),
        (covergraph.FlowState, "copy", span("covergraph.flow_copy")),
        (loadmgr, "offer", span("loadmgr.offer", after=candidacies)),
        (loadmgr, "gds_lazy_apply", span("loadmgr.gds_lazy_apply", after=residency_changes)),
        (benefit.BenefitPolicy, "roll_window", span("benefit.roll_window")),
        (benefit, "greedy_recompose", span("benefit.greedy_recompose")),
        (yardsticks, "plan_static_set", span("yardsticks.plan_static_set")),
    ]
    for module in (simharness, vcover, benefit, yardsticks):
        out.append((module, "interacting_updates",
                    span("core.interacting_updates", after=interacting_returned)))
    # Every policy callback gets a span, so the harness's self time never
    # includes policy work.
    for policy, cls in POLICY_CLASSES.items():
        for hook in ("on_query", "on_update"):
            out.append((cls, hook, span(f"{POLICY_LAYER[policy]}.{hook}")))
    return out


class LayerTotals:
    """Span aggregates, counters and maxima summed over one policy's traced
    replays; metrics are per-replay means unless named `_max`."""

    def __init__(self):
        self.replays = 0
        self.spans: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.on_query_us: list[float] = []

    def add(self, agg: dict[str, list[int]], tr: Tracer, on_query_ns: list[int]) -> None:
        self.replays += 1
        for name, row in agg.items():
            acc = self.spans.setdefault(name, [0, 0, 0])
            for i in range(3):
                acc[i] += row[i]
        for name, n in tr.counts.items():
            self.counts[name] = self.counts.get(name, 0) + n
        for name, v in tr.maxima.items():
            self.maxima[name] = max(v, self.maxima.get(name, v))
        self.on_query_us.extend(ns / 1e3 for ns in on_query_ns)

    def calls(self, name: str) -> float:
        return self.spans.get(name, [0, 0, 0])[0] / self.replays

    def seconds(self, name: str) -> float:
        return self.spans.get(name, [0, 0, 0])[1] / self.replays / 1e9

    def self_seconds(self, name: str) -> float:
        return self.spans.get(name, [0, 0, 0])[2] / self.replays / 1e9

    def count(self, name: str) -> float:
        return self.counts.get(name, 0) / self.replays


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def policy_metrics(policy: str, t: LayerTotals, overhead: float) -> dict[str, tuple]:
    """Per-layer metrics of one policy, as name -> (value, unit)."""
    p = policy
    m = {
        f"{p}.simharness.run_s": (t.seconds("simharness.run"), "s"),
        f"{p}.simharness.run.self_s": (t.self_seconds("simharness.run"), "s"),
        f"{p}.simharness.check_capacity_s": (t.seconds("simharness.check_capacity"), "s"),
        f"{p}.simharness.check_freshness_s": (t.seconds("simharness.check_freshness"), "s"),
        f"{p}.simharness.audit_calls": (t.calls("simharness.check_capacity")
                                        + t.calls("simharness.check_freshness"), "count"),
        f"{p}.simharness.report_s": (t.seconds("simharness.report"), "s"),
        f"{p}.core.cache_used_s": (t.seconds("core.cache_used"), "s"),
        f"{p}.core.cache_used_calls": (t.calls("core.cache_used"), "count"),
        f"{p}.core.apply_s": (t.seconds("core.apply"), "s"),
        f"{p}.core.apply_calls": (t.calls("core.apply"), "count"),
        f"{p}.core.record_s": (t.seconds("core.record"), "s"),
        f"{p}.core.receive_update_s": (t.seconds("core.receive_update"), "s"),
        f"{p}.core.interacting_updates_s": (t.seconds("core.interacting_updates"), "s"),
        f"{p}.core.interacting_updates_calls": (t.calls("core.interacting_updates"), "count"),
        f"{p}.core.interacting_updates_returned":
            (t.count("core.interacting_updates.returned"), "count"),
        f"{p}.trace_overhead": (overhead, "ratio"),
    }
    if p == "vcover":
        tail_pct, tail_us = tail_percentile(t.on_query_us)
        reached = t.calls("vcover.update_manager")
        loads, candidacies = t.count("loadmgr.loads"), t.count("loadmgr.candidacies")
        m.update({
            "covergraph.min_weight_cover_s": (t.seconds("covergraph.min_weight_cover"), "s"),
            "covergraph.min_weight_cover.self_s":
                (t.self_seconds("covergraph.min_weight_cover"), "s"),
            "covergraph.calls": (t.calls("covergraph.min_weight_cover"), "count"),
            "covergraph.augmentations": (t.count("covergraph.augmentations"), "count"),
            "covergraph.source_reachable_s": (t.seconds("covergraph.source_reachable"), "s"),
            "covergraph.flow_copy_s": (t.seconds("covergraph.flow_copy"), "s"),
            "covergraph.prune_s": (t.seconds("covergraph.prune"), "s"),
            "covergraph.graph_nodes_max": (t.maxima.get("covergraph.graph_nodes", 0), "count"),
            "covergraph.graph_edges_max": (t.maxima.get("covergraph.graph_edges", 0), "count"),
            "vcover.on_query_s": (t.seconds("vcover.on_query"), "s"),
            "vcover.update_manager_s": (t.seconds("vcover.update_manager"), "s"),
            "vcover.on_query_us.p50": (percentile(t.on_query_us, 50.0), "us"),
            "vcover.on_query_us.tail": (tail_us, "us"),
            "vcover.on_query_us.tail_pct": (tail_pct, "%"),
            "vcover.on_query_us.samples": (len(t.on_query_us), "count"),
            "vcover.ship_missing": (t.calls("vcover.on_query") - reached, "count"),
            "vcover.ship_cover": (t.count("vcover.ship_cover"), "count"),
            "vcover.answer_ratio": (_ratio(t.count("vcover.cover_answers"), reached), "ratio"),
            "loadmgr.offer_s": (t.seconds("loadmgr.offer"), "s"),
            "loadmgr.gds_lazy_apply_s": (t.seconds("loadmgr.gds_lazy_apply"), "s"),
            "loadmgr.candidacies": (candidacies, "count"),
            "loadmgr.loads": (loads, "count"),
            "loadmgr.evictions": (t.count("loadmgr.evictions"), "count"),
            "loadmgr.admit_ratio": (_ratio(loads, candidacies), "ratio"),
        })
    elif p == "benefit":
        m.update({
            "benefit.on_query_s": (t.seconds("benefit.on_query"), "s"),
            "benefit.on_update_s": (t.seconds("benefit.on_update"), "s"),
            "benefit.roll_window_s": (t.seconds("benefit.roll_window"), "s"),
            "benefit.window_rolls": (t.calls("benefit.roll_window"), "count"),
            "benefit.greedy_recompose_s": (t.seconds("benefit.greedy_recompose"), "s"),
        })
    elif p == "soptimal":
        m["yardsticks.plan_static_set_s"] = (t.seconds("yardsticks.plan_static_set"), "s")
    elif p == "replica":
        m["yardsticks.replica.on_update_s"] = (t.seconds("yardsticks.replica.on_update"), "s")
    return m
