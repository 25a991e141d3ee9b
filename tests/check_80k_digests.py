"""Byte-identity of run outputs at 80k events, the north star's middle size.

Generates the default-shape trace with 40,000 queries and 40,000 updates
(generator seed 1) and first checks the sha256 of its catalog and trace as
written (`catalog.json`, a NUL byte, then `trace.jsonl` with its
`params_meta` header, as perfbench fingerprints its traces), so a generator
drift is named as such rather than as ten failed run digests. It then replays
it under every policy at a 30% cache (vcover
at policy seeds 1-3, the others at seed 1), and under vcover at policy seeds
1-3 at a 5% cache, where it evicts objects whose updates are still on its
interaction graph. Each run's summary JSON, series CSV and decision-log repr
are hashed as `test_golden.py` hashes them and compared with the pins below.
Each run's decision log is then replayed through `replay_decisions`, which
must reproduce the run's ledger and final resident set and count one
`CacheState.moves` per initial resident and per logged Load or Evict. The
cyclic collector stays off through each run and its replay, and the
collections after them and before each networkx call below must find no
unreachable object (networkx's own cycles are collected after it, uncounted):
a replay makes no reference cycles, which is why `run()`'s event loop pauses
the collector. Every
`COVER_STRIDE`-th cover that vcover computes, counted over all its runs, is
checked against `tests.oracles.minimum_cut_cover`, the minimum cut that
`networkx.minimum_cut` finds, an oracle that shares no code with `covergraph`
(37 of 2,260 covers): once on the graph as given, whose update nodes are
groups of twin updates, and once on the graph with one node per member
update, against the cover read as member uids. Too
slow for the tier-1 suite (about 20 s on a 2-vCPU host, most of it in
networkx on the graphs with one node per update), so CI runs it as its own
step:

    PYTHONPATH=src python tests/check_80k_digests.py

Last, vcover at policy seed 1 runs again at both caches on the trace with
every size, load cost and event cost, and the capacity, multiplied by
`SCALE`: each run must give the same decision log and exactly `SCALE` times
the ledger, the byte-scaling relation of `tests/test_metamorphic.py` at this
size.

Each vcover run's line also counts the covers that follow a split of a group
or an eviction of an object with groups on the graph. Either removes nodes
outside a prune, which unsettles the flow, so those covers treat the whole
graph; the incremental kernel pays off only while they stay rare.

Exits 0 when every digest, replay and checked cover holds and 1 otherwise,
printing one line for the trace, one per run and one with the cover count and
the group nodes and member updates the checked graphs held, and one per
scaled run.
A change that means to alter behaviour re-records the pins and says why.
"""

import dataclasses
import gc
import hashlib
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))   # `tests`, when run by path

from midcache import vcover
from midcache.core import Evict, Load, ObjectCatalog, ObjectInfo
from midcache.simharness import RunConfig, replay_decisions, run
from midcache.workload import GeneratorParams, generate, params_meta, write_catalog, write_trace
from tests.oracles import members_graph, minimum_cut_cover

PARAMS = GeneratorParams(n_queries=40_000, n_updates=40_000)
SEED = 1

# sha256 of catalog.json + b"\0" + trace.jsonl as written
TRACE_GOLDEN = "ddc4a5db6e40fa06fb27eba9da9780ae6610032a65d4169cd2b283973d326f0d"

# (policy, cache_frac, policy seed) -> sha256
GOLDEN = {
    ("vcover", 0.3, 1): "738dcb1b67a9f4edf73fe523603f306a051589879c81ad8ac0c2168ef388e267",
    ("vcover", 0.3, 2): "d3ac28584ee7a499abd8262a64bbf24504026e3dfd61bcbdabda9b7ad984e349",
    ("vcover", 0.3, 3): "75483ef0b047ccc8ffd0b822acb17cbd3020cb7f307244f20bd7057585d1f26d",
    ("benefit", 0.3, 1): "0644332e61b9e51103c25a833aa53084d9ec93c1eed33832284f0e18f4426ac4",
    ("nocache", 0.3, 1): "67c9158ca3e0b411a72ea0cb47880796f45e923f21c48e4554b65d0465e7669f",
    ("replica", 0.3, 1): "8364f6930e757151ba4863e06aa69136e91cdbfa194c61e03bef91c15c949341",
    ("soptimal", 0.3, 1): "d3a3c55e3f553c896083e14975382cf757393c92e44851749fa31906657dca41",
    # A removal that left a settled flow settled changes seed 3's digest
    # here, though none of the runs above (every run's sampled covers catch it).
    ("vcover", 0.05, 1): "a4b67a2fdec6da62303422176a8f6871d0badef48805cc7f621b0ab77082943e",
    ("vcover", 0.05, 2): "310434555b6d8e83e50771005a4e1c959073951afdc7610f48c095784878e612",
    ("vcover", 0.05, 3): "30db66b0deb4d9bc0569ed34a235fe5e0609f2e43ed8991ec371d4dd19f59c86",
}


COVER_STRIDE = 60
SCALE = 3


def digest(report) -> str:
    blob = report.summary_json() + report.series_csv() + repr(report.decision_log)
    return hashlib.sha256(blob.encode()).hexdigest()


def replay_problems(catalog, events, report) -> list[str]:
    """How the replay of `report`'s log differs from the run, if it does."""
    cache, ledger = replay_decisions(events, catalog, report)
    moves = sum(type(d) is Load or type(d) is Evict for _, d in report.decision_log)
    checks = {"ledger": (ledger.snapshot(), report.ledger.snapshot()),
              "final resident set": (sorted(cache.resident), report.final_resident),
              "moves": (cache.moves, moves + len(report.initial_resident))}
    return [f"replay {name}: {got} != {want}" for name, (got, want) in checks.items()
            if got != want]


class SampledCovers:
    """Stands in for vcover's `min_weight_cover`, checking every
    `COVER_STRIDE`-th call against `minimum_cut_cover` of the graph as given
    and of its `members_graph`. `group_of` is the running policy's. Per run,
    `run_calls` counts the covers and `whole` those that treat the whole
    graph after a removal: vcover prunes after every cover, which settles
    the flow, so past a run's first cover a flow without a mark lost it to a
    split or an eviction."""

    def __init__(self):
        self.calls, self.checked, self.problems = 0, 0, []
        self.group_nodes = self.member_updates = 0
        self.run_calls = self.whole = self.garbage = 0
        self.group_of = {}
        self.real = vcover.min_weight_cover

    def __call__(self, g, prior=None):
        self.calls += 1
        self.run_calls += 1
        self.whole += self.run_calls > 1 and prior.mark is None
        sampled = self.calls % COVER_STRIDE == 0
        if sampled:
            self.garbage += gc.collect()   # the run's; networkx's own cycles are not counted
            ungrouped = members_graph(g, self.group_of)
            expect, expect_members = minimum_cut_cover(g), minimum_cut_cover(ungrouped)
            gc.collect()
            self.group_nodes += len(g.update_weight)
            self.member_updates += len(ungrouped.update_weight)
        cover, flow = self.real(g, prior)
        if sampled:
            self.checked += 1
            weight = (sum(g.query_weight[q] for q in cover.cover_queries)
                      + sum(g.update_weight[u] for u in cover.cover_updates))
            members = frozenset(u.uid for gid in cover.cover_updates for u in self.group_of[gid])
            if (cover.cover_queries, cover.cover_updates, weight) != expect:
                self.problems.append(f"cover {self.calls} differs from networkx's minimum cut")
            if (cover.cover_queries, members, weight) != expect_members:
                self.problems.append(f"cover {self.calls}, read as member updates, differs "
                                     "from networkx's minimum cut of the ungrouped graph")
        return cover, flow


def scaling_problems(catalog, events, report) -> list[str]:
    """How vcover's run with every byte quantity times `SCALE` differs from
    `report`'s run scaled, if it does."""
    big_catalog = ObjectCatalog({o: ObjectInfo(e.size * SCALE, e.load_cost * SCALE)
                                 for o, e in catalog.entries.items()})
    big_events = [dataclasses.replace(ev, ship_cost=ev.ship_cost * SCALE) for ev in events]
    config = RunConfig(policy="vcover", seed=report.config["seed"],
                       cache_bytes=report.capacity * SCALE)
    big = run(big_events, big_catalog, config)
    problems = [] if big.decision_log == report.decision_log else ["decision log"]
    if big.ledger.snapshot() != tuple(SCALE * x for x in report.ledger.snapshot()):
        problems.append(f"ledger {big.ledger.snapshot()} is not {SCALE} x "
                        f"{report.ledger.snapshot()}")
    return problems


def trace_digest(catalog, events) -> str:
    with tempfile.TemporaryDirectory() as d:
        write_catalog(catalog, Path(d) / "catalog.json")
        write_trace(events, Path(d) / "trace.jsonl", catalog_ref="catalog.json",
                    meta=params_meta(PARAMS, SEED))
        h = hashlib.sha256((Path(d) / "catalog.json").read_bytes())
        h.update(b"\0")
        h.update((Path(d) / "trace.jsonl").read_bytes())
    return h.hexdigest()


def main() -> int:
    start = time.perf_counter()
    catalog, events = generate(PARAMS, seed=SEED)
    got = trace_digest(catalog, events)
    failed = got != TRACE_GOLDEN
    print(f"{'FAIL' if failed else 'ok  '} trace (generator seed {SEED}): {got} "
          f"({time.perf_counter() - start:.2f} s)")
    covers = SampledCovers()
    real_init = vcover.VCoverPolicy.__init__

    def noting_init(policy, *args, **kwargs):
        real_init(policy, *args, **kwargs)
        covers.group_of = policy.group_of

    scaled = []   # the reports of vcover at policy seed 1
    vcover.min_weight_cover = covers
    vcover.VCoverPolicy.__init__ = noting_init
    gc.collect()
    gc.disable()   # so any cycle a run or its replay makes is still there to count
    try:
        for (policy, cache_frac, seed), want in GOLDEN.items():
            start = time.perf_counter()
            covers.problems.clear()
            covers.run_calls = covers.whole = covers.garbage = 0
            report = run(events, catalog,
                         RunConfig(policy=policy, seed=seed, cache_frac=cache_frac))
            got = digest(report)
            problems = ([] if got == want else ["digest"]) + covers.problems
            problems += replay_problems(catalog, events, report)
            if garbage := covers.garbage + gc.collect():
                problems.append(f"{garbage} objects in reference cycles after the run and "
                                "its replay")
            failed += bool(problems)
            detail = "".join(f"; {p}" for p in problems)
            if policy == "vcover":
                detail += (f"; {covers.whole} of {covers.run_calls} covers whole-graph "
                           "after a split or an eviction")
            print(f"{'FAIL' if problems else 'ok  '} {policy} cache {cache_frac} seed {seed}: "
                  f"{got} ({time.perf_counter() - start:.2f} s){detail}")
            if (policy, seed) == ("vcover", 1):
                scaled.append((cache_frac, report))
    finally:
        gc.enable()
        vcover.min_weight_cover = covers.real
        vcover.VCoverPolicy.__init__ = real_init
    print(f"{covers.checked} of {covers.calls} vcover covers checked against networkx, "
          f"as given and read as member updates: {covers.group_nodes} group nodes for "
          f"{covers.member_updates} member updates")
    if not covers.checked:
        print("FAIL no cover was checked")
        failed += 1
    for cache_frac, report in scaled:
        start = time.perf_counter()
        problems = scaling_problems(catalog, events, report)
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} vcover cache {cache_frac} seed 1 with every "
              f"byte quantity x{SCALE}, against x1 ({time.perf_counter() - start:.2f} s)"
              + "".join(f"; {p}" for p in problems))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
