"""Wall time of a policy's replay at 80k events, two source trees side by side.

Loads the `midcache` package of each given `src/` directory into one process
(under the names `side0` and `side1`), generates the default-shape trace with
40,000 queries and 40,000 updates at generator seed 1 with each, and times
`run()` at a 30% cache, in rounds that alternate which tree goes first. Each
round replays vcover once per policy seed and every other listed policy,
which takes no seed, once; each such replay runs `REPEATS` times per tree,
the trees taking turns, and the round keeps each tree's fastest. Both trees
must give the same decision log and ledger. Not a test: perfbench's traces
stop at 10k events, so this is how a gain at the north star's middle size is
measured.

    python tests/time_80k_vcover.py PARENT/src CHANGE/src --rounds 7 --seeds 1,2,3
    python tests/time_80k_vcover.py PARENT/src CHANGE/src --policies vcover,benefit,nocache,replica,soptimal

Prints, per replay (`vcover seed N`, or the policy's name), each side's
median seconds, the median of the per-round ratios (second tree over first)
and the rounds the second tree won, and the same as one JSON object on the
last line. Wall seconds, not normalised for host speed.
"""

import argparse
import gc
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

# Timed runs of each replay per tree and round; the fastest is kept, so one
# slow run (a scheduler stall, a cold cache) does not become the round's time.
REPEATS = 3


def load(src: str, name: str):
    """The `midcache` package under `src`, imported as `name`."""
    root = Path(src) / "midcache"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("first", help="src/ directory of the first tree (the parent)")
    ap.add_argument("second", help="src/ directory of the second tree (the change)")
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--seeds", default="1,2,3", help="vcover policy seeds")
    ap.add_argument("--policies", default="vcover",
                    help="comma-separated policies; all but vcover replay once per round")
    ap.add_argument("--events", type=int, default=80_000)
    args = ap.parse_args()
    sides = [load(args.first, "side0"), load(args.second, "side1")]
    traces = [m.generate(m.GeneratorParams(n_queries=args.events // 2,
                                           n_updates=args.events // 2), 1) for m in sides]
    gc.freeze()
    seeds = [int(s) for s in args.seeds.split(",")]
    replays = []   # (policy, seed, label)
    for p in args.policies.split(","):
        replays += [(p, s, f"vcover seed {s}") for s in seeds] if p == "vcover" else [(p, 0, p)]
    times = {label: ([], []) for _, _, label in replays}
    for r in range(args.rounds):
        for policy, seed, label in replays:
            best, logs = [float("inf")] * 2, [None, None]
            for _ in range(REPEATS):
                for i in (0, 1) if r % 2 == 0 else (1, 0):
                    m, (catalog, events) = sides[i], traces[i]
                    config = m.RunConfig(policy=policy, seed=seed, cache_frac=0.3)
                    gc.collect()
                    start = time.perf_counter()
                    report = m.run(events, catalog, config)
                    best[i] = min(best[i], time.perf_counter() - start)
                    logs[i] = (repr(report.decision_log), report.ledger.snapshot())
            for i in (0, 1):
                times[label][i].append(best[i])
            if logs[0] != logs[1]:
                print(f"{label}: the two trees decide differently")
                return 1
    out = {}
    for label, (first, second) in times.items():
        ratios = [b / a for a, b in zip(first, second)]
        out[label] = {
            "first_median_s": round(statistics.median(first), 3),
            "second_median_s": round(statistics.median(second), 3),
            "pair_ratio_median": round(statistics.median(ratios), 3),
            "second_faster": f"{sum(b < a for a, b in zip(first, second))} of {len(ratios)}"}
        print(f"{label}: " + ", ".join(f"{k} {v}" for k, v in out[label].items()))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
