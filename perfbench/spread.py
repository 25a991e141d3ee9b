"""Run the benchmark once per seed and report, for each metric, the median,
the quartiles and the spread (interquartile distance over the median) of the
per-run values: the figure each bound in BENCHMARK.json is set against.

    python3 perfbench/spread.py --workload hot68 --seeds 1-10 --seconds 50 \
        --out .perfbench_out/spread-hot68.json

Runs are sequential, one process at a time, from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", default="50")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        wall = time.perf_counter() - start
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: failed/attempted {result['failed']}/{result['attempted']}, "
              f"{wall:.1f} s wall", file=sys.stderr)
    names = runs[0]["metrics"]
    table = {name: summarize([r["metrics"][name]["value"] for r in runs]) for name in names}
    for name, s in table.items():
        print(f"{name:48s} median {s['median']:>14.6g}  spread {s['spread']:.4f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds,
                                        "all_correct": all(r["correct"] for r in runs),
                                        "metrics": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
