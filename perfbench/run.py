"""Entry point of the midcache benchmark.

    python3 perfbench/run.py --workload hot68 --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository: it imports midcache from the
checkout's `src/` and nowhere else, and exits with status 2 when that source
tree is missing. See README.md in this directory for what it measures.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    src = ROOT / "src"
    if not (src / "midcache" / "__init__.py").is_file():
        print(f"perfbench: no midcache sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
