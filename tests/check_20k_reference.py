"""vcover against the reference vcover on the 20k-event golden shape.

`tests/test_vcover.py` checks that `run()` gives the decision log and ledger
of `tests/oracles.py::reference_vcover_log` on every golden trace shape but
this one, whose reference recomputes about 450 covers per run with networkx
on graphs of up to about 1,400 updates: about 30 s per policy seed on a 2-vCPU
host, too slow for the tier-1 suite. This does the same for the `default20k`
shape at policy seeds 1-3, and CI runs it as its own step:

    PYTHONPATH=src python -m tests.check_20k_reference

Exits 0 when every run matches and 1 otherwise, printing one line per seed.
"""

import sys
import time

from midcache.simharness import RunConfig, run
from tests.oracles import reference_vcover_log
from tests.test_golden import SHAPES, trace

SHAPE = "default20k"


def main() -> int:
    catalog, events = trace(SHAPE)
    failed = 0
    for seed in (1, 2, 3):
        start = time.perf_counter()
        config = RunConfig(policy="vcover", seed=seed, cache_frac=SHAPES[SHAPE][1])
        report = run(events, catalog, config)
        log, ledger = reference_vcover_log(events, catalog, config.capacity(catalog), seed)
        problems = [name for name, same in (("decision log", report.decision_log == log),
                                            ("ledger", report.ledger.snapshot() == ledger))
                    if not same]
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} vcover {SHAPE} seed {seed}: "
              f"{len(log)} decisions ({time.perf_counter() - start:.1f} s)"
              + "".join(f"; {p} differs from the reference" for p in problems))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
