from pathlib import Path

import pytest
from hypothesis import Phase, settings

from midcache.core import ObjectCatalog, Query, Update
from midcache.workload import load_trace

GB = 10**9
SEC = 10**6   # microseconds

DATA_DIR = Path(__file__).parent / "data"

# The mutation gate (`tests/mutants.py`) asks only whether a test fails, so it
# runs under this profile, which reports the first failing example unshrunk.
settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))


@pytest.fixture
def worked_example():
    """Four-object offline scenario: objects 1,2,3 resident, object 4 loadable.
    The known-best plan (swap 3 for 4, ship updates 1/2/4 and query 7) costs
    26 GB; shipping all three queries against the untouched cache costs 28 GB.
    """
    catalog, events = load_trace(DATA_DIR / "worked_example" / "trace.jsonl")
    return {
        "catalog": catalog,
        "events": events,
        "capacity": 36 * GB,
        "initial_resident": {1, 2, 3},
        "best_plan_cost": 26 * GB,
        "all_ship_cost": 28 * GB,
    }


@pytest.fixture
def small_catalog():
    return ObjectCatalog.from_sizes({0: 10, 1: 20, 2: 30, 3: 40})


def mk_query(qid, time, objects, cost, tol=0, seq=0):
    return Query(qid=qid, time=time, objects=frozenset(objects), ship_cost=cost,
                 tolerance=tol, seq=seq or qid)


def mk_update(uid, time, obj, cost, seq=0):
    return Update(uid=uid, time=time, object=obj, ship_cost=cost, seq=seq or uid)
