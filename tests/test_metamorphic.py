"""Metamorphic relations over whole runs, for all five policies.

A metamorphic relation says how a run's output must change when its input
changes in a known way, so it needs no oracle for the output itself:
- *Time shift.* Adding a constant to every timestamp leaves every decision
  log, ledger and series unchanged: no policy reads absolute time.
- *Byte scaling.* Multiplying every size, load cost, ship cost and the
  capacity by k leaves every decision log unchanged and scales every ledger
  and series column but `seq` by exactly k. For `benefit` k is a power of
  two: its smoothing is float arithmetic, exact only under such a scaling.
- *Order-preserving relabel.* Mapping every object id through o -> 2o + 5
  leaves every decision log unchanged up to the relabel, and every ledger
  and series unchanged. Only an increasing map qualifies: `offer` sorts by
  id, and Greedy-Dual-Size breaks ties by id.
- *Prefix consistency.* The run of `events[:n]` makes the full run's
  decisions up to the n-th event's seq, for the four online policies.
  `soptimal` is exempt: it plans on the whole trace.

All four run over drawn traces with small byte quantities, where ties and
boundaries are common, and over generated traces of the default shape.
Capacity is given in bytes (`cache_bytes`), so it scales with the catalog.

Byte scaling does not hold for `benefit` and `soptimal` on drawn traces.
Both credit a query's cost to its objects by `proportional_shares`, whose
largest-remainder rounding does not commute with scaling: a scaled share
can differ from k times the unscaled one, and a benefit on the edge of zero
then flips a load. `test_share_rounding_breaks_byte_scaling` pins
the smallest such trace; on generated traces, whose quantities are bytes of
whole objects, the relation is checked for them too.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from midcache.core import Evict, Load, ObjectCatalog, ObjectInfo, Query, Update
from midcache.simharness import POLICY_NAMES, RunConfig, run
from midcache.workload import GeneratorParams, generate


@st.composite
def drawn_traces(draw):
    """A catalog of 1-4 objects, up to 24 events over it with tied times
    common, and a capacity between nothing and the whole catalog."""
    n_objects = draw(st.integers(1, 4), label="objects")
    quantity = st.integers(1, 9)
    catalog = ObjectCatalog({o: ObjectInfo(draw(quantity), draw(quantity))
                             for o in range(n_objects)})
    oid = st.integers(0, n_objects - 1)
    time, events = draw(st.integers(0, 3)), []
    for seq in range(1, draw(st.integers(0, 24), label="events") + 1):
        time += draw(st.sampled_from([0, 0, 1, 2]))
        cost = draw(st.integers(0, 9))
        if draw(st.booleans()):
            objects = frozenset(draw(st.lists(oid, min_size=1, max_size=3)))
            events.append(Query(seq, time, objects, cost, draw(st.integers(0, 3)), seq))
        else:
            events.append(Update(seq, time, draw(oid), cost, seq))
    capacity = draw(st.integers(0, catalog.total_size), label="cache_bytes")
    return catalog, events, capacity


@st.composite
def generated_traces(draw):
    """A generated trace of the default shape, shrunk to 12 objects and
    300 events, at a drawn generator seed and a 30% cache."""
    params = GeneratorParams(n_objects=12, n_queries=150, n_updates=150,
                             query_hotspots=(2, 3, 4), update_hotspots=(6, 7, 8))
    catalog, events = generate(params, draw(st.integers(1, 50), label="generator seed"))
    return catalog, list(events), int(0.3 * catalog.total_size)


def config(draw, policy: str, capacity: int) -> RunConfig:
    params = {}
    if policy == "benefit":
        params = {"delta": draw(st.sampled_from([1, 3, 50]), label="delta")}
    elif policy == "soptimal":
        params = {"mode": draw(st.sampled_from(["eager", "lazy"]), label="mode")}
    return RunConfig(policy=policy, seed=draw(st.integers(0, 3), label="policy seed"),
                     cache_bytes=capacity, params=params)


def scale(catalog: ObjectCatalog, events: list, k: int) -> tuple[ObjectCatalog, list]:
    scaled = ObjectCatalog({o: ObjectInfo(e.size * k, e.load_cost * k)
                            for o, e in catalog.entries.items()})
    return scaled, [dataclasses.replace(ev, ship_cost=ev.ship_cost * k) for ev in events]


def assert_scaled(a, b, k: int) -> None:
    """`b` is `a`'s run with every byte quantity times k."""
    assert b.decision_log == a.decision_log
    assert b.ledger.snapshot() == tuple(k * x for x in a.ledger.snapshot())
    assert b.series == [(row[0],) + tuple(k * x for x in row[1:]) for row in a.series]


@pytest.mark.parametrize("policy", POLICY_NAMES)
@settings(max_examples=40, deadline=None)
@given(st.one_of(drawn_traces(), generated_traces()), st.integers(1, 10**12), st.data())
def test_time_shift_changes_nothing(policy, trace, shift, data):
    catalog, events, capacity = trace
    shifted = [dataclasses.replace(ev, time=ev.time + shift) for ev in events]
    cfg = config(data.draw, policy, capacity)
    a, b = run(events, catalog, cfg), run(shifted, catalog, cfg)
    assert b.decision_log == a.decision_log
    assert b.ledger == a.ledger
    assert b.series == a.series


@pytest.mark.parametrize("policy", POLICY_NAMES)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_byte_scaling_scales_ledgers_only(policy, data):
    exact = policy in ("vcover", "nocache", "replica")
    catalog, events, capacity = data.draw(
        st.one_of(drawn_traces(), generated_traces()) if exact else generated_traces())
    k = data.draw(st.sampled_from([2, 4, 8] if policy == "benefit" else [2, 3, 4, 7]), label="k")
    cfg = config(data.draw, policy, capacity)
    big_catalog, big_events = scale(catalog, events, k)
    a = run(events, catalog, cfg)
    b = run(big_events, big_catalog, dataclasses.replace(cfg, cache_bytes=capacity * k))
    assert_scaled(a, b, k)


def relabel(o: int) -> int:
    return 2 * o + 5


@pytest.mark.parametrize("policy", POLICY_NAMES)
@settings(max_examples=40, deadline=None)
@given(st.one_of(drawn_traces(), generated_traces()), st.data())
def test_order_preserving_relabel_changes_only_the_ids(policy, trace, data):
    catalog, events, capacity = trace
    moved_catalog = ObjectCatalog({relabel(o): e for o, e in catalog.entries.items()})
    moved = [dataclasses.replace(ev, objects=frozenset(map(relabel, ev.objects)))
             if isinstance(ev, Query) else dataclasses.replace(ev, object=relabel(ev.object))
             for ev in events]
    cfg = config(data.draw, policy, capacity)
    a, b = run(events, catalog, cfg), run(moved, moved_catalog, cfg)
    assert b.decision_log == [(seq, type(d)(relabel(d.oid)) if type(d) in (Load, Evict) else d)
                              for seq, d in a.decision_log]
    assert b.initial_resident == list(map(relabel, a.initial_resident))
    assert b.final_resident == list(map(relabel, a.final_resident))
    assert b.ledger == a.ledger
    assert b.series == a.series


@pytest.mark.parametrize("policy", [p for p in POLICY_NAMES if p != "soptimal"])
@settings(max_examples=40, deadline=None)
@given(st.one_of(drawn_traces(), generated_traces()), st.data())
def test_a_prefix_makes_the_full_runs_decisions(policy, trace, data):
    catalog, events, capacity = trace
    n = data.draw(st.integers(0, len(events)), label="prefix")
    cfg = config(data.draw, policy, capacity)
    last = events[n - 1].seq if n else 0
    full = run(events, catalog, cfg)
    assert run(events[:n], catalog, cfg).decision_log == \
        [(seq, d) for seq, d in full.decision_log if seq <= last]


@pytest.mark.parametrize("policy", ["benefit", "soptimal"])
@pytest.mark.xfail(strict=True, reason="proportional_shares' rounding does not scale")
def test_share_rounding_breaks_byte_scaling(policy):
    # Query cost 3 over sizes 5 and 6 splits (1, 2); times 2 it splits (3, 3),
    # not (2, 4). Object 0's benefit, its share less its load cost, goes from
    # 0 to 1, so the scaled run loads it and the unscaled one does not.
    catalog = ObjectCatalog({0: ObjectInfo(5, 1), 1: ObjectInfo(6, 1)})
    events = [Query(1, 0, frozenset({0, 1}), 3, 0, 1)]
    cfg = RunConfig(policy=policy, seed=0, cache_bytes=5,
                    params={"delta": 1} if policy == "benefit" else {})
    a = run(events, catalog, cfg)
    big_catalog, big_events = scale(catalog, events, 2)
    assert_scaled(a, run(big_events, big_catalog, dataclasses.replace(cfg, cache_bytes=10)), 2)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_relations_hold_on_a_generated_trace(policy):
    """Both relations at once, on one fixed generated trace per policy."""
    catalog, events = generate(GeneratorParams(n_objects=12, n_queries=300, n_updates=300,
                                               query_hotspots=(2, 3, 4),
                                               update_hotspots=(6, 7, 8)), 1)
    capacity, k = int(0.3 * catalog.total_size), 4
    cfg = RunConfig(policy=policy, seed=1, cache_bytes=capacity)
    big_catalog, big_events = scale(catalog, events, k)
    moved = [dataclasses.replace(ev, time=ev.time + 10**9) for ev in big_events]
    assert_scaled(run(events, catalog, cfg),
                  run(moved, big_catalog, dataclasses.replace(cfg, cache_bytes=capacity * k)), k)
