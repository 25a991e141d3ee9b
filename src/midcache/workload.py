"""Catalog/trace file formats and a synthetic workload generator.

Files: `catalog.json` holds the object set; `trace.jsonl` starts with a
header line referencing its catalog, followed by one JSON event per line.
Both read transparently through gzip when the path ends in `.gz`, and one
reader (`_read`) parses and checks every trace.

The generator mimics the qualitative shape of scan-driven scientific
workloads: heavy-tailed (log-uniform) object sizes, queries clustered around
hotspot objects whose focus drifts along the trace, and updates emitted in
scan runs over contiguous object-id windows biased toward update hotspots
disjoint from the query hotspots.
"""

from __future__ import annotations

import gzip
import io
import json
import math
import os
import random
import re
import sys
import zlib
from bisect import bisect
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from itertools import accumulate
from pathlib import Path
from typing import Iterator, Sequence

from .core import (MAX_BYTES, Event, EventContract, ObjectCatalog, ObjectId, ObjectInfo,
                   Query, Trace, Update, as_trace, shuffle)

CATALOG_SCHEMA = "catalog/v1"
TRACE_SCHEMA = "trace/v1"
# Each event line is the compact, sorted-key JSON of its record; `%d` prints
# what `json.dumps` prints because every event field is of type `int`.
_QUERY_LINE = '{"cost":%d,"id":%d,"kind":"query","objects":[%s],"time":%d,"tolerance":%d}\n'
_UPDATE_LINE = '{"cost":%d,"id":%d,"kind":"update","object":%d,"time":%d}\n'


def _template(*lines: str) -> re.Pattern[bytes]:
    """The lines any of `lines` gives for non-negative ints, as one bytes
    pattern: each `%d` a group of digits without leading zeros, `%s` a group
    of such ints joined by commas, the final newline optional. The groups of
    the text all lines start with come first, then each line's own."""
    n = "(?:0|[1-9][0-9]*)"
    head = os.path.commonprefix(lines).removesuffix("%")
    tails = "|".join(re.escape(line[len(head):].removesuffix("\n")) for line in lines)
    body = f"{re.escape(head)}(?:{tails})".replace("%d", f"({n})")
    return re.compile(f"{body.replace('%s', f'({n}(?:,{n})*)')}\n?".encode())


_EVENT_RE = _template(_QUERY_LINE, _UPDATE_LINE)


class TraceError(Exception):
    pass


def _finite(x) -> bool:
    """An int, or a float that is not inf or NaN (a bool is neither)."""
    return type(x) is int or type(x) is float and math.isfinite(x)


def _check_weights(name: str, weights) -> None:
    """The rule `Random.choices` sets for its weights, checked up front: a
    non-empty vector of non-negative numbers whose running total ends above 0
    and converts to a finite float."""
    if not weights or not all(_finite(w) and w >= 0 for w in weights):
        raise ValueError(f"{name} must be non-empty, finite and non-negative, got {weights!r}")
    if not 0 < list(accumulate(weights))[-1] <= sys.float_info.max:
        raise ValueError(f"{name} must have a finite, positive total, got {weights!r}")


@dataclass(frozen=True)
class GeneratorParams:
    """Generator settings, checked once at construction; derive variants
    with `dataclasses.replace`."""

    n_objects: int = 68
    size_min: int = 50_000_000             # 50 MB
    size_max: int = 20_000_000_000         # 20 GB
    load_cost_factor: float = 1.0
    n_queries: int = 10_000
    n_updates: int = 10_000
    query_hotspots: tuple[int, ...] = (22, 23, 24, 62, 63, 64)
    query_hotspot_weight: float = 0.95
    update_hotspots: tuple[int, ...] = (11, 12, 13, 30, 31, 32)
    update_hotspot_weight: float = 0.7
    scan_len: int = 8
    objects_per_query_weights: tuple[float, ...] = (0.45, 0.3, 0.15, 0.1)
    tolerance_mix: tuple[tuple[int, float], ...] = ((0, 0.5), (5_000, 0.3), (100_000, 0.2))
    selectivity: float = 0.01
    update_fraction: float = 0.01
    mean_interarrival_us: int = 1_000
    drift_cycles: float = 1.0

    def __post_init__(self):
        for name in ("n_objects", "size_min", "size_max", "n_queries", "n_updates",
                     "scan_len", "mean_interarrival_us"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        for name in ("load_cost_factor", "query_hotspot_weight", "update_hotspot_weight",
                     "selectivity", "update_fraction", "drift_cycles"):
            if not _finite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.n_objects < 1:
            raise ValueError("n_objects must be >= 1")
        if self.n_queries < 0 or self.n_updates < 0:
            raise ValueError("n_queries and n_updates must be >= 0")
        if self.mean_interarrival_us < 1:
            raise ValueError("mean_interarrival_us must be >= 1")
        if not 0 < self.size_min <= self.size_max <= MAX_BYTES:
            raise ValueError(f"size bounds must satisfy 0 < min <= max <= {MAX_BYTES}")
        for name in ("query_hotspots", "update_hotspots"):
            for h in getattr(self, name):
                if type(h) is not int:
                    raise ValueError(f"{name} must hold ints, got {h!r}")
                if not 0 <= h < self.n_objects:
                    raise ValueError(f"hotspot id {h} outside catalog [0,{self.n_objects})")
        for w in (self.query_hotspot_weight, self.update_hotspot_weight):
            if not 0.0 <= w <= 1.0:
                raise ValueError("hotspot weights must be in [0,1]")
        if self.scan_len < 1:
            raise ValueError("scan_len must be >= 1")
        _check_weights("objects_per_query_weights", self.objects_per_query_weights)
        if not all(isinstance(e, (tuple, list)) and len(e) == 2 and type(e[0]) is int
                   and e[0] >= 0 for e in self.tolerance_mix):
            raise ValueError(f"tolerance_mix must hold (int tolerance >= 0, weight) pairs, "
                             f"got {self.tolerance_mix!r}")
        _check_weights("tolerance_mix", [w for _, w in self.tolerance_mix])
        # Past MAX_BYTES a factor prices every event past it, and past float
        # range int() of the cost raises OverflowError instead.
        for name in ("selectivity", "update_fraction"):
            if not 0 < getattr(self, name) <= MAX_BYTES:
                raise ValueError(f"{name} must be in (0, {MAX_BYTES}]")
        if self.load_cost_factor > MAX_BYTES:
            raise ValueError(f"load_cost_factor must be at most {MAX_BYTES}")

    @classmethod
    def scaled_hotspots(cls, n_objects: int) -> "GeneratorParams":
        """Defaults re-anchored for a different catalog size: hotspot ids are
        kept at the same fractional positions of the id space."""
        base = cls()
        scale = n_objects / base.n_objects
        qh = tuple(sorted({min(n_objects - 1, int(h * scale)) for h in base.query_hotspots}))
        uh = tuple(sorted({min(n_objects - 1, int(h * scale)) for h in base.update_hotspots}))
        return cls(n_objects=n_objects, query_hotspots=qh, update_hotspots=uh)


def _drifting_choice(rng: random.Random, centers: tuple[int, ...],
                     progress: float, cycles: float) -> int:
    """Pick a hotspot center whose preferred index slides along the list as
    the trace progresses, so the queried region evolves over time."""
    focus = progress * cycles * len(centers)
    idx = int(focus + rng.gauss(0.0, 0.75)) % len(centers)
    return centers[idx]


def generate(params: GeneratorParams, seed: int) -> tuple[ObjectCatalog, Trace]:
    """A catalog and a trace over it. Ids and `seq` count from 1, time rises,
    and equal object sets share one frozenset, so the events keep the whole
    contract and come back as a trusted `Trace`.

    The weighted picks (objects per query, tolerance) and the inter-arrival
    gaps draw `rng.random()` directly, by the formulas `Random.choices(...,
    cum_weights=cum)[0]` and `Random.expovariate` use on CPython 3.10-3.13:
    `population[bisect(cum, random() * (cum[-1] + 0.0), 0, len(cum) - 1)]`
    and `-log(1.0 - random()) / lambd`; the event order by `core.shuffle`, which
    swaps each index i, from the top down, with `getrandbits((i + 1).bit_length())`
    redrawn while above i, as `Random.shuffle` does. `GeneratorParams` makes the
    checks `choices` would make. Each query shape, its object set and cost, is
    built once per `(center, nobj)`. No draw changes: the trace is the one the
    `choices`/`expovariate`/`shuffle` calls give, byte for byte."""
    rng = random.Random(seed)
    draw = rng.random
    n = params.n_objects
    sizes = {}
    lo, hi = math.log(params.size_min), math.log(params.size_max)
    for oid in range(n):
        sizes[oid] = max(1, int(math.exp(rng.uniform(lo, hi))))
    load_costs = {oid: max(1, int(params.load_cost_factor * s)) for oid, s in sizes.items()}
    update_costs = {oid: max(1, int(params.update_fraction * s)) for oid, s in sizes.items()}
    catalog = ObjectCatalog.from_sizes(sizes, load_costs)

    markers = ["q"] * params.n_queries + ["u"] * params.n_updates
    shuffle(markers, rng)
    total = len(markers)

    tol_values = [t for t, _ in params.tolerance_mix]
    tol_cum = list(accumulate(w for _, w in params.tolerance_mix))
    tol_total, tol_hi = tol_cum[-1] + 0.0, len(tol_cum) - 1
    opq_cum = list(accumulate(params.objects_per_query_weights))
    opq_total, opq_hi = opq_cum[-1] + 0.0, len(opq_cum) - 1
    lambd = 1.0 / params.mean_interarrival_us

    events: list[Event] = []
    object_sets: dict[frozenset[ObjectId], frozenset[ObjectId]] = {}
    shapes: dict[tuple[int, int], tuple[frozenset[ObjectId], int]] = {}
    t = 0
    scan_pos, scan_left = 0, 0
    for i, kind in enumerate(markers):
        t += max(1, int(-math.log(1.0 - draw()) / lambd))
        eid = i + 1
        if kind == "q":
            if params.query_hotspots and draw() < params.query_hotspot_weight:
                center = _drifting_choice(rng, params.query_hotspots, i / total,
                                          params.drift_cycles)
            else:
                center = rng.randrange(n)
            nobj = bisect(opq_cum, draw() * opq_total, 0, opq_hi) + 1
            shape = shapes.get((center, nobj))
            if shape is None:
                objs = frozenset((center - nobj // 2 + k) % n for k in range(nobj))
                objs = object_sets.setdefault(objs, objs)
                cost = max(1, int(params.selectivity * sum(sizes[o] for o in objs)))
                shape = shapes[center, nobj] = objs, cost
            tol = tol_values[bisect(tol_cum, draw() * tol_total, 0, tol_hi)]
            events.append(Query(eid, t, shape[0], shape[1], tol, eid))
        else:
            if scan_left == 0:
                if params.update_hotspots and draw() < params.update_hotspot_weight:
                    scan_pos = _drifting_choice(rng, params.update_hotspots, i / total,
                                                params.drift_cycles)
                else:
                    scan_pos = rng.randrange(n)
                scan_left = params.scan_len
            events.append(Update(eid, t, scan_pos, update_costs[scan_pos], eid))
            scan_pos = (scan_pos + 1) % n
            scan_left -= 1
    return catalog, Trace._trusted(catalog, events)


# ---------------------------------------------------------------- file I/O

@contextmanager
def _open(path: Path, mode: str):
    """Open as UTF-8 text ("r", "w") or as bytes ("rb"), through gzip when
    the path ends in `.gz`. Gzip output has a zero mtime and no embedded file
    name, so the same content always gives the same bytes."""
    with open(path, mode[0] + "b") as raw:
        fh = (gzip.GzipFile(filename="", mode=mode[0] + "b", fileobj=raw, mtime=0)
              if str(path).endswith(".gz") else raw)
        with fh if mode.endswith("b") else io.TextIOWrapper(fh, encoding="utf-8") as stream:
            yield stream


def write_catalog(catalog: ObjectCatalog, path) -> None:
    doc = {"schema": CATALOG_SCHEMA,
           "objects": [{"id": oid, "size": info.size, "load_cost": info.load_cost}
                       for oid, info in sorted(catalog.entries.items())]}
    with _open(Path(path), "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def read_catalog(path) -> ObjectCatalog:
    with _open(Path(path), "r") as fh:
        doc = json.load(fh)
    if doc.get("schema") != CATALOG_SCHEMA:
        raise TraceError(f"{path}: unexpected catalog schema {doc.get('schema')!r}")
    entries = {}
    for o in doc["objects"]:
        if o["id"] in entries:
            raise TraceError(f"{path}: duplicate object id {o['id']}")
        entries[o["id"]] = ObjectInfo(o["size"], o["load_cost"])
    return ObjectCatalog(entries)


def _event_from_json(doc: dict, seq: int) -> Event:
    """One event record. `Query` and `Update` check their own fields and
    raise ValueError; a record of another kind is a TraceError."""
    kind = doc.get("kind")
    if kind == "query":
        return Query(doc["id"], doc["time"], frozenset(doc["objects"]), doc["cost"],
                     doc.get("tolerance", 0), seq)
    if kind == "update":
        return Update(doc["id"], doc["time"], doc["object"], doc["cost"], seq)
    raise TraceError(f"unknown event kind {kind!r}")


def write_trace(events: list[Event], path, catalog_ref: str = "catalog.json",
                meta: dict | None = None) -> None:
    """Write the header line, then one line per event, in order. Each
    distinct object set is sorted and joined once."""
    header = {"schema": TRACE_SCHEMA, "catalog": catalog_ref,
              "n_events": len(events)}
    if meta:
        header["meta"] = meta
    ids: dict[frozenset[ObjectId], str] = {}    # never "": a query has objects
    with _open(Path(path), "w") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        fh.writelines(_QUERY_LINE % (ev.ship_cost, ev.qid,
                                     ids.get(ev.objects) or ids.setdefault(
                                         ev.objects, ",".join(map(str, sorted(ev.objects)))),
                                     ev.time, ev.tolerance) if type(ev) is Query else
                      _UPDATE_LINE % (ev.ship_cost, ev.uid, ev.object, ev.time)
                      for ev in events)


@dataclass
class ValidationReport:
    n_queries: int = 0
    n_updates: int = 0
    errors: list[tuple[int, str]] = field(default_factory=list)   # (line, message)

    @property
    def ok(self) -> bool:
        return not self.errors


def _read(path, rep: ValidationReport) -> tuple[ObjectCatalog | None, Iterator[Event]]:
    """The one trace reader: it reads the header and the catalog it names
    (relative to the trace file), then returns an iterator that parses the
    events in one pass and adds every (line, message) error to `rep`: the
    header's or catalog's, and per-line UTF-8 and JSON (both with `json.loads`'
    messages, less the advice that ends its int digit-limit one; nesting too
    deep to decode is malformed JSON too), a record that `Query`/`Update`
    refuse to build (their field rules), and every message `EventContract`
    gives an event. A line of JSON whitespace only (space, tab, CR, LF) is
    blank and skipped. A file that cannot be read to its end (truncated or
    corrupt gzip data, an I/O error) adds one error for the line where reading
    stopped and ends the stream there. For corrupt deflate data that line can
    come up to one read buffer before the damage, since the gzip reader drops
    the text it decompressed in the failing read; truncation is named exactly.
    Events get 1-based sequence numbers, queries with equal object sets share
    one frozenset, and `rep` counts every event yielded, however reading ends.

    Each line is matched once against `_EVENT_RE`, the writer's two line
    templates in one pattern, and a match is built from its digits as
    `json.loads` would read them. Any other line, and a match whose ints `int()`
    refuses (its 4300-digit limit), takes the JSON path and its messages."""
    path = Path(path)

    def fail(line: int, msg: str) -> None:
        rep.errors.append((line, msg))

    try:
        with _open(path, "rb") as fh:
            header = json.loads(fh.readline().decode())
        if header.get("schema") != TRACE_SCHEMA:
            raise TraceError(f"unexpected trace schema {header.get('schema')!r}")
        if "n_events" in header and type(header["n_events"]) is not int:
            raise TraceError(f"n_events must be an int, got {json.dumps(header['n_events'])}")
        catalog = read_catalog(path.parent / header["catalog"])
    except (TraceError, OSError, EOFError, zlib.error, KeyError, ValueError,
            TypeError, AttributeError, RecursionError) as exc:
        fail(1, f"bad header or catalog: {str(exc).partition('; use sys.')[0]}")
        return None, iter(())

    def events() -> Iterator[Event]:
        n_queries = n_updates = n_blank = 0
        line_no = 0                 # the last line read whole
        object_sets: dict[frozenset[ObjectId], frozenset[ObjectId]] = {}
        object_texts: dict[bytes, frozenset[ObjectId]] = {}    # template digits -> shared set
        check = EventContract(catalog).check
        try:
            with _open(path, "rb") as fh:
                fh.readline()
                line_no = 1
                for line_no, line in enumerate(fh, start=2):
                    if m := _EVENT_RE.fullmatch(line):
                        cost, eid, oids, t, tol, oid, ut = m.groups()
                        try:
                            if oids is None:
                                ev = Update(int(eid), int(ut), int(oid), int(cost), line_no - 1)
                            else:
                                # The pattern admits ints only, so the set is safe
                                # to share before Query checks it.
                                if (objects := object_texts.get(oids)) is None:
                                    objects = frozenset(map(int, oids.split(b",")))
                                    objects = object_texts[oids] = object_sets.setdefault(
                                        objects, objects)
                                ev = Query(int(eid), int(t), objects, int(cost), int(tol),
                                           line_no - 1)
                        except ValueError:      # int()'s digit limit: the JSON path words it
                            m = None
                    if m is None:
                        if not line.strip(b" \t\n\r"):
                            n_blank += 1
                            continue
                        try:
                            doc = json.loads(line.decode())
                        except (ValueError, RecursionError) as exc:   # JSON, UTF-8, digit limit
                            fail(line_no, f"malformed JSON: {str(exc).partition('; use sys.')[0]}")
                            continue
                        try:
                            ev = _event_from_json(doc, line_no - 1)
                        except (TraceError, KeyError, AttributeError, TypeError,
                                ValueError) as exc:
                            fail(line_no, f"bad event record: {exc}")
                            continue
                        if type(ev) is Query:
                            # Shared only once Query accepted it: a rejected
                            # [1.0] or [true] equals frozenset({1}).
                            oids = object_sets.setdefault(ev.objects, ev.objects)
                            if oids is not ev.objects:
                                object.__setattr__(ev, "objects", oids)
                    if type(ev) is Query:
                        n_queries += 1
                    else:
                        n_updates += 1
                    for msg in check(ev):
                        fail(line_no, msg)
                    yield ev
        except (OSError, EOFError, zlib.error) as exc:
            fail(line_no + 1, f"unreadable trace: {exc}")
            return
        finally:
            rep.n_queries += n_queries
            rep.n_updates += n_updates
        declared = header.get("n_events")
        if declared is not None and declared != (n_records := line_no - 1 - n_blank):
            fail(1, f"header declares {declared} events, file has {n_records}")

    return catalog, events()


def validate(path) -> ValidationReport:
    """Every error the trace reader finds, by line; events are not kept."""
    rep = ValidationReport()
    for _ in _read(path, rep)[1]:
        pass
    return rep


def load_trace(path) -> tuple[ObjectCatalog, Trace]:
    """Load a valid trace and its catalog; raise TraceError naming
    `<path>:<line>` for the first error `validate` would report. The events
    come back as a trusted `Trace` (see `core.Trace`)."""
    rep = ValidationReport()
    catalog, stream = _read(path, rep)
    events = tuple(stream)
    if rep.errors:
        line, msg = rep.errors[0]
        raise TraceError(f"{path}:{line}: {msg}")
    return catalog, Trace._trusted(catalog, events)


def regrain(catalog: ObjectCatalog, events: Sequence[Event], n_groups: int
            ) -> tuple[ObjectCatalog, Trace]:
    """Re-partition the catalog into coarser objects by merging contiguous id
    ranges (group k covers ids [k*n/g, (k+1)*n/g)). Query and update shipping
    costs carry over unchanged; merged sizes and load costs add up. The events
    are checked against `catalog` as `run()` checks them (a `Trace` of its
    ids is trusted); ids, `seq` and times carry over and every group is in the
    merged catalog, so the result is a trusted `Trace` of the merged one."""
    ids = catalog.ids()
    n = len(ids)
    if not 1 <= n_groups <= n:
        raise ValueError(f"n_groups must be in [1,{n}] (merging only)")
    group_of = {oid: rank * n_groups // n for rank, oid in enumerate(ids)}
    sizes: dict[ObjectId, int] = {}
    costs: dict[ObjectId, int] = {}
    for oid in ids:
        g, info = group_of[oid], catalog.entries[oid]
        sizes[g] = sizes.get(g, 0) + info.size
        costs[g] = costs.get(g, 0) + info.load_cost
    merged = ObjectCatalog.from_sizes(sizes, costs)
    object_sets: dict[frozenset[ObjectId], frozenset[ObjectId]] = {}

    def regroup(objects: frozenset[ObjectId]) -> frozenset[ObjectId]:
        groups = frozenset(group_of[o] for o in objects)
        return object_sets.setdefault(groups, groups)

    out = [replace(ev, objects=regroup(ev.objects))
           if isinstance(ev, Query) else replace(ev, object=group_of[ev.object])
           for ev in as_trace(catalog, events)]
    return merged, Trace._trusted(merged, out)


def params_meta(params: GeneratorParams, seed: int) -> dict:
    doc = asdict(params)
    doc["seed"] = seed
    return doc
