"""Domain types shared by every policy: catalog, events, cache state, decisions,
and the traffic ledger.

All byte quantities are ints of at most `MAX_BYTES` (2**53 - 1, so floats
hold them exactly; 1 GB == 10**9 bytes in traces) and all timestamps are
integer microseconds; ties in the trace are broken by sequence number.
Keeping everything integral makes ledgers exact and runs replayable, so
`Query`, `Update` and `ObjectCatalog` check when built that every field and
object id is of type `int` exactly (no bools or floats), that byte quantities
are in range and tolerances non-negative, and that a query's objects are a
non-empty frozenset.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import FrozenInstanceError, dataclass, field, fields
from types import MappingProxyType


ObjectId = int
MAX_BYTES = 2**53 - 1
_INT = frozenset({int})


class CacheError(Exception):
    """Base for cache-state violations."""


class UnknownObject(CacheError):
    pass


class NonResident(CacheError):
    pass


class CapacityExceeded(CacheError):
    pass


class NotOutstanding(CacheError):
    pass


def _value(cls):
    """`dataclass(frozen=True, slots=True)`, whose instances raise
    FrozenInstanceError on any attribute assignment or deletion. (For a name
    that is not a field, its own methods raise TypeError on CPython 3.10-3.13.)

    Unless the class defines its own `__init__`, the generated one gives way to
    one made the way `dataclasses` makes it, with the same parameters,
    defaults, annotations and `__qualname__`, that sets each slot through its
    descriptor and then calls `__post_init__` if the class has one. That
    skips the frozen `object.__setattr__`'s attribute lookup per field."""
    def refuse(self, name, *value):
        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")
    own_init = "__init__" in cls.__dict__
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__ = cls.__delattr__ = refuse
    if not own_init:
        names = [f.name for f in fields(cls)]
        post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        scope = {f"_set_{n}": cls.__dict__[n].__set__ for n in names}
        exec(f"def __init__(self, {', '.join(names)}):"
             + "".join(f"\n    _set_{n}(self, {n})" for n in names) + post, scope)
        for attr in ("__defaults__", "__annotations__", "__qualname__", "__module__"):
            setattr(scope["__init__"], attr, getattr(cls.__init__, attr))
        cls.__init__ = scope["__init__"]
    return cls


@_value
class ObjectInfo:
    size: int
    load_cost: int


class _Table(dict):
    """A catalog's table: one lookup reads an entry or refuses an unknown id."""

    __slots__ = ()

    def __missing__(self, oid):
        raise UnknownObject(f"object {oid} not in catalog")


@dataclass(frozen=True)
class ObjectCatalog:
    """The server's object set with per-object sizes and load costs, checked
    however it is built: ids, sizes and load costs of type `int` exactly,
    sizes and load costs in [1, MAX_BYTES]. Read-only once built: `entries`
    is a `MappingProxyType` over a checked copy of the given mapping. Every
    lookup is `entries[oid]`, which raises UnknownObject for an id it lacks.

    Load cost defaults to the object's size (cost of moving the whole object
    over the network); catalogs may override it per object."""

    entries: Mapping[ObjectId, ObjectInfo] = field(default_factory=dict)

    def __post_init__(self):
        table = _Table(self.entries)
        for oid, info in table.items():
            if type(info) is not ObjectInfo:
                raise ValueError(f"object {oid!r}: entry must be an ObjectInfo, "
                                 f"not {type(info).__name__}")
            size, lc = info.size, info.load_cost
            if not type(oid) is type(size) is type(lc) is int:
                raise ValueError(f"object {oid!r}: id, size and load cost must be "
                                 f"integers, got {size!r} and {lc!r}")
            for name, value in (("size", size), ("load cost", lc)):
                if value <= 0:
                    raise ValueError(f"object {oid}: {name} must be positive, got {value}")
                if value > MAX_BYTES:
                    raise ValueError(f"object {oid}: {name} must be at most {MAX_BYTES}")
        object.__setattr__(self, "entries", MappingProxyType(table))

    def __reduce__(self):   # a mappingproxy does not pickle; its dict does
        return type(self), (dict(self.entries),)

    @classmethod
    def from_sizes(cls, sizes: dict[ObjectId, int],
                   load_costs: dict[ObjectId, int] | None = None) -> "ObjectCatalog":
        return cls({oid: ObjectInfo(size, (load_costs or {}).get(oid, size))
                    for oid, size in sizes.items()})

    def ids(self) -> list[ObjectId]:
        return sorted(self.entries)

    @property
    def total_size(self) -> int:
        return sum(e.size for e in self.entries.values())


@_value
class Update:
    uid: int
    time: int
    object: ObjectId
    ship_cost: int
    seq: int = 0

    def __post_init__(self):
        cost = self.ship_cost
        if not (type(self.uid) is type(self.time) is type(self.object) is type(cost)
                is type(self.seq) is int):
            raise ValueError("update record has a non-integer field")
        if cost < 0:
            raise ValueError(f"update {self.uid} has negative cost {cost}")
        if cost > MAX_BYTES:
            raise ValueError(f"update {self.uid} has cost above {MAX_BYTES}")


@_value
class Query:
    qid: int
    time: int
    objects: frozenset[ObjectId]
    ship_cost: int
    tolerance: int = 0
    seq: int = 0

    def __post_init__(self):
        qid, objects, cost = self.qid, self.objects, self.ship_cost
        if type(objects) is not frozenset:
            raise ValueError(f"query {qid}: objects must be a frozenset, "
                             f"not {type(objects).__name__}")
        if not (type(qid) is type(self.time) is type(cost) is type(self.tolerance)
                is type(self.seq) is int and _INT.issuperset(map(type, objects))):
            raise ValueError("query record has a non-integer field")
        if not objects:
            raise ValueError(f"query {qid} accesses no objects")
        if cost < 0:
            raise ValueError(f"query {qid} has negative cost {cost}")
        if cost > MAX_BYTES:
            raise ValueError(f"query {qid} has cost above {MAX_BYTES}")
        if self.tolerance < 0:
            raise ValueError(f"query {qid} has negative tolerance")


Event = Query | Update


class EventContract:
    """The rules that span a trace's events, checked one event at a time by
    `Trace.of` and the trace reader: `seq` above the previous event's (the
    first above 0), every named object in the catalog, query ids unique and
    update ids unique (a query and an update may share one), and time never
    below the previous event's."""

    __slots__ = ("known", "queries", "updates", "seq", "time")

    def __init__(self, catalog: ObjectCatalog):
        self.known = catalog.entries.keys()
        self.queries, self.updates = set(), set()
        self.seq, self.time = 0, float("-inf")

    def check(self, ev: Event) -> tuple[str, ...]:
        """Every message `ev` earns, worded as `validate` reports it, in rule
        order: seq, each unknown object (sorted), duplicate id, time. The
        event joins the state whether or not it passes."""
        last_seq, last_time = self.seq, self.time
        self.seq, self.time = ev.seq, ev.time
        if type(ev) is Query:
            eid, seen, known = ev.qid, self.queries, self.known >= ev.objects
        else:
            eid, seen, known = ev.uid, self.updates, ev.object in self.known
        if known and eid not in seen and last_seq < ev.seq and last_time <= ev.time:
            seen.add(eid)
            return ()
        kind, oids = ("query", ev.objects) if type(ev) is Query else ("update", (ev.object,))
        messages = []
        if ev.seq <= last_seq:
            messages.append(f"seq {ev.seq} is not above the previous seq {last_seq}")
        for oid in sorted(oids):   # before 3.12 a comprehension makes eid a cell: every call slows
            if oid not in self.known:
                messages.append(f"{kind} {eid} references unknown object {oid}")
        if eid in seen:
            messages.append(f"duplicate {kind} id {eid}")
        seen.add(eid)
        if ev.time < last_time:
            messages.append(f"events out of order: time {ev.time} after {last_time}")
        return tuple(messages)


@_value
class Trace(Sequence):
    """An immutable sequence of events that passed the whole event contract
    (`EventContract`) against a catalog. It keeps the ids of the catalog it
    was checked against, so it stays valid under any catalog that holds them
    all (see `as_trace`). `Trace.of` is the public door and checks everything.
    The trace reader, the generator and `regrain` enforce every rule as they
    build events, so they return a Trace through the trusted `_trusted`
    constructor instead. Slicing gives a plain tuple, which is checked again
    like any other sequence of events."""

    events: tuple[Event, ...]
    object_ids: frozenset[ObjectId]

    def __init__(self, *args, **kwargs):
        raise TypeError("build a Trace with Trace.of(catalog, events)")

    @classmethod
    def _trusted(cls, catalog: ObjectCatalog, events: Iterable[Event]) -> Trace:
        trace = object.__new__(cls)
        object.__setattr__(trace, "events", tuple(events))
        object.__setattr__(trace, "object_ids", frozenset(catalog.entries))
        return trace

    @classmethod
    def of(cls, catalog: ObjectCatalog, events: Iterable[Event]) -> Trace:
        """`events` as a Trace checked against `catalog`. Raises TypeError for
        the first item that is not a `Query` or an `Update`, and ValueError for
        the first event that breaks the contract: `event N: ` (its 1-based
        position) and the first message `EventContract` gives it."""
        events = tuple(events)
        check = EventContract(catalog).check
        for i, ev in enumerate(events, start=1):
            if type(ev) is not Query and type(ev) is not Update:
                raise TypeError(f"event {i}: {ev!r} is not a Query or an Update")
            if messages := check(ev):
                raise ValueError(f"event {i}: {messages[0]}")
        return cls._trusted(catalog, events)

    def __len__(self) -> int:
        return len(self.events)

    def __getitem__(self, index):
        return self.events[index]

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __repr__(self) -> str:
        return f"<Trace of {len(self.events)} events over {len(self.object_ids)} object ids>"


def as_trace(catalog: ObjectCatalog, events: Iterable[Event]) -> Trace:
    """`events` as a Trace valid under `catalog`. A Trace checked against ids
    that `catalog` all holds is trusted as it is, at O(catalog) cost; anything
    else goes through `Trace.of`."""
    if type(events) is Trace and catalog.entries.keys() >= events.object_ids:
        return events
    return Trace.of(catalog, events)


def shuffle(items: list, rng: random.Random) -> None:
    """`rng.shuffle(items)` by its formula on CPython 3.10-3.13, without its
    two calls per item: the same permutation, and the same stream state after."""
    getrandbits = rng.getrandbits
    for i in range(len(items) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        items[i], items[j] = items[j], items[i]


# Decisions emitted by policies. Applying them in order to a CacheState must
# never violate capacity or freshness invariants.

@_value
class ShipQuery:
    qid: int


@_value
class ShipUpdates:
    uids: tuple[int, ...]


@_value
class AnswerFromCache:
    qid: int


@_value
class Load:
    oid: ObjectId


@_value
class Evict:
    oid: ObjectId


Decision = ShipQuery | ShipUpdates | AnswerFromCache | Load | Evict


class CacheState:
    """Resident set plus per-object queues of updates received at the server
    but not yet shipped. An object is fresh iff its outstanding queue is empty;
    non-resident objects carry no queue at all.

    Decision-application contract, which policies and the load manager rely
    on: a policy's returned decisions are applied before its next call, as
    `run()` does, and residency changes otherwise only through `apply` and
    `seed_resident`. A policy reads the catalog only as `cache.catalog`.

    `moves` counts residency changes: one per successful Load or Evict in
    `apply` and one per object `seed_resident` adds; a refused decision
    changes nothing. The load manager compares it to skip re-checking a
    resident set it already knows."""

    def __init__(self, capacity: int, catalog: ObjectCatalog):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self.catalog = catalog
        self.resident: set[ObjectId] = set()
        self.outstanding: dict[ObjectId, list[Update]] = {}
        self._by_uid: dict[int, Update] = {}
        self._used = 0   # bytes resident; kept by seed_resident and apply
        self.moves = 0   # residency changes; kept by seed_resident and apply

    @property
    def used(self) -> int:
        return self._used

    def seed_resident(self, oids) -> None:
        """Mark objects resident without charging traffic (run bootstrap only:
        replica-style policies and replay of recorded initial residency).
        Ids already resident are skipped. All or nothing: on error the cache
        is unchanged."""
        new = set(oids) - self.resident
        added = sum(self.catalog.entries[oid].size for oid in new)   # raises UnknownObject
        if self._used + added > self.capacity:
            raise CapacityExceeded("seeded residency exceeds capacity")
        self.resident |= new
        self._used += added
        self.moves += len(new)

    def receive_update(self, u: Update) -> None:
        """Server-side arrival of an update. Invalidate the cached copy when
        the target is resident; otherwise nothing reaches the cache (an
        object outside the catalog is never resident)."""
        oid = u.object
        if oid in self.resident:
            self.outstanding.setdefault(oid, []).append(u)
            self._by_uid[u.uid] = u


def interacting_updates(q: Query, cache: CacheState, now: int) -> list[Update]:
    """Outstanding updates the query must see: every queued update on an object
    it accesses, except those younger than its staleness tolerance.

    All accessed objects must be resident; the boundary is inclusive
    (u.time <= now - tolerance interacts; on `now`, see the package docstring).
    Returned in (object id, arrival) order, which is deterministic."""
    if not q.objects <= cache.resident:
        raise NonResident(f"query {q.qid}: object {min(q.objects - cache.resident)} "
                          "is not resident")
    if cache.outstanding.keys().isdisjoint(q.objects):
        return []
    cutoff = now - q.tolerance
    return [u for oid in sorted(q.objects) for u in cache.outstanding.get(oid, ())
            if u.time <= cutoff]


def apply(cache: CacheState, d: Decision) -> int:
    """Apply one decision to the cache state in place and return the bytes
    it moves: a Load's load cost (not its size), the summed ship costs of the
    updates a ShipUpdates drains, and 0 for anything else.

    Load admits a whole object with no queue, so it is fresh (updates arriving
    during an instantaneous load are folded into the loaded copy). ShipUpdates
    drains queued updates and drops a queue once it empties. Evict drops
    residency and queue. Load and Evict keep `used` and add 1 to `moves`."""
    kind = type(d)
    moved = 0
    if kind is Load or kind is Evict:
        oid = d.oid
        if kind is Load and oid in cache.resident:
            raise CacheError(f"object {oid} is already resident")
        if kind is Evict and oid not in cache.resident:
            raise NonResident(f"cannot evict non-resident object {oid}")
        info = cache.catalog.entries[oid]
        if kind is Load:
            size, free = info.size, cache.capacity - cache._used
            if size > free:
                raise CapacityExceeded(f"loading object {oid} ({size} B) "
                                       f"exceeds free space ({free} B)")
            cache.resident.add(oid)
            cache._used += size
            moved = info.load_cost
        else:
            cache.resident.remove(oid)
            cache._used -= info.size
        cache.moves += 1
        for u in cache.outstanding.pop(oid, ()):
            cache._by_uid.pop(u.uid, None)
    elif kind is ShipUpdates:
        for uid in d.uids:
            u = cache._by_uid.pop(uid, None)
            if u is None:
                raise NotOutstanding(f"update {uid} is not outstanding")
            queue = cache.outstanding.get(u.object) or []
            queue.remove(u)
            if not queue:
                cache.outstanding.pop(u.object, None)
            moved += u.ship_cost
    elif kind is not ShipQuery and kind is not AnswerFromCache:
        raise TypeError(f"unknown decision {d!r}")
    return moved


@dataclass
class TrafficLedger:
    """Cumulative network bytes by mechanism."""

    query_ship: int = 0
    update_ship: int = 0
    load: int = 0

    @property
    def total(self) -> int:
        return self.query_ship + self.update_ship + self.load

    def snapshot(self) -> tuple[int, int, int]:
        return (self.query_ship, self.update_ship, self.load)


class CostContext:
    """Unused in the package; kept for the layer table (package docstring)."""

    def see(self, ev: Event) -> None:
        pass


def record(ledger: TrafficLedger, d: Decision, moved: int, seq: int = 0) -> None:
    """Add `moved` bytes to the decision's bucket; `seq` is unused (package
    docstring). AnswerFromCache and Evict have no bucket: the cache sits next
    to the clients, so cache-answered results are free."""
    kind = type(d)
    if kind is ShipQuery:
        ledger.query_ship += moved
    elif kind is ShipUpdates:
        ledger.update_ship += moved
    elif kind is Load:
        ledger.load += moved


def check_freshness(cache: CacheState) -> None:
    """Every outstanding queue belongs to a resident object and holds at
    least one update. Freshness is queue absence by construction, so this
    invariant is all that can break; it costs O(objects with queued updates)."""
    outstanding = cache.outstanding
    if cache.resident.issuperset(outstanding) and all(outstanding.values()):
        return
    for oid, queue in outstanding.items():
        if oid not in cache.resident:
            raise CacheError(f"non-resident object {oid} has an outstanding queue")
        if not queue:
            raise CacheError(f"object {oid} has an empty outstanding queue")


def check_capacity(cache: CacheState) -> None:
    used = cache._used
    if used > cache.capacity:
        raise CapacityExceeded(f"residency {used} exceeds capacity {cache.capacity}")
