"""Domain types shared by every policy: catalog, events, cache state, decisions,
and the traffic ledger.

All byte quantities are 64-bit ints (1 GB == 10**9 bytes in traces) and all
timestamps are integer microseconds; ties in the trace are broken by sequence
number. Keeping everything integral makes ledgers exact and runs replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field


ObjectId = int


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


@dataclass(frozen=True)
class ObjectInfo:
    size: int
    load_cost: int


@dataclass
class ObjectCatalog:
    """The server's object set with per-object sizes and load costs.

    Load cost defaults to the object's size (cost of moving the whole object
    over the network); catalogs may override it per object.
    """

    entries: dict[ObjectId, ObjectInfo] = field(default_factory=dict)

    @classmethod
    def from_sizes(cls, sizes: dict[ObjectId, int],
                   load_costs: dict[ObjectId, int] | None = None) -> "ObjectCatalog":
        entries = {}
        for oid, size in sizes.items():
            if size <= 0:
                raise ValueError(f"object {oid}: size must be positive, got {size}")
            lc = (load_costs or {}).get(oid, size)
            if lc <= 0:
                raise ValueError(f"object {oid}: load cost must be positive, got {lc}")
            entries[oid] = ObjectInfo(size=size, load_cost=lc)
        return cls(entries)

    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def ids(self) -> list[ObjectId]:
        return sorted(self.entries)

    def size(self, oid: ObjectId) -> int:
        try:
            return self.entries[oid].size
        except KeyError:
            raise UnknownObject(f"object {oid} not in catalog") from None

    def load_cost(self, oid: ObjectId) -> int:
        try:
            return self.entries[oid].load_cost
        except KeyError:
            raise UnknownObject(f"object {oid} not in catalog") from None

    @property
    def total_size(self) -> int:
        return sum(e.size for e in self.entries.values())


@dataclass(frozen=True)
class Update:
    uid: int
    time: int
    object: ObjectId
    ship_cost: int
    seq: int = 0


@dataclass(frozen=True)
class Query:
    qid: int
    time: int
    objects: frozenset[ObjectId]
    ship_cost: int
    tolerance: int = 0
    seq: int = 0


Event = Query | Update


# Decisions emitted by policies. Applying them in order to a CacheState must
# never violate capacity or freshness invariants.

@dataclass(frozen=True)
class ShipQuery:
    qid: int


@dataclass(frozen=True)
class ShipUpdates:
    uids: tuple[int, ...]


@dataclass(frozen=True)
class AnswerFromCache:
    qid: int


@dataclass(frozen=True)
class Load:
    oid: ObjectId


@dataclass(frozen=True)
class Evict:
    oid: ObjectId


Decision = ShipQuery | ShipUpdates | AnswerFromCache | Load | Evict


class CacheState:
    """Resident set plus per-object queues of updates received at the server
    but not yet shipped. An object is fresh iff its outstanding queue is empty;
    non-resident objects carry no queue at all.
    """

    def __init__(self, capacity: int, catalog: ObjectCatalog):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self.catalog = catalog
        self.resident: set[ObjectId] = set()
        self.outstanding: dict[ObjectId, list[Update]] = {}
        self._by_uid: dict[int, Update] = {}
        self._used = 0   # bytes resident; kept by seed_resident and apply

    @property
    def used(self) -> int:
        return self._used

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def is_resident(self, oid: ObjectId) -> bool:
        return oid in self.resident

    def is_fresh(self, oid: ObjectId) -> bool:
        if oid not in self.resident:
            raise NonResident(f"object {oid} is not resident")
        return oid not in self.outstanding

    def seed_resident(self, oids) -> None:
        """Mark objects resident without charging traffic (run bootstrap only:
        replica-style policies and replay of recorded initial residency).
        Ids already resident are skipped."""
        for oid in oids:
            if oid not in self.catalog:
                raise UnknownObject(f"object {oid} not in catalog")
            if oid not in self.resident:
                self.resident.add(oid)
                self._used += self.catalog.size(oid)
        if self.used > self.capacity:
            raise CapacityExceeded("seeded residency exceeds capacity")

    def receive_update(self, u: Update) -> None:
        """Server-side arrival of an update. Invalidate the cached copy when
        the target is resident; otherwise nothing reaches the cache."""
        if u.object not in self.catalog:
            raise UnknownObject(f"update {u.uid} targets unknown object {u.object}")
        if u.object in self.resident:
            self.outstanding.setdefault(u.object, []).append(u)
            self._by_uid[u.uid] = u

    def outstanding_for(self, oid: ObjectId) -> list[Update]:
        return list(self.outstanding.get(oid, ()))

    def lookup_outstanding(self, uid: int) -> Update:
        try:
            return self._by_uid[uid]
        except KeyError:
            raise NotOutstanding(f"update {uid} is not outstanding") from None


def interacting_updates(q: Query, cache: CacheState, now: int) -> list[Update]:
    """Outstanding updates the query must see: every queued update on an object
    it accesses, except those younger than its staleness tolerance.

    All accessed objects must be resident; the boundary is inclusive
    (u.time <= now - tolerance interacts). Returned in (object id, arrival)
    order, which is deterministic.
    """
    cutoff = now - q.tolerance
    out: list[Update] = []
    for oid in sorted(q.objects):
        if oid not in cache.resident:
            raise NonResident(f"query {q.qid}: object {oid} is not resident")
        for u in cache.outstanding.get(oid, ()):
            if u.time <= cutoff:
                out.append(u)
    return out


def apply(cache: CacheState, d: Decision) -> None:
    """Apply one decision to the cache state in place.

    Load admits a whole object with no queue, so it is fresh (updates arriving
    during an instantaneous load are folded into the loaded copy). ShipUpdates
    drains queued updates and drops a queue once it empties. Evict drops
    residency together with the object's queue. Load and Evict keep the
    running `used` counter.
    """
    if isinstance(d, (ShipQuery, AnswerFromCache)):
        return
    if isinstance(d, Load):
        if d.oid not in cache.catalog:
            raise UnknownObject(f"cannot load unknown object {d.oid}")
        if d.oid in cache.resident:
            raise CacheError(f"object {d.oid} is already resident")
        size = cache.catalog.size(d.oid)
        if size > cache.free:
            raise CapacityExceeded(
                f"loading object {d.oid} ({size} B) "
                f"exceeds free space ({cache.free} B)")
        cache.resident.add(d.oid)
        cache._used += size
        for u in cache.outstanding.pop(d.oid, ()):
            cache._by_uid.pop(u.uid, None)
        return
    if isinstance(d, Evict):
        if d.oid not in cache.resident:
            raise NonResident(f"cannot evict non-resident object {d.oid}")
        cache.resident.discard(d.oid)
        cache._used -= cache.catalog.size(d.oid)
        for u in cache.outstanding.pop(d.oid, ()):
            cache._by_uid.pop(u.uid, None)
        return
    if isinstance(d, ShipUpdates):
        for uid in d.uids:
            u = cache.lookup_outstanding(uid)
            queue = cache.outstanding.get(u.object, [])
            queue.remove(u)
            del cache._by_uid[uid]
            if not queue:
                cache.outstanding.pop(u.object, None)
        return
    raise TypeError(f"unknown decision {d!r}")


@dataclass
class TrafficLedger:
    """Cumulative network bytes by mechanism, with samples taken along the
    event sequence. The cumulative total is exact at every sample."""

    query_ship: int = 0
    update_ship: int = 0
    load: int = 0
    samples: list[tuple[int, int]] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.query_ship + self.update_ship + self.load

    def snapshot(self) -> tuple[int, int, int]:
        return (self.query_ship, self.update_ship, self.load)


@dataclass
class CostContext:
    """Cost lookup for recording decisions: load costs come from the catalog,
    query/update shipping costs are registered as events stream by."""

    catalog: ObjectCatalog
    query_cost: dict[int, int] = field(default_factory=dict)
    update_cost: dict[int, int] = field(default_factory=dict)

    def see(self, ev: Event) -> None:
        if isinstance(ev, Query):
            self.query_cost[ev.qid] = ev.ship_cost
        else:
            self.update_cost[ev.uid] = ev.ship_cost


def record(ledger: TrafficLedger, d: Decision, costs: CostContext, seq: int = 0) -> None:
    """Charge one decision to the ledger and append a sample.

    ShipQuery, ShipUpdates and Load each add to exactly one bucket;
    AnswerFromCache and Evict move no bytes (the cache sits next to the
    clients, so cache-answered results are free).
    """
    if isinstance(d, ShipQuery):
        ledger.query_ship += costs.query_cost[d.qid]
    elif isinstance(d, ShipUpdates):
        ledger.update_ship += sum(costs.update_cost[uid] for uid in d.uids)
    elif isinstance(d, Load):
        ledger.load += costs.catalog.load_cost(d.oid)
    ledger.samples.append((seq, ledger.total))


def check_freshness(cache: CacheState) -> None:
    """Every outstanding queue belongs to a resident object and holds at
    least one update. Freshness is queue absence by construction, so this
    invariant is all that can break; it costs O(objects with queued updates)."""
    for oid, queue in cache.outstanding.items():
        if oid not in cache.resident:
            raise CacheError(f"non-resident object {oid} has an outstanding queue")
        if not queue:
            raise CacheError(f"object {oid} has an empty outstanding queue")


def check_capacity(cache: CacheState) -> None:
    if cache.used > cache.capacity:
        raise CapacityExceeded(f"residency {cache.used} exceeds capacity {cache.capacity}")
