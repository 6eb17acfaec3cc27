"""Shared last-level cache, traffic accounting, simulated time, lifetime.

``MemorySystem`` owns the cache walk: every access and the final drain
run in its methods, and it carries the simulated clock. ``CacheModel``
is only the cache's geometry and state (its sets). As in any
set-associative cache, a set tells its lines apart by their tag, the
line index over the set count, so every line of a run that stays within
the sets is looked up under one key.

A line's key within its set is ``tag * instances + instance``, one int
per (tag, instance) pair for instance ids in ``[0, instances)``; a heap
rejects any other id. Each key is interned in the cache's ``keys`` table,
so every resident key of a pair is one object and a hit finds its line by
identity rather than by comparing two equal ints. The table holds at most
instances x distinct tags touched: tens to hundreds of entries at the
benchmark geometries, and one per line touched only when there is one set.

Device-level write counters only grow when a line actually reaches
memory: on a dirty eviction or the drain, or immediately when the cache
is disabled. Reads reach memory as line fills. Every count is kept per
key id, an index into the count lists of ``TrafficCounters``. A heap
adds one key per space when it is built and sends each access under its
space's id; only the heap knows which instance, space and memory kind an
id stands for, so nothing here tells PCM from DRAM. A dirty line holds
the id it will be written back under, so neither an eviction nor the
drain decodes a line to count it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, zip_longest

from .errors import ConfigError

SECONDS_PER_YEAR = 365.25 * 86400  # 31,557,600

# Finite stand-in for "no wear-out in any meaningful horizon".
UNBOUNDED_YEARS = 1.0e9

_ABSENT = object()  # sentinel for a set lookup that misses

# The per-key count lists of ``TrafficCounters``.
_COUNTS = ("written", "read", "demand", "absorbed")


class TrafficCounters:
    """Byte counters for traffic that reached memory, plus filter internals.

    The counts are lists indexed by a key id: ``written`` and ``read``
    are the bytes written back to and filled from memory, ``demand`` the
    bytes written to the cache and ``absorbed`` the bytes that landed on
    a line already dirty. :meth:`add_key` adds a 0 to every list and
    returns the new id. An id means nothing here; the heap that added it
    knows its instance, space and memory kind.
    """

    def __init__(self) -> None:
        self.written: list[int] = []
        self.read: list[int] = []
        self.demand: list[int] = []
        self.absorbed: list[int] = []
        self.fills = 0
        self.writebacks = 0

    def add_key(self) -> int:
        """Add a key with zero counts; returns its id."""
        for name in _COUNTS:
            getattr(self, name).append(0)
        return len(self.written) - 1

    def snapshot(self) -> "TrafficCounters":
        return self.diff(TrafficCounters())

    def diff(self, base: "TrafficCounters") -> "TrafficCounters":
        """Counters accumulated since ``base`` was snapshotted.

        Keys are only ever added, so a key added after the snapshot
        counts from 0.
        """
        out = TrafficCounters()
        for name in _COUNTS:
            cur: list[int] = getattr(self, name)
            old: list[int] = getattr(base, name)
            setattr(out, name, [n - o for n, o in zip_longest(cur, old, fillvalue=0)])
        out.fills = self.fills - base.fills
        out.writebacks = self.writebacks - base.writebacks
        return out


def cache_set_count(capacity: int, assoc: int, line_size: int) -> int:
    """Sets of a cache of this geometry; 0 for ``capacity`` 0, no cache."""
    if capacity < 0 or line_size <= 0 or assoc <= 0:
        raise ConfigError("cache capacity must be non-negative, associativity and line size positive")
    if capacity % (assoc * line_size) != 0:
        raise ConfigError(
            f"capacity {capacity} is not a whole number of {assoc}-way sets of {line_size}B lines"
        )
    return capacity // (assoc * line_size)


class CacheModel:
    """Geometry and state of a set-associative write-back write-allocate LRU cache.

    The cache walk itself is :meth:`MemorySystem.access`, which reads and
    updates this state. Lines are tagged with the owning instance, so
    identical virtual addresses from different instances occupy distinct
    lines while still competing for the same sets. ``instances`` is the
    number of instances that share the cache, ids ``0`` to ``instances - 1``.
    ``capacity`` 0 means no cache: every access passes through
    byte-for-byte.
    """

    def __init__(self, capacity: int, assoc: int, line_size: int, instances: int = 1) -> None:
        if instances < 1:
            raise ConfigError("a cache is shared by at least one instance")
        self.assoc = assoc
        self.line_size = line_size
        self.instances = instances
        self.n_sets = cache_set_count(capacity, assoc, line_size)
        # Set ``ln % n_sets`` maps the key of line ``ln``, ``ln // n_sets *
        # instances + instance``, to None while the line is clean, or while
        # it is dirty to the id of the key it will be written back under:
        # that of the space that last wrote it. LRU order is insertion
        # order: a hit re-inserts its key, and the victim is the first key.
        self.sets: list[dict[int, int | None]] = [{} for _ in range(self.n_sets)]
        # Each key once, mapped to itself: the walk stores and looks up
        # only these objects, so a hit compares by identity. At most
        # ``instances`` entries per distinct tag touched; the drain clears it.
        self.keys: dict[int, int] = {}


@dataclass
class MemorySystem:
    """One shared cache, counter set and clock, as seen by every instance.

    Time is ``now_ns``, in simulated nanoseconds. Every site that
    advances it adds ``op_cost_ns + n * byte_cost_ns`` for the ``n``
    bytes it moves, written out inline to save a frame; collector copies
    and marks add it only when ``include_collector_time`` is set.

    ``access`` walks the cache in one frame. Its caller names the key the
    access counts under by its id, ``kid``: a heap sends the id of the
    space the bytes sit in, and an access is one run of lines under one
    key. Without a cache, or for collector traffic that bypasses it, the
    bytes reach memory as they are. Otherwise the walk counts absorbed and
    filled lines in locals and adds them, with the run's demand, to the
    count lists by index once. A write stores ``kid`` in every line it
    dirties, and a dirty victim adds a line to ``written`` under the id it
    holds as it is evicted. All counters are integer sums, so the totals
    equal those of per-line accounting.

    Consecutive lines map to consecutive sets, and the lines of a run up
    to the last set share one tag, so the walk computes the first line's
    set and key once and walks a slice of ``sets`` under that key, from
    that set to the end of the run or to the last set, where the slice
    clips. At each wrap past the last set the key steps to the next tag
    and the walk goes on from set 0, so a set that recurs in a run longer
    than the sets is updated in line order. The key is interned through
    the cache's ``keys`` table once, and again at each wrap, by
    ``dict.setdefault``, which runs in C. The walk enters no frame of its
    own: no comprehension, generator or helper.

    ``drain`` ends a run: it writes back every dirty line and empties the
    cache and its key table.
    """

    cache: CacheModel
    counters: TrafficCounters = field(default_factory=TrafficCounters, init=False)
    op_cost_ns: float = 5.0
    byte_cost_ns: float = 0.25
    include_collector_time: bool = True
    gc_traffic_through_cache: bool = True
    now_ns: float = field(default=0.0, init=False)

    def access(self, inst: int, addr: int, length: int, write: bool, kid: int, *, collector: bool = False) -> None:
        if length <= 0:
            return
        counters = self.counters
        cache = self.cache
        n_sets = cache.n_sets
        if not n_sets or (collector and not self.gc_traffic_through_cache):
            # no cache, or collector traffic that bypasses it: byte for byte
            if write:
                counters.demand[kid] += length
                counters.written[kid] += length
            else:
                counters.read[kid] += length
            return
        written = counters.written
        line_size = cache.line_size
        lo = addr // line_size
        hi = (addr + length - 1) // line_size + 1
        sets = cache.sets
        assoc = cache.assoc
        keys = cache.keys
        instances = cache.instances
        held = kid if write else None
        absorbed = 0
        fills = 0
        wbs = 0
        # the lines of a run up to the last set share one tag, so one key
        s = lo % n_sets
        end = s + hi - lo
        key = lo // n_sets * instances + inst
        key = keys.setdefault(key, key)
        while True:
            for cset in sets[s:end]:
                old = cset.pop(key, _ABSENT)
                if old is not _ABSENT:
                    if write:
                        if old is not None:
                            absorbed += 1
                        cset[key] = held
                    else:
                        cset[key] = old
                    continue
                # miss: allocate on both reads and writes
                fills += 1
                if len(cset) >= assoc:
                    victim = cset.pop(next(iter(cset)))
                    if victim is not None:
                        written[victim] += line_size
                        wbs += 1
                cset[key] = held
            if end <= n_sets:
                break
            # wrapped past the last set: the next tag starts at set 0
            s = 0
            end -= n_sets
            key += instances
            key = keys.setdefault(key, key)
        if write:
            counters.demand[kid] += (hi - lo) * line_size
            if absorbed:
                counters.absorbed[kid] += absorbed * line_size
        if fills:
            counters.fills += fills
            counters.read[kid] += fills * line_size
        if wbs:
            counters.writebacks += wbs

    def drain(self) -> int:
        """Write back every dirty line and empty the cache; returns the lines written back.

        Only the end of a run drains, and no access follows it, so every
        set is emptied (written back and invalidated) rather than kept
        clean; a second drain writes back nothing. The lines are counted
        by the key id each holds, so the flush order does not matter.
        """
        cache = self.cache
        counters = self.counters
        dirty = Counter(chain.from_iterable(map(dict.values, cache.sets)))
        dirty.pop(None, None)
        for kid, n in dirty.items():
            counters.written[kid] += n * cache.line_size
        total = dirty.total()
        counters.writebacks += total
        for cset in cache.sets:
            cset.clear()
        cache.keys.clear()
        return total


@dataclass(frozen=True)
class LifetimeModel:
    """Endurance model of the PCM device (not of the simulated heap)."""

    capacity_bytes: int = 32_000_000_000  # decimal GB, per device spec sheets
    endurance_writes: float = 1.0e7
    wear_efficiency: float = 0.5  # achieved fraction of ideal wear-leveling

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or not 0 < self.endurance_writes < math.inf:
            raise ConfigError("lifetime model needs positive capacity and finite, positive endurance")
        if not 0.0 < self.wear_efficiency <= 1.0:
            raise ConfigError("wear efficiency must be in (0, 1]")
        try:
            writable = self.writable_bytes
        except OverflowError:  # an int capacity too large for a float
            writable = math.inf
        if writable == math.inf:
            raise ConfigError("capacity x endurance x efficiency must be a finite number of bytes")

    @property
    def writable_bytes(self) -> float:
        """Bytes the device takes before it wears out."""
        return self.capacity_bytes * self.endurance_writes * self.wear_efficiency


def lifetime_years(write_rate_bytes_per_s: float, model: LifetimeModel = LifetimeModel()) -> float:
    """Device lifetime until endurance exhaustion at a sustained write rate.

    A zero rate means the device never wears out; that is reported as the
    ``UNBOUNDED_YEARS`` cap so reports stay finite.
    """
    if not 0 <= write_rate_bytes_per_s < math.inf:
        raise ConfigError("write rate must be finite and non-negative")
    if write_rate_bytes_per_s == 0:
        return UNBOUNDED_YEARS
    years = model.writable_bytes / (write_rate_bytes_per_s * SECONDS_PER_YEAR)
    return min(years, UNBOUNDED_YEARS)

