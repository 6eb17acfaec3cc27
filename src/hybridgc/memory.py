"""Shared last-level cache, traffic accounting, simulated time, lifetime.

``MemorySystem`` owns the cache walk: every access and the final drain
run in its methods, and it carries the simulated clock. ``CacheModel``
is only the cache's geometry and state (its sets).

Device-level write counters only grow when a line actually reaches
memory: on a dirty eviction or the drain, or immediately when the cache
is disabled. Reads reach memory as line fills. Every count is kept per
``(instance, memory kind, space)`` key, so multiprogram runs stay
attributable. Each key is interned once as an id, an index into the
count lists of ``TrafficCounters``, and a dirty line holds the id it
will be written back under, so neither an eviction nor the drain
decodes a line to count it. Readers sum a count list with
``TrafficCounters.total``; there is no per-key dict of the counts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, zip_longest

from .address_space import MemoryKind
from .errors import ConfigError, InvariantError

SECONDS_PER_YEAR = 365.25 * 86400  # 31,557,600

# Finite stand-in for "no wear-out in any meaningful horizon".
UNBOUNDED_YEARS = 1.0e9

_PCM = MemoryKind.PCM
_DRAM = MemoryKind.DRAM
_ABSENT = object()  # sentinel for a set lookup that misses

# A cached line's key is ``(line index << INST_BITS) | instance``. Configs
# and heaps reject instance ids of MAX_INSTANCES and up, so keys never
# collide.
INST_BITS = 16
MAX_INSTANCES = 1 << INST_BITS

# Fewest lines of a run that ``MemorySystem.access`` walks as a list of its
# sets zipped with a range of its line keys; see its docstring.
LONG_RUN = 16

# The per-key count lists of ``TrafficCounters``.
_COUNTS = ("written", "read", "demand", "absorbed")


class TrafficCounters:
    """Byte counters for traffic that reached memory, plus filter internals.

    The counts are lists indexed by a key id, with
    ``keys[id] == (instance, MemoryKind, space)``: ``written`` and
    ``read`` are the bytes written back to and filled from memory,
    ``demand`` the bytes written to the cache and ``absorbed`` the bytes
    that landed on a line already dirty. ``MemorySystem.access`` interns
    each new key and appends a 0 to every list. :meth:`total` is the one
    query over the counts.
    """

    def __init__(self) -> None:
        self.keys: list[tuple[int, MemoryKind, str]] = []
        self.written: list[int] = []
        self.read: list[int] = []
        self.demand: list[int] = []
        self.absorbed: list[int] = []
        self.fills = 0
        self.writebacks = 0

    def total(self, counts: list[int], kind: MemoryKind | None = None, inst: int | None = None) -> int:
        """Sum of ``counts``, one of the count lists, over the keys of ``kind`` and ``inst``; None matches any."""
        return sum(
            n
            for (i, k, _s), n in zip(self.keys, counts)
            if (kind is None or k is kind) and (inst is None or i == inst)
        )

    def by_space(self, inst: int, kind: MemoryKind) -> dict[str, int]:
        """Nonzero ``written`` bytes of ``inst`` and ``kind`` by space, in space order."""
        return dict(sorted((s, n) for (i, k, s), n in zip(self.keys, self.written) if n and i == inst and k is kind))

    def snapshot(self) -> "TrafficCounters":
        return self.diff(TrafficCounters())

    def diff(self, base: "TrafficCounters") -> "TrafficCounters":
        """Counters accumulated since ``base`` was snapshotted.

        Keys are only ever appended, so ``base.keys`` is a prefix of
        ``keys`` and a key interned after the snapshot counts from 0.
        """
        out = TrafficCounters()
        out.keys = self.keys[:]
        for name in _COUNTS:
            cur: list[int] = getattr(self, name)
            old: list[int] = getattr(base, name)
            setattr(out, name, [n - o for n, o in zip_longest(cur, old, fillvalue=0)])
        out.fills = self.fills - base.fills
        out.writebacks = self.writebacks - base.writebacks
        return out

    def check_write_conservation(self) -> None:
        """Check that ``demand`` equals ``absorbed`` plus ``written`` per ``(instance, kind)``.

        Not per key: absorbed bytes count under the writer's key and a
        write-back under the line's last writer. Valid only when no dirty
        line is outstanding (post-drain).
        """
        # sorted, so a run that breaks conservation twice always names the same key
        for inst, kind in sorted({(i, k) for i, k, _s in self.keys}, key=lambda ik: (ik[0], ik[1].value)):
            demand = self.total(self.demand, kind, inst)
            absorbed = self.total(self.absorbed, kind, inst)
            written_back = self.total(self.written, kind, inst)
            if demand != absorbed + written_back:
                raise InvariantError(
                    f"write bytes not conserved for {(inst, kind)}: {demand} demanded, "
                    f"{absorbed} absorbed, {written_back} written back",
                    instance=inst,
                )


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
    lines while still competing for the same sets. ``capacity`` 0 means
    no cache: every access passes through byte-for-byte.
    """

    def __init__(self, capacity: int, assoc: int, line_size: int, split: int) -> None:
        self.assoc = assoc
        self.line_size = line_size
        self.split_line = split // line_size
        self.n_sets = cache_set_count(capacity, assoc, line_size)
        # Each set maps a line key ``(line index << INST_BITS) | instance``
        # to None while the line is clean, or while it is dirty to the id
        # of the key it will be written back under: ``(instance, kind of
        # the line, space that last wrote it)``. LRU order is insertion
        # order: a hit re-inserts its key, and the victim is the first key.
        self.sets: list[dict[int, int | None]] = [{} for _ in range(self.n_sets)]


@dataclass
class MemorySystem:
    """One shared cache, counter set and clock, as seen by every instance.

    Time is ``now_ns``, in simulated nanoseconds. Every site that
    advances it adds ``op_cost_ns + n * byte_cost_ns`` for the ``n``
    bytes it moves, written out inline to save a frame; collector copies
    and marks add it only when ``include_collector_time`` is set.

    ``access`` walks the cache in one frame. It looks up the ids of the
    ``(instance, PCM, space)`` and ``(instance, DRAM, space)`` keys in
    ``_ids``, and on their first use interns them inline. One loop walks
    the run of lines below ``split_line`` (PCM) and then the run above it
    (DRAM). It counts absorbed and filled lines in locals while it walks
    a run and adds them, with the run's demand, to the count lists by
    index once. A write stores its key id in every line it dirties, and a
    dirty victim adds a line to ``written`` under the id it holds as it
    is evicted. All counters are integer sums, so the totals equal those
    of per-line accounting.

    A run has two walks, chosen by its length, with the same hits,
    fills, victims and counters. A run of at least ``LONG_RUN`` lines
    zips a list of its sets with a range of its line keys, since
    consecutive lines map to consecutive sets and keys: one slice of
    ``sets``, or, when the run wraps past the last set, a list built in
    C in line order. A shorter run computes each line's set and key. The
    long walk pays for itself on the thousand-line zeroings and copies of
    large objects, but its setup costs more than it saves on runs of a
    few lines, which are most of the runs elsewhere. Neither walk enters
    a frame of its own: no comprehension, generator or helper.

    ``drain`` ends a run: it writes back every dirty line and empties the
    cache.
    """

    cache: CacheModel
    counters: TrafficCounters = field(default_factory=TrafficCounters, init=False)
    op_cost_ns: float = 5.0
    byte_cost_ns: float = 0.25
    include_collector_time: bool = True
    gc_traffic_through_cache: bool = True
    now_ns: float = field(default=0.0, init=False)
    # space -> instance -> (PCM key id, DRAM key id) in ``counters``
    _ids: dict = field(default_factory=dict, init=False, repr=False)

    def access(self, inst: int, addr: int, length: int, write: bool, space: str, *, collector: bool = False) -> None:
        if length <= 0:
            return
        counters = self.counters
        try:
            pcm_id, dram_id = self._ids[space][inst]
        except KeyError:
            keys = counters.keys
            pcm_id = len(keys)
            dram_id = pcm_id + 1
            keys += ((inst, _PCM, space), (inst, _DRAM, space))
            for name in _COUNTS:
                getattr(counters, name).extend((0, 0))
            self._ids.setdefault(space, {})[inst] = (pcm_id, dram_id)
        cache = self.cache
        n_sets = cache.n_sets
        if not n_sets or (collector and not self.gc_traffic_through_cache):
            self._passthrough(pcm_id, dram_id, addr, length, write)
            return
        written = counters.written
        line_size = cache.line_size
        lo = addr // line_size
        end = (addr + length - 1) // line_size + 1
        split_line = cache.split_line
        sets = cache.sets
        assoc = cache.assoc
        shift = INST_BITS
        wbs = 0
        # the PCM run of the line range, then the DRAM run
        while lo < end:
            if lo < split_line:
                hi = end if end <= split_line else split_line
                kid = pcm_id
            else:
                hi = end
                kid = dram_id
            tag = kid if write else None
            absorbed = 0
            fills = 0
            if hi - lo < LONG_RUN:
                for ln in range(lo, hi):
                    cset = sets[ln % n_sets]
                    key = ln << shift | inst
                    old = cset.pop(key, _ABSENT)
                    if old is not _ABSENT:
                        if write:
                            if old is not None:
                                absorbed += 1
                            cset[key] = tag
                        else:
                            cset[key] = old
                        continue
                    # miss: allocate on both reads and writes
                    fills += 1
                    if len(cset) >= assoc:
                        vtag = cset.pop(next(iter(cset)))
                        if vtag is not None:
                            written[vtag] += line_size
                            wbs += 1
                    cset[key] = tag
            else:
                # consecutive lines map to consecutive sets and keys
                start = lo % n_sets
                if start + hi - lo <= n_sets:
                    csets = sets[start : start + hi - lo]
                else:
                    # wraps: a set that recurs is updated in line order
                    csets = [*map(sets.__getitem__, map(n_sets.__rmod__, range(lo, hi)))]
                for cset, key in zip(csets, range(lo << shift | inst, hi << shift | inst, 1 << shift)):
                    old = cset.pop(key, _ABSENT)
                    if old is not _ABSENT:
                        if write:
                            if old is not None:
                                absorbed += 1
                            cset[key] = tag
                        else:
                            cset[key] = old
                        continue
                    fills += 1
                    if len(cset) >= assoc:
                        vtag = cset.pop(next(iter(cset)))
                        if vtag is not None:
                            written[vtag] += line_size
                            wbs += 1
                    cset[key] = tag
            if write:
                counters.demand[kid] += (hi - lo) * line_size
                if absorbed:
                    counters.absorbed[kid] += absorbed * line_size
            if fills:
                counters.fills += fills
                counters.read[kid] += fills * line_size
            lo = hi
        if wbs:
            counters.writebacks += wbs

    def _passthrough(self, pcm_id: int, dram_id: int, addr: int, length: int, write: bool) -> None:
        """Forward an access byte-for-byte: no cache, or collector traffic that bypasses it."""
        # The PCM/DRAM boundary is the one the cached path uses: the first
        # byte of line ``split_line``.
        counters = self.counters
        boundary = self.cache.split_line * self.cache.line_size
        pcm = min(max(boundary - addr, 0), length)
        for kid, n in ((pcm_id, pcm), (dram_id, length - pcm)):
            if not n:
                continue
            if write:
                counters.demand[kid] += n
                counters.written[kid] += n
            else:
                counters.read[kid] += n

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


def lifetime_years(write_rate_bytes_per_s: float, model: LifetimeModel = LifetimeModel()) -> float:
    """Device lifetime until endurance exhaustion at a sustained write rate.

    A zero rate means the device never wears out; that is reported as the
    ``UNBOUNDED_YEARS`` cap so reports stay finite.
    """
    if not 0 <= write_rate_bytes_per_s < math.inf:
        raise ConfigError("write rate must be finite and non-negative")
    if write_rate_bytes_per_s == 0:
        return UNBOUNDED_YEARS
    total = model.capacity_bytes * model.endurance_writes * model.wear_efficiency
    years = total / (write_rate_bytes_per_s * SECONDS_PER_YEAR)
    return min(years, UNBOUNDED_YEARS)

