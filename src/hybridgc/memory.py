"""Shared last-level cache, traffic accounting, simulated time, lifetime.

``MemorySystem`` owns the cache walk: every access and the final drain
run in its methods, and it carries the simulated clock. ``CacheModel``
is only the cache's geometry and state (its sets).

Device-level write counters only grow when a line actually reaches
memory: on a dirty eviction or a drain, or immediately when the cache is
disabled. Reads reach memory as line fills. Every counter is keyed by
(instance, memory kind, space) so multiprogram runs stay attributable.
A dirty line holds the key it will be written back under, so neither an
eviction nor the drain decodes a line to count it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

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


def total_bytes(
    counts: dict[tuple[int, MemoryKind, str], int],
    kind: MemoryKind | None = None,
    inst: int | None = None,
) -> int:
    """Sum of ``TrafficCounters.write_bytes`` or ``read_bytes``, optionally for one kind and instance."""
    return sum(
        n
        for (i, k, _s), n in counts.items()
        if (kind is None or k is kind) and (inst is None or i == inst)
    )


class TrafficCounters:
    """Byte counters for traffic that reached memory, plus filter internals.

    ``write_bytes`` and ``read_bytes`` are keyed by
    ``(instance, MemoryKind, space)``. The demand and absorbed counters
    are keyed by ``(instance, MemoryKind)`` and feed the filter
    conservation check: after a drain, demand equals absorbed plus
    ``write_bytes`` summed over space, per key.
    """

    def __init__(self) -> None:
        self.write_bytes: dict[tuple[int, MemoryKind, str], int] = {}
        self.read_bytes: dict[tuple[int, MemoryKind, str], int] = {}
        self.demand_write_bytes: dict[tuple[int, MemoryKind], int] = {}
        self.absorbed_write_bytes: dict[tuple[int, MemoryKind], int] = {}
        self.fills = 0
        self.writebacks = 0

    def by_space(self, inst: int, kind: MemoryKind) -> dict[str, int]:
        return {s: n for (i, k, s), n in sorted(self.write_bytes.items(), key=lambda kv: kv[0][2]) if i == inst and k is kind}

    def snapshot(self) -> "TrafficCounters":
        # every counter only grows by positive amounts, so no entry is 0
        # and the diff against empty counters is a full copy
        return self.diff(TrafficCounters())

    def diff(self, base: "TrafficCounters") -> "TrafficCounters":
        """Counters accumulated since ``base`` was snapshotted."""
        out = TrafficCounters()
        for name in ("write_bytes", "read_bytes", "demand_write_bytes", "absorbed_write_bytes"):
            cur: dict = getattr(self, name)
            old: dict = getattr(base, name)
            target: dict = getattr(out, name)
            for key, n in cur.items():
                d = n - old.get(key, 0)
                if d:
                    target[key] = d
        out.fills = self.fills - base.fills
        out.writebacks = self.writebacks - base.writebacks
        return out

    def check_write_conservation(self) -> None:
        """Valid only when no dirty line is outstanding (post-drain)."""
        written: dict[tuple[int, MemoryKind], int] = {}
        for (inst, kind, _space), n in self.write_bytes.items():
            written[inst, kind] = written.get((inst, kind), 0) + n
        keys = set(self.demand_write_bytes) | set(self.absorbed_write_bytes) | set(written)
        # sorted, so a run that breaks conservation twice always names the same key
        for key in sorted(keys, key=lambda k: (k[0], k[1].value)):
            demand = self.demand_write_bytes.get(key, 0)
            absorbed = self.absorbed_write_bytes.get(key, 0)
            written_back = written.get(key, 0)
            if demand != absorbed + written_back:
                raise InvariantError(
                    f"write bytes not conserved for {key}: {demand} demanded, "
                    f"{absorbed} absorbed, {written_back} written back",
                    instance=key[0],
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
        # to None while the line is clean, or while it is dirty to the
        # ``write_bytes`` key it will be written back under: the interned
        # ``(instance, kind of the line, space that last wrote it)``. LRU
        # order is insertion order: a hit re-inserts its key, and the
        # victim is the first key.
        self.sets: list[dict[int, tuple[int, MemoryKind, str] | None]] = [{} for _ in range(self.n_sets)]


@dataclass
class MemorySystem:
    """One shared cache, counter set and clock, as seen by every instance.

    Time is ``now_ns``, in simulated nanoseconds. Every site that
    advances it adds ``op_cost_ns + n * byte_cost_ns`` for the ``n``
    bytes it moves, written out inline to save a frame; collector copies
    and marks add it only when ``include_collector_time`` is set.

    ``access`` walks the cache in one frame. Traffic is accounted per
    access, not per line: one loop walks the run of lines below
    ``split_line`` (PCM) and then the run above it (DRAM), counts demand,
    absorbed and filled lines and dirty victims in locals while it walks
    a run, and then adds them to the counters once. ``_keys`` interns one
    ``(write_bytes/read_bytes key, demand key)`` pair per
    ``(instance, kind, space)`` on its first use, so a later access
    builds no key tuple. A write stores the interned
    ``(instance, kind, space)`` tuple in every line it dirties, so a dirty
    victim is counted under the key it holds; the victims dict is made
    only at a run's first dirty victim. A drain batches its writebacks
    the same way. All counters are integer sums, so the totals equal
    those of per-line accounting.

    A run has two walks, chosen by its length, with the same hits,
    fills, victims and counters. A run of at least ``LONG_RUN`` lines
    zips a list of its sets with a range of its line keys, since
    consecutive lines map to consecutive sets and keys: one slice of
    ``sets``, or, when the run wraps past the last set, a list built in
    C in line order. Its dirty victims are listed and counted per key at
    the end, in first-seen order. A shorter run computes each line's set
    and key. The long walk pays for itself on the thousand-line zeroings
    and copies of large objects, but its setup costs more than it saves
    on runs of a few lines, which are most of the runs elsewhere. Neither
    walk enters a frame of its own: no comprehension, generator or helper.
    """

    cache: CacheModel
    counters: TrafficCounters
    op_cost_ns: float = 5.0
    byte_cost_ns: float = 0.25
    include_collector_time: bool = True
    gc_traffic_through_cache: bool = True
    now_ns: float = field(default=0.0, init=False)
    # space -> instance -> (PCM pair, DRAM pair), each pair a run's
    # ``(write_bytes/read_bytes key, demand key)``
    _keys: dict = field(default_factory=dict, init=False, repr=False)

    def access(self, inst: int, addr: int, length: int, write: bool, space: str, *, collector: bool = False) -> None:
        if length <= 0:
            return
        cache = self.cache
        n_sets = cache.n_sets
        if not n_sets or (collector and not self.gc_traffic_through_cache):
            self._passthrough(inst, addr, length, write, space)
            return
        try:
            pcm_keys, dram_keys = self._keys[space][inst]
        except KeyError:
            pcm_keys, dram_keys = self._keys.setdefault(space, {})[inst] = (
                ((inst, _PCM, space), (inst, _PCM)),
                ((inst, _DRAM, space), (inst, _DRAM)),
            )
        counters = self.counters
        line_size = cache.line_size
        lo = addr // line_size
        end = (addr + length - 1) // line_size + 1
        split_line = cache.split_line
        sets = cache.sets
        assoc = cache.assoc
        shift = INST_BITS
        # the PCM run of the line range, then the DRAM run
        while lo < end:
            if lo < split_line:
                hi = end if end <= split_line else split_line
                wkey, dkey = pcm_keys
            else:
                hi = end
                wkey, dkey = dram_keys
            tag = wkey if write else None
            absorbed = 0
            fills = 0
            victims = None
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
                            if victims is None:
                                victims = {vtag: 1}
                            else:
                                victims[vtag] = victims.get(vtag, 0) + 1
                    cset[key] = tag
            else:
                # consecutive lines map to consecutive sets and keys
                start = lo % n_sets
                if start + hi - lo <= n_sets:
                    csets = sets[start : start + hi - lo]
                else:
                    # wraps: a set that recurs is updated in line order
                    csets = [*map(sets.__getitem__, map(n_sets.__rmod__, range(lo, hi)))]
                evicted = []
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
                            evicted.append(vtag)
                    cset[key] = tag
                if evicted:
                    # one entry per key, in first-seen order, as the short walk counts
                    vtags = dict.fromkeys(evicted)
                    victims = dict(zip(vtags, map(evicted.count, vtags)))
            if write:
                demand = counters.demand_write_bytes
                demand[dkey] = demand.get(dkey, 0) + (hi - lo) * line_size
                if absorbed:
                    absorbed_bytes = counters.absorbed_write_bytes
                    absorbed_bytes[dkey] = absorbed_bytes.get(dkey, 0) + absorbed * line_size
            if fills:
                counters.fills += fills
                read_bytes = counters.read_bytes
                read_bytes[wkey] = read_bytes.get(wkey, 0) + fills * line_size
            if victims:
                self._writeback(victims)
            lo = hi

    def _writeback(self, victims: dict[tuple[int, MemoryKind, str], int]) -> int:
        """Write back dirty lines counted as ``write_bytes key -> lines``; returns the total."""
        line_size = self.cache.line_size
        counters = self.counters
        write_bytes = counters.write_bytes
        total = 0
        for tag, n in victims.items():
            write_bytes[tag] = write_bytes.get(tag, 0) + n * line_size
            total += n
        counters.writebacks += total
        return total

    def _passthrough(self, inst: int, addr: int, length: int, write: bool, space: str) -> None:
        """Forward an access byte-for-byte: no cache, or collector traffic that bypasses it."""
        # The PCM/DRAM boundary is the one the cached path uses: the first
        # byte of line ``split_line``.
        counters = self.counters
        boundary = self.cache.split_line * self.cache.line_size
        pcm = min(max(boundary - addr, 0), length)
        for kind, n in ((_PCM, pcm), (_DRAM, length - pcm)):
            if not n:
                continue
            skey = (inst, kind, space)
            if write:
                key = (inst, kind)
                counters.demand_write_bytes[key] = counters.demand_write_bytes.get(key, 0) + n
                counters.write_bytes[skey] = counters.write_bytes.get(skey, 0) + n
            else:
                counters.read_bytes[skey] = counters.read_bytes.get(skey, 0) + n

    def drain(self) -> int:
        """Flush every dirty line; returns the number written back.

        Lines stay resident but clean, in their LRU order, so draining
        twice is a no-op the second time. The lines are counted by the key
        each holds, so the flush order does not matter.
        """
        sets = self.cache.sets
        victims = Counter(chain.from_iterable(map(dict.values, sets)))
        victims.pop(None, None)
        # set by set, so at most one old set is alive beside the new ones
        for i, cset in enumerate(sets):
            sets[i] = dict.fromkeys(cset)
        return self._writeback(victims)


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

