"""Per-instance heap: spaces, object records, mutator operations.

A heap is built from its run's ``ExperimentConfig``, which has already
checked the geometry: the heap and chunk sizes, and that boot, nursery
and observer fit in one memory half. Each instance owns a full split
address range starting at 0. A chunk is its index in that range. Fixed
spaces (boot, nursery, observer) claim the chunks under their ranges at
startup, once each even where two adjacent spaces share a boundary
chunk, and the heap keeps them as the set ``reserved``; mature, large
and metadata spaces pull chunk indices from their half on demand, and
an allocation that finds its half out of chunks raises
``HeapExhausted``. A free-list space places each object by
``first_fit``, which the collector's chunk pre-flight also dry-runs
before each collection's allocations: a minor's copies, and a major's
shadow slots and relocations.
The write barrier and the mutator's traffic live here; the collection
algorithms that consume this state, and issue the collector's traffic,
live in :mod:`hybridgc.collectors`. The barrier remembers the parent
object, by id in ``remset``, when a store makes an old one point young.
Each space is the one record of what it is: its name, its memory
``half`` (a ``FreeList``) and that half's kind, its counter key id
(``kid``) and whether it is young (the nursery and the observer). The
heap builds every space in one place, handing each its half and adding
one counter key per space, and fixes the LOO admission cap,
``loo_cap``; each object record points at its space. A space's kind
alone makes its traffic PCM or DRAM traffic: every access, the
mutator's and the collector's, goes straight to ``MemorySystem.access``
under its space's ``kid``. The ids mean nothing to the memory system;
the heap's spaces are the only record of which instance, space and kind
each one counts, and the heap checks write conservation over its own
ids after the drain.

The boot image is arithmetic: boot object k (trace id ``-(k+1)``) sits
at ``boot_space.lo + k * boot_extent`` and has all-null slots until a
trace writes one. Its record is built on the first lookup of its id, so
``objects`` holds every live allocation plus only the boot objects a
trace has named. No collection deletes a boot record, so the negative
keys of ``objects`` are the named boot objects, in naming order.
Besides ``objects`` the heap keeps ``young``: the records in the
observer or the nursery, in address order. Allocation appends to it and
the collector rebuilds it, so a minor collection touches only young
records. ``check_placement`` covers every record, comparing each
address with its space's half, and every chunk: the free indices of both
halves, the chunks of the free-list spaces and ``reserved`` must cover
each index exactly once. The engine runs it after every collection; no
switch turns it off.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .address_space import FreeList, HeapLayout, MemoryKind
from .config import Collector, ExperimentConfig
from .errors import ConfigError, HeapExhausted, InvariantError, TraceError
from .memory import MemorySystem

if TYPE_CHECKING:  # pragma: no cover
    from .collectors import GcEngine

HEADER_SIZE = 16
REF_SIZE = 8
META_SLOT_SIZE = 16
BOOT_OBJECT_REFS = 4

# Space identifiers. Which of these exist, and on which memory kind,
# depends on the collector variant.
BOOT = "boot"
NURSERY = "nursery"
OBSERVER = "observer"
MATURE_DRAM = "mature-dram"
MATURE_PCM = "mature-pcm"
LOS_DRAM = "los-dram"
LOS_PCM = "los-pcm"
META_DRAM = "meta-dram"


def align8(n: int) -> int:
    return (n + 7) & ~7


def make_space_map(variant: Collector) -> dict[str, MemoryKind]:
    """Spaces for a collector variant, each pinned to one memory kind.

    Boot and nursery share a kind in every variant. A space exists only
    where the variant can allocate in it.
    """
    pcm, dram = MemoryKind.PCM, MemoryKind.DRAM
    young = pcm if variant is Collector.PCM_ONLY else dram
    spaces = {BOOT: young, NURSERY: young, MATURE_PCM: pcm, LOS_PCM: pcm}
    if variant.is_write_sampling:
        spaces[OBSERVER] = dram
        spaces[MATURE_DRAM] = dram
    if variant.loo:
        spaces[LOS_DRAM] = dram  # relocation target for heavily written large objects
    if variant.mdo:
        spaces[META_DRAM] = dram  # shadow mark slots of PCM residents
    return spaces


class BumpSpace:
    """Contiguous space with a monotone cursor; reset empties it wholesale."""

    def __init__(self, name: str, half: FreeList, kid: int, lo: int, hi: int, young: bool) -> None:
        self.name = name
        self.half = half  # the memory half it sits in
        self.kind = half.kind
        self.kid = kid  # the counter key its traffic counts under
        self.young = young
        self.lo = lo
        self.hi = hi
        self.cursor = lo

    @property
    def capacity(self) -> int:
        return self.hi - self.lo

    @property
    def free(self) -> int:
        return self.hi - self.cursor

    def alloc(self, n: int) -> int | None:
        if self.cursor + n > self.hi:
            return None
        addr = self.cursor
        self.cursor += n
        return addr

    def reset(self) -> None:
        self.cursor = self.lo


def first_fit(extents: list[list[int]], n: int, chunk_size: int, take_chunk: Callable[[], int | None]) -> int | None:
    """Carve ``n`` bytes from ``extents`` ([addr, size], sorted by addr) and return their address.

    The lowest extent that holds ``n`` bytes serves; when none does, the
    chunk whose index ``take_chunk()`` returns joins the extents and
    serves. ``None`` means ``take_chunk`` had no chunk left.
    """
    if n > chunk_size:
        raise HeapExhausted(f"object of {n} bytes exceeds the {chunk_size}-byte chunk size")
    for i, ext in enumerate(extents):
        if ext[1] >= n:
            addr = ext[0]
            ext[0] += n
            ext[1] -= n
            if ext[1] == 0:
                del extents[i]
            return addr
    index = take_chunk()
    if index is None:
        return None
    addr = index * chunk_size
    if n < chunk_size:
        insort(extents, [addr + n, chunk_size - n])  # chunk addresses are distinct
    return addr


class FreeListSpace:
    """Mark-sweep space over on-demand chunks with first-fit extents."""

    def __init__(self, name: str, half: FreeList, kid: int) -> None:
        self.name = name
        self.half = half  # the memory half its chunks come from and return to
        self.kind = half.kind
        self.kid = kid  # the counter key its traffic counts under
        self.young = False
        self.chunks: list[int] = []  # indices of the chunks this space holds
        self.extents: list[list[int]] = []  # [addr, size], sorted by addr
        self.allocated_bytes = 0

    def alloc(self, n: int) -> int:
        addr = first_fit(self.extents, n, self.half.chunk_size, self._take_chunk)
        self.allocated_bytes += n
        return addr

    def _take_chunk(self) -> int:
        index = self.half.reserve(self.name)
        self.chunks.append(index)
        return index

    def sweep(self, live_intervals: list[tuple[int, int]]) -> None:
        """Rebuild free extents around ``live_intervals`` (sorted by addr).

        Chunks with no live data are handed back for recycling.
        """
        kept = []
        extents: list[list[int]] = []
        live_bytes = 0
        idx = 0
        n_live = len(live_intervals)
        size = self.half.chunk_size
        for index in sorted(self.chunks):
            lo = index * size
            hi = lo + size
            cursor = lo
            any_live = False
            while idx < n_live and live_intervals[idx][0] < hi:
                a, sz = live_intervals[idx]
                if a < lo or a + sz > hi:
                    raise InvariantError(f"live object at {a:#x} is outside its {self.name} chunk")
                any_live = True
                live_bytes += sz
                if a > cursor:
                    extents.append([cursor, a - cursor])
                cursor = a + sz
                idx += 1
            if not any_live:
                self.half.release(index)
                continue
            if cursor < hi:
                extents.append([cursor, hi - cursor])
            kept.append(index)
        if idx != n_live:
            raise InvariantError(f"live object at {live_intervals[idx][0]:#x} is not inside any {self.name} chunk")
        self.chunks = kept
        self.extents = extents
        self.allocated_bytes = live_bytes


Space = BumpSpace | FreeListSpace


@dataclass(slots=True)
class ObjectRecord:
    id: int
    addr: int
    size: int  # extent size: requested, padded to header+slots and 8B-aligned
    space: Space
    refs: list[int]  # referent ids; 0 is null
    write_count: int = 0
    large: bool = False
    meta_addr: int | None = None  # DRAM shadow slot for the mark, when used


class HeapInstance:
    """One program's heap; all traffic goes through the shared memory system."""

    def __init__(self, instance_id: int, config: ExperimentConfig, system: MemorySystem) -> None:
        if not 0 <= instance_id < system.cache.instances:
            # a cached line's key, tag * instances + instance, is one-to-one only for these ids
            raise ConfigError(f"instance id {instance_id} is outside [0, {system.cache.instances})")
        self.instance_id = instance_id
        self.config = config
        self.system = system
        self.zeroing = config.zeroing
        self.layout = layout = HeapLayout(config.heap_size, config.chunk_size)
        self.gc: "GcEngine | None" = None  # attached by the engine

        self.objects: dict[int, ObjectRecord] = {}
        # The observer and nursery records in address order: both spaces
        # are bump-allocated and the observer sits directly below the
        # nursery, so allocation and copying only ever append.
        self.young: list[ObjectRecord] = []
        self.roots: set[int] = set()
        # ids of the records outside the young region that may point into it
        self.remset: set[int] = set()
        # ids the collector has reclaimed; with ``objects`` they are every id
        # ever allocated, so a trace cannot allocate one twice
        self.reclaimed: set[int] = set()
        self.op_index = 0  # maintained by the trace driver, for diagnostics

        # Every space, in make_space_map order, each holding its kind's half
        # and adding its counter key. Boot sits at the bottom of the young
        # half, the nursery at its top and the observer below it
        # (ExperimentConfig has checked that the three fit); every other
        # space pulls chunks from its half on demand.
        space_map = make_space_map(config.variant)
        young_half = layout.free_list_for(space_map[NURSERY])
        nursery_lo = young_half.hi - config.effective_nursery_size
        fixed = {
            BOOT: (young_half.lo, young_half.lo + config.boot_size),
            NURSERY: (nursery_lo, young_half.hi),
            OBSERVER: (nursery_lo - config.observer_size, nursery_lo),
        }
        add_key = system.counters.add_key
        self.spaces: dict[str, Space] = {
            name: BumpSpace(name, layout.free_list_for(kind), add_key(), *fixed[name], young=name != BOOT)
            if name in fixed
            else FreeListSpace(name, layout.free_list_for(kind), add_key())
            for name, kind in space_map.items()
        }
        self.nursery = self.spaces[NURSERY]
        self.observer = self.spaces.get(OBSERVER)
        self.boot_space = self.spaces[BOOT]
        self.free_list_spaces = [space for space in self.spaces.values() if isinstance(space, FreeListSpace)]

        self.reserved: set[int] = set()  # the fixed spaces' chunks, held for the heap's life
        for space in filter(None, (self.nursery, self.observer, self.boot_space)):
            for index in range(space.lo // layout.chunk_size, (space.hi - 1) // layout.chunk_size + 1):
                if index not in self.reserved:  # adjacent fixed spaces may share a boundary chunk
                    space.half.reserve_index(index, space.name)
                    self.reserved.add(index)

        # The image predates the trace: it fills the boot space with whole
        # objects, emits no traffic and builds no record up front.
        self.boot_extent = align8(max(config.boot_object_size, HEADER_SIZE + BOOT_OBJECT_REFS * REF_SIZE))
        count = self.boot_space.capacity // self.boot_extent
        self.boot_space.alloc(count * self.boot_extent)
        self.boot_ids = range(-1, -count - 1, -1)
        # LOO: the largest large object the nursery admits, when it has the
        # room; a variant without LOO admits none
        self.loo_cap = config.loo_nursery_fraction * config.effective_nursery_size if config.variant.loo else 0

    # -- mutator operations (one per trace op kind) --
    #
    # Each op takes one frame besides the cache walk (and, for a small
    # allocation, the record's constructor and the nursery's bump), so the
    # record lookup, bounds test, alignment and clock advance are written
    # out inline. They repeat ``align8`` term for term; the write barrier's
    # young test reads the two records' ``space.young``. Each op advances
    # the clock by ``MemorySystem``'s one expression, ``op_cost_ns + n *
    # byte_cost_ns`` for the ``n`` bytes it moves, so simulated time stays
    # bit-identical.

    def alloc_object(self, oid: int, size: int, n_refs: int, large_hint: bool = False) -> ObjectRecord:
        if oid <= 0:
            raise TraceError(f"allocation id {oid} must be positive")
        if oid in self.objects or oid in self.reclaimed:
            raise TraceError(f"id {oid} was already allocated once")
        if size <= 0 or n_refs < 0:
            raise TraceError(f"bad allocation geometry (size={size}, refs={n_refs})")
        floor = HEADER_SIZE + n_refs * REF_SIZE
        extent = ((size if size > floor else floor) + 7) & ~7
        system = self.system
        system.now_ns += system.op_cost_ns + extent * system.byte_cost_ns
        large = large_hint or size >= self.config.large_threshold

        if large:
            # a large object LOO does not admit goes to the LOS without forcing a collection
            nursery = self.nursery
            space = nursery if extent <= self.loo_cap and extent <= nursery.free else self.spaces[LOS_PCM]
            addr = space.alloc(extent)  # admission checked the nursery's free space
        else:
            space = nursery = self.nursery
            addr = nursery.alloc(extent)
            if addr is None:
                self.gc.on_nursery_full()
                addr = nursery.alloc(extent)
                if addr is None:
                    raise HeapExhausted(f"{extent}-byte object cannot fit an empty nursery")

        rec = ObjectRecord(oid, addr, extent, space, [0] * n_refs, large=large)
        self.objects[oid] = rec
        if space.young:
            self.young.append(rec)
        if self.zeroing:
            system.access(self.instance_id, addr, extent, True, space.kid)
        return rec

    def write_data(self, oid: int, offset: int, length: int) -> None:
        rec = self.objects.get(oid)
        if rec is None:
            rec = self._name_boot_object(oid)
        if offset < 0 or length < 0 or offset + length > rec.size:
            raise self._bounds_error(rec, offset, length)
        system = self.system
        system.now_ns += system.op_cost_ns + length * system.byte_cost_ns
        rec.write_count += 1
        system.access(self.instance_id, rec.addr + offset, length, True, rec.space.kid)

    def read_data(self, oid: int, offset: int, length: int) -> None:
        rec = self.objects.get(oid)
        if rec is None:
            rec = self._name_boot_object(oid)
        if offset < 0 or length < 0 or offset + length > rec.size:
            raise self._bounds_error(rec, offset, length)
        system = self.system
        system.now_ns += system.op_cost_ns + length * system.byte_cost_ns
        system.access(self.instance_id, rec.addr + offset, length, False, rec.space.kid)

    def write_ref(self, parent_id: int, slot: int, child_id: int) -> None:
        objects = self.objects
        parent = objects.get(parent_id)
        if parent is None:
            parent = self._name_boot_object(parent_id)
        refs = parent.refs
        if not 0 <= slot < len(refs):
            raise TraceError(f"object {parent_id} has {len(refs)} ref slots, not {slot + 1}")
        if child_id:
            child = objects.get(child_id)
            if child is None:
                child = self._name_boot_object(child_id)
        refs[slot] = child_id
        parent.write_count += 1
        system = self.system
        line = system.cache.line_size
        system.now_ns += system.op_cost_ns + line * system.byte_cost_ns
        slot_addr = parent.addr + HEADER_SIZE + slot * REF_SIZE
        line_base = (slot_addr // line) * line
        system.access(self.instance_id, line_base, line, True, parent.space.kid)
        if child_id and child.space.young and not parent.space.young:
            self.remset.add(parent_id)

    def set_root(self, oid: int, rooted: bool) -> None:
        if oid not in self.objects:
            self._name_boot_object(oid)  # rooting a reclaimed id is a trace error
        system = self.system
        system.now_ns += system.op_cost_ns + 0 * system.byte_cost_ns
        if rooted:
            self.roots.add(oid)
        else:
            self.roots.discard(oid)

    # -- lookup misses and errors of the mutator operations --

    def _name_boot_object(self, oid: int) -> ObjectRecord:
        """Build boot object ``oid``'s record when an op first names its id.

        An op calls this when ``oid`` has no record. Naming emits no
        traffic; any other unknown id is a trace error.
        """
        if oid not in self.boot_ids:
            raise TraceError(f"id {oid} is not a live allocation")
        addr = self.boot_space.lo + (-oid - 1) * self.boot_extent
        rec = ObjectRecord(id=oid, addr=addr, size=self.boot_extent, space=self.boot_space, refs=[0] * BOOT_OBJECT_REFS)
        self.objects[oid] = rec
        return rec

    @staticmethod
    def _bounds_error(rec: ObjectRecord, offset: int, length: int) -> TraceError:
        """The error for an access of ``length`` bytes at ``offset`` that leaves ``rec``."""
        return TraceError(f"access [{offset}, {offset + length}) outside object {rec.id} of {rec.size} bytes")

    def mature_occupancy(self) -> int:
        # mark metadata is collector bookkeeping, not payload; the heap
        # budget governs payload so mdo on/off cannot shift major timing
        return sum(
            space.allocated_bytes
            for space in self.free_list_spaces
            if space.name != META_DRAM
        )

    def check_write_conservation(self) -> None:
        """Check that ``demand`` equals ``absorbed`` plus ``written`` over this heap's keys, per memory kind.

        Not per key: absorbed bytes count under the writer's key and a
        write-back under the line's last writer, which may be another
        space of the same kind. Valid only when no dirty line is
        outstanding (after the drain).
        """
        counters = self.system.counters
        for kind in (MemoryKind.DRAM, MemoryKind.PCM):
            kids = [space.kid for space in self.spaces.values() if space.kind is kind]
            demand = sum(map(counters.demand.__getitem__, kids))
            absorbed = sum(map(counters.absorbed.__getitem__, kids))
            written_back = sum(map(counters.written.__getitem__, kids))
            if demand != absorbed + written_back:
                raise InvariantError(
                    f"write bytes not conserved for {(self.instance_id, kind)}: {demand} demanded, "
                    f"{absorbed} absorbed, {written_back} written back"
                )

    def check_placement(self) -> None:
        """Every record and every chunk must sit where its kind says.

        Each record lies in the memory half of its space's kind; a boot
        object with no record sits where the arithmetic puts it. The
        chunks form a partition: every index is free in its half's list,
        held by one free-list space inside that space's half, or under a
        fixed space (claimed from the fixed space's half at construction),
        and no index is in two of these places.
        """
        for rec in self.objects.values():
            half = rec.space.half
            if not half.lo <= rec.addr < half.hi:
                raise InvariantError(
                    f"object {rec.id} in {rec.space.name} landed at {rec.addr:#x}, outside [{half.lo:#x}, {half.hi:#x})"
                )
        layout = self.layout
        holders = [(f"free {half.kind.value}", half.free_indices, half) for half in (layout.pcm, layout.dram)]
        holders += [(space.name, space.chunks, space.half) for space in self.free_list_spaces]
        held_by = dict.fromkeys(self.reserved, "fixed")
        for holder, indices, half in holders:
            for index in indices:
                if index in held_by:
                    raise InvariantError(f"chunk {index} is both {held_by[index]} and {holder}")
                if index not in half.indices:
                    raise InvariantError(f"chunk {index} of {holder} lies outside the {half.kind.value} half")
                held_by[index] = holder
        for index in range(layout.heap_size // layout.chunk_size):
            if index not in held_by:
                raise InvariantError(f"chunk {index} is neither free nor held")
