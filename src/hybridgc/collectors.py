"""Collection algorithms and survivor-placement policy.

The engine owns the generational cycle: evacuate the nursery when it
fills, spill the observation space into mature DRAM or PCM according to
observed write counts, and run a full mark-sweep when mature occupancy
crosses the budget. Both kinds of collection find their live set with
one reachability walk, ``_closure``, which follows refs only inside a
scope: the young records for a minor, every record for a major. A young
collection decides each survivor's destination once, in
``_plan_survivors``, as a pair of move lists (nursery, observer); the
chunk pre-flight and the copy loop both read that pair. The pre-flight
dry-runs the copy loop's allocations, first fit over a copy of each
destination's extents and fresh chunks in the order its half hands them
out, so a minor either makes every copy or, before any, cascades into
one major.

A minor collection costs O(young), not O(heap): it seeds its closure
from the roots in the heap's address-ordered ``young`` list and the
young children of the remembered objects, plans its copies by walking
that list, reclaims the young dead from it, remembers each record that
left it holding a ref, and leaves it holding the observer's residents.
Only ``check_placement`` still visits every record, in one tight loop.

A major collection treats the boot image as roots without a record per
boot object: its closure seeds from the roots and the boot records a
trace has named (the rest have only null slots), and it marks the whole
boot range in one address-ordered loop, at the boot range's place in
the address order of the marks.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Callable, Iterator

from .address_space import FreeList, MemoryKind
from .config import ExperimentConfig
from .errors import HeapExhausted, InvariantError
from .heap import (
    LOS_DRAM,
    LOS_PCM,
    MATURE_DRAM,
    MATURE_PCM,
    META_DRAM,
    META_SLOT_SIZE,
    HeapInstance,
    ObjectRecord,
    Space,
    first_fit,
)
from .memory import MemorySystem


@dataclass
class CollectionStats:
    kind: str  # "minor" | "observer" | "major"
    objects_scanned: int = 0
    copied_objects: int = 0
    copied_bytes: dict[str, int] = field(default_factory=dict)
    space_used_before: int = 0  # fill of the collected space at entry
    mark_writes: int = 0
    mark_writes_pcm: int = 0
    large_relocated: int = 0
    reclaimed_objects: int = 0
    live_bytes_after: int = 0  # mature occupancy after a major

    @property
    def bytes_copied_total(self) -> int:
        return sum(self.copied_bytes.values())


Moves = list[tuple[ObjectRecord, Space]]  # (record, destination space) pairs, by address


class GcEngine:
    """Drives all collections for one heap instance."""

    def __init__(self, heap: HeapInstance) -> None:
        self.heap = heap
        self.config = heap.config
        self.collections: list[CollectionStats] = []
        # Called with (kind, frozenset of live ids) after each closure is
        # computed and before any state changes; used by reachability oracles.
        self.inspect_hook: Callable[[str, frozenset], None] | None = None
        heap.gc = self

    # -- the hook used by the heap's allocator --

    def on_nursery_full(self) -> None:
        heap = self.heap
        for attempt in (0, 1):
            # seeds: the young roots and the young children of remembered objects
            young = {rec.id: rec for rec in heap.young}
            roots = heap.roots
            stack = [oid for oid in young if oid in roots]
            stack += [cid for pid in heap.remset for cid in heap.objects[pid].refs if cid in young]
            live = self._closure(stack, young)
            nursery_moves, observer_moves = self._plan_survivors(live)
            if self._chunks_available(nursery_moves, observer_moves):
                break
            if attempt == 0:
                self.collect_major()  # cascade once, then give up
            else:
                raise HeapExhausted("no chunks left for minor-collection survivors")
        self._run_young_cycle(live, nursery_moves, observer_moves)
        if heap.mature_occupancy() >= self.config.heap_budget:
            self.collect_major()

    # -- the reachability walk --

    @staticmethod
    def _closure(stack: list[int], scope: dict[int, ObjectRecord]) -> set[int]:
        """Ids reachable from the seeds on ``stack`` (all in ``scope``) by refs inside ``scope``."""
        live: set[int] = set()
        while stack:
            oid = stack.pop()
            if oid in live:
                continue
            live.add(oid)
            for cid in scope[oid].refs:
                if cid in scope and cid not in live:
                    stack.append(cid)
        return live

    # -- the survivor plan and its chunk pre-flight, so copies never fail halfway --

    def _plan_survivors(self, live: set[int]) -> tuple[Moves, Moves | None]:
        """Where each live young object goes: ``(nursery_moves, observer_moves)``.

        A large nursery survivor goes to the large-object space; any other
        pauses in the observer under write sampling and goes to mature
        PCM otherwise. The observer is evacuated only when the survivors
        bound for it overflow its free space; otherwise
        ``observer_moves`` is None. An evacuee that stayed write-quiet
        while observed is safe in PCM; one that was written goes to DRAM.
        Walking ``heap.young`` yields both lists already in address order.
        """
        heap = self.heap
        spaces = heap.spaces
        minor_dest = heap.observer or spaces[MATURE_PCM]
        nursery_moves = []
        observer_live = []
        to_observer = 0
        for rec in heap.young:
            if rec.id not in live:
                continue
            if rec.space is heap.nursery:
                dest = spaces[LOS_PCM] if rec.large else minor_dest
                if dest.young:
                    to_observer += rec.size
                nursery_moves.append((rec, dest))
            else:
                observer_live.append(rec)
        observer_moves = None
        if heap.observer is not None and heap.observer.free < to_observer:
            observer_moves = [(rec, spaces[MATURE_DRAM if rec.write_count else MATURE_PCM]) for rec in observer_live]
        return nursery_moves, observer_moves

    def _chunks_available(self, nursery_moves: Moves, observer_moves: Moves | None) -> bool:
        """Whether every copy of the plan finds room, by a dry run of the copy loop's allocations.

        The copies run in ``_run_young_cycle``'s order, observer evacuees
        first, each through ``first_fit`` over a copy of its destination's
        extents. A copy no extent holds takes its half's next free index,
        the one ``FreeList.reserve`` would hand out: nothing releases a
        chunk while the copies run.
        """
        extents: dict[Space, list[list[int]]] = {}
        fresh: dict[FreeList, Iterator[int]] = {}  # each half's free indices, lowest first
        for rec, dest in (*(observer_moves or ()), *nursery_moves):
            if dest.young:
                continue  # the plan evacuates the observer when its survivors need the room
            half = dest.half
            if dest not in extents:
                extents[dest] = [ext.copy() for ext in dest.extents]
                fresh.setdefault(half, iter(half.free_indices))
            if first_fit(extents[dest], rec.size, half.chunk_size, partial(next, fresh[half], None)) is None:
                return False
        return True

    # -- the nursery/observer cycle --

    def _run_young_cycle(self, live: set[int], nursery_moves: Moves, observer_moves: Moves | None) -> None:
        heap = self.heap
        if self.inspect_hook is not None:
            self.inspect_hook("minor", frozenset(live))

        if observer_moves is not None:
            stats = CollectionStats("observer", objects_scanned=len(observer_moves),
                                    space_used_before=heap.observer.used)
            self._move(observer_moves, stats)
            heap.observer.reset()
            self.collections.append(stats)

        stats = CollectionStats("minor", objects_scanned=len(live), space_used_before=heap.nursery.used)
        self._move(nursery_moves, stats)
        heap.nursery.reset()

        # drop the young dead; ``young`` keeps the observer's residents, in order
        objects = heap.objects
        reclaimed = heap.reclaimed
        kept = []
        dead = 0
        for rec in heap.young:
            if rec.id not in live:
                del objects[rec.id]
                reclaimed.add(rec.id)
                dead += 1
            elif rec.space.young:  # in the observer: stayed, or was just copied in
                kept.append(rec)
            elif any(rec.refs):  # just left the young region, and may still point into it
                heap.remset.add(rec.id)
        heap.young = kept
        stats.reclaimed_objects = dead
        self._prune_remset()
        self.collections.append(stats)
        heap.check_placement()

    def _move(self, moves: Moves, stats: CollectionStats) -> None:
        """Copy each record, in list order, to a fresh extent of its destination space."""
        heap = self.heap
        system = heap.system
        inst = heap.instance_id
        copied = stats.copied_bytes
        for rec, dest in moves:
            size = rec.size
            new_addr = dest.alloc(size)  # only the observer's bump returns None; a free list raises
            if new_addr is None:
                raise InvariantError("observer evacuation left too little room")
            system.access(inst, rec.addr, size, False, rec.space.kid, collector=True)
            system.access(inst, new_addr, size, True, dest.kid, collector=True)
            if system.include_collector_time:
                system.now_ns += system.op_cost_ns + 2 * size * system.byte_cost_ns
            rec.addr = new_addr
            rec.space = dest
            rec.write_count = 0  # residency changed; observation restarts
            copied[dest.name] = copied.get(dest.name, 0) + size
        stats.copied_objects += len(moves)

    def _prune_remset(self) -> None:
        """Keep the remembered ids that are records outside the young region with a ref into it."""
        # a lookup per ref of each remembered record, not a set of the young
        # ids: the remembered set is small and the young list is not
        objects = self.heap.objects
        self.heap.remset = {
            pid for pid in self.heap.remset
            if (rec := objects.get(pid)) is not None and not rec.space.young
            and any(objects[cid].space.young for cid in rec.refs if cid)
        }

    # -- full collection --

    def collect_major(self) -> CollectionStats:
        heap = self.heap
        config = self.config
        # the boot image counts as roots, but a boot object no trace has
        # named has only null slots, so it adds nothing to the closure
        live = self._closure([*heap.roots, *heap.named_boot_ids], heap.objects)
        if self.inspect_hook is not None:
            self.inspect_hook("major", frozenset(live.union(heap.boot_ids)))

        stats = CollectionStats("major")
        # every boot object is live, named or not
        stats.objects_scanned = len(live) + len(heap.boot_ids) - len(heap.named_boot_ids)
        # Marks go in address order. The boot range takes its place in that
        # order in one loop, which also covers the boot records; boot ids are
        # the only negative ones.
        by_addr = attrgetter("addr")
        live_recs = sorted((heap.objects[oid] for oid in live if oid > 0), key=by_addr)
        boot = heap.boot_space
        below_boot = bisect_left(live_recs, boot.lo, key=by_addr)
        for rec in live_recs[:below_boot]:
            self._mark_record(rec, stats)
        for addr in range(boot.lo, boot.cursor, heap.boot_extent):
            self._mark(addr, boot, stats)  # the boot space is DRAM whenever mdo is on
        for rec in live_recs[below_boot:]:
            self._mark_record(rec, stats)
        # LOO moves a large PCM object written often enough in this
        # relocation window to DRAM; the window restarts at each full
        # collection, for the moved objects (``_move``) and the rest alike.
        los_pcm = heap.spaces[LOS_PCM]
        for rec in live_recs:
            if rec.large and rec.space is los_pcm:
                if config.variant.loo and rec.write_count >= config.large_relocation_threshold:
                    self._move([(rec, heap.spaces[LOS_DRAM])], stats)
                    rec.meta_addr = None  # the DRAM shadow slot is only for PCM residents
                    stats.large_relocated += 1
                else:
                    rec.write_count = 0

        intervals: dict[Space, list[tuple[int, int]]] = {space: [] for space in heap.free_list_spaces}
        for rec in live_recs:
            if rec.space in intervals:
                intervals[rec.space].append((rec.addr, rec.size))
            if rec.meta_addr is not None:
                intervals[heap.spaces[META_DRAM]].append((rec.meta_addr, META_SLOT_SIZE))
        for space, live_intervals in intervals.items():
            space.sweep(sorted(live_intervals))

        dead = [oid for oid in heap.objects if oid not in live]
        for oid in dead:
            del heap.objects[oid]
        heap.reclaimed.update(dead)
        stats.reclaimed_objects = len(dead)
        # a major cascaded from on_nursery_full reclaims young objects too
        heap.young = [rec for rec in heap.young if rec.id in live]

        self._prune_remset()
        stats.live_bytes_after = heap.mature_occupancy()
        self.collections.append(stats)
        heap.check_placement()
        if stats.live_bytes_after >= config.heap_budget:
            raise HeapExhausted(
                f"{stats.live_bytes_after} live bytes exceed the {config.heap_budget}-byte budget"
            )
        return stats

    def _mark_record(self, rec: ObjectRecord, stats: CollectionStats) -> None:
        """Mark ``rec`` in place, or in its DRAM shadow slot when mdo keeps PCM marks out of PCM."""
        heap = self.heap
        if self.config.variant.mdo and rec.space.kind is MemoryKind.PCM:
            meta = heap.spaces[META_DRAM]
            if rec.meta_addr is None:
                rec.meta_addr = meta.alloc(META_SLOT_SIZE)
            self._mark(rec.meta_addr, meta, stats)
        else:
            self._mark(rec.addr, rec.space, stats)

    def _mark(self, target: int, space: Space, stats: CollectionStats) -> None:
        """One mark write: the cache line holding ``target``, in ``space``."""
        heap = self.heap
        system = heap.system
        line = system.cache.line_size
        line_base = (target // line) * line
        system.access(heap.instance_id, line_base, line, True, space.kid, collector=True)
        if system.include_collector_time:
            system.now_ns += system.op_cost_ns + line * system.byte_cost_ns
        stats.mark_writes += 1
        if space.kind is MemoryKind.PCM:
            stats.mark_writes_pcm += 1


def build_instance(config: ExperimentConfig, system: MemorySystem, instance_id: int) -> HeapInstance:
    """Construct a heap with its collection engine attached."""
    heap = HeapInstance(instance_id, config, system)
    GcEngine(heap)
    return heap
