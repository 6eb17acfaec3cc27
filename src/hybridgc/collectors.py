"""Collection algorithms and survivor-placement policy.

The engine owns the generational cycle: evacuate the nursery when it
fills, spill the observation space into mature DRAM or PCM according to
observed write counts, and run a full mark-sweep when mature occupancy
crosses the budget. Both kinds of collection find their live set with
one reachability walk, ``_closure``, which follows refs only inside a
scope: the young records for a minor, every record for a major. A young
collection decides each survivor's destination once, in
``_plan_survivors``, as a pair of move lists (nursery, observer). A
major plans its DRAM allocations before its first mark: a shadow slot
for each live PCM resident that has none (mdo), in mark order, then a
copy for each large object it relocates (LOO). Either plan's free-list
allocations are made at once, in order, by ``heap.place``, which makes
all of them or none; only a copy into the observer, a bump, is left to
the copy loop. So a minor either makes every copy or, before any,
cascades into one major, and a major either places its whole plan or
raises ``HeapExhausted`` before any traffic.

``_move`` makes every copy, a minor's and a major's relocations. It
takes each free-list destination from the placed addresses, moves each
record and advances the clock per survivor, in list order, but sends
the cache traffic per group of adjacent survivors:
one read of the group's source lines and one write of its destination
lines. Its set test keeps each set's touches in per-survivor order, so
the cache state and every count a report reads are those of a read and
a write per survivor.

Each collection appends a ``CollectionStats`` holding only what reports
read: its kind, the bytes it copied, its mark writes (all, and those to
PCM) and its large-object relocations.

A minor collection costs O(young), not O(heap): it seeds its closure
from the roots in the heap's address-ordered ``young`` list and the
young children of the remembered objects, plans its copies by walking
that list, reclaims the young dead from it, remembers each record that
left it holding a ref, and leaves it holding the observer's residents.
Only ``check_placement`` still visits every record, in one tight loop.

A major collection treats the boot image as roots without a record per
boot object: its closure seeds from the roots and the boot records a
trace has named (the rest have only null slots). It writes its marks
from one loop over one address-ordered sequence of (target, space)
pairs: each live record's shadow slot when it has one, else its header,
with the boot range's objects spliced in at the boot range's place.
Each mark writes the line holding its target straight through
``MemorySystem.access``, so it enters no other frame.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter
from typing import Callable, Iterator

from .address_space import MemoryKind
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
    place,
)
from .memory import MemorySystem


@dataclass
class CollectionStats:
    kind: str  # "minor" | "observer" | "major"
    bytes_copied_total: int = 0
    mark_writes: int = 0
    mark_writes_pcm: int = 0
    large_relocated: int = 0


Moves = list[tuple[ObjectRecord, Space]]  # (record, destination space) pairs, by address


class GcEngine:
    """Drives all collections for one heap instance."""

    def __init__(self, heap: HeapInstance) -> None:
        self.heap = heap
        self.config = heap.config
        self.collections: list[CollectionStats] = []
        # Called with (kind, frozenset of live ids) once the collection's
        # final plan is placed, before any record moves or any traffic;
        # used by reachability oracles.
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
            # the plan evacuates the observer when its survivors need the room
            copies = (*(observer_moves or ()), *nursery_moves)
            placed = place([(rec.size, dest) for rec, dest in copies if not dest.young])
            if placed is not None:
                break
            if attempt == 0:
                self.collect_major()  # cascade once, then give up
            else:
                raise HeapExhausted("no chunks left for minor-collection survivors")
        if self.inspect_hook is not None:
            self.inspect_hook("minor", frozenset(live))

        addrs = iter(placed)  # the observer's evacuees take the first
        if observer_moves is not None:
            stats = CollectionStats("observer")
            self._move(observer_moves, stats, addrs)
            heap.observer.reset()
            self.collections.append(stats)

        stats = CollectionStats("minor")
        self._move(nursery_moves, stats, addrs)
        heap.nursery.reset()

        # drop the young dead; ``young`` keeps the observer's residents, in order
        objects = heap.objects
        reclaimed = heap.reclaimed
        kept = []
        for rec in heap.young:
            if rec.id not in live:
                del objects[rec.id]
                reclaimed.add(rec.id)
            elif rec.space.young:  # in the observer: stayed, or was just copied in
                kept.append(rec)
            elif any(rec.refs):  # just left the young region, and may still point into it
                heap.remset.add(rec.id)
        heap.young = kept
        self._prune_remset()
        self.collections.append(stats)
        heap.check_placement()
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

    # -- the survivor plan --

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

    def _move(self, moves: Moves, stats: CollectionStats, addrs: Iterator[int]) -> None:
        """Copy each record, in list order, to its new address in its destination space.

        A copy to a free-list space takes the next of ``addrs``, the
        addresses ``place`` returned for the collection's plan; a copy
        into the observer bumps its cursor. Nothing a copy calls raises:
        the bump's ``InvariantError`` is out of reach, since
        ``ExperimentConfig`` rejects an observer smaller than the nursery
        and a minor evacuates the observer when its survivors need the
        room.

        A copy joins the open group when it has the group's two spaces, its
        first source line and its first destination line are each the
        group's last or the next, and none of its source lines falls in a
        set the group's destination lines cover. Grouping only moves a
        later copy's read ahead of an earlier copy's write, which that set
        test keeps in different sets, and a line two adjacent copies share
        is touched once rather than twice back to back; so every set's LRU
        order and every count but ``demand`` and ``absorbed`` is the
        per-copy one. Without a cache, or when collector traffic bypasses
        it, each copy reads and writes its own bytes.
        """
        heap = self.heap
        system = heap.system
        inst = heap.instance_id
        access = system.access
        line = heap.cache.line_size
        n_sets = heap.cache.n_sets
        grouped = n_sets and self.config.gc_traffic_through_cache
        timed = self.config.include_collector_time
        stats.bytes_copied_total += sum(rec.size for rec, _dest in moves)
        # the open group: its spaces, and its source and destination lines, first and last
        src = to = None
        s_first = s_last = d_first = d_last = 0
        for rec, dest in moves:
            size = rec.size
            if dest.young:  # the observer
                new_addr = dest.alloc(size)
                if new_addr is None:
                    raise InvariantError("observer evacuation left too little room")
            else:
                new_addr = next(addrs)
            if not grouped:
                access(inst, rec.addr, size, False, rec.space.kid, collector=True)
                access(inst, new_addr, size, True, dest.kid, collector=True)
            else:
                lo = rec.addr // line
                hi = (rec.addr + size - 1) // line
                new_lo = new_addr // line
                # the sets after the group's last destination line and before its
                # first, taken cyclically, must hold the copy's source lines
                if (
                    rec.space is src and dest is to
                    and s_last <= lo <= s_last + 1 and d_last <= new_lo <= d_last + 1
                    and (lo - d_last - 1) % n_sets + (hi - lo) + (d_last - d_first) + 2 <= n_sets
                ):
                    s_last = hi
                else:
                    if src is not None:
                        access(inst, s_first * line, (s_last - s_first + 1) * line, False, src.kid, collector=True)
                        access(inst, d_first * line, (d_last - d_first + 1) * line, True, to.kid, collector=True)
                    src, to, s_first, s_last, d_first = rec.space, dest, lo, hi, new_lo
                d_last = (new_addr + size - 1) // line
            if timed:
                system.now_ns += heap.op_cost_ns + 2 * size * heap.byte_cost_ns
            rec.addr = new_addr
            rec.space = dest
            rec.write_count = 0  # residency changed; observation restarts
        if src is not None:
            access(inst, s_first * line, (s_last - s_first + 1) * line, False, src.kid, collector=True)
            access(inst, d_first * line, (d_last - d_first + 1) * line, True, to.kid, collector=True)

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
        # named has only null slots, so it adds nothing to the closure; the
        # named ones are the records under negative ids
        live = self._closure([*heap.roots, *(oid for oid in heap.objects if oid < 0)], heap.objects)
        by_addr = attrgetter("addr")
        live_recs = sorted((heap.objects[oid] for oid in live if oid > 0), key=by_addr)  # boot ids are negative
        # LOO moves a large PCM object written often enough in this
        # relocation window to DRAM; the window restarts at each full collection
        los_pcm = heap.spaces[LOS_PCM]
        large_pcm = [rec for rec in live_recs if rec.space is los_pcm]
        los_dram = heap.spaces.get(LOS_DRAM)
        relocations = [
            (rec, los_dram) for rec in large_pcm
            if los_dram is not None and rec.write_count >= config.large_relocation_threshold
        ]
        # mdo marks each PCM resident in a DRAM shadow slot, which it keeps
        # while it stays in PCM
        meta = heap.spaces.get(META_DRAM)
        unslotted = [
            rec for rec in live_recs
            if meta is not None and rec.meta_addr is None and rec.space.kind is MemoryKind.PCM
        ]
        # every DRAM allocation, placed at once: the shadow slots take the
        # first addresses, the relocations the rest
        placed = place([(META_SLOT_SIZE, meta)] * len(unslotted) + [(rec.size, dest) for rec, dest in relocations])
        if placed is None:
            raise HeapExhausted("no chunks left for major-collection shadow slots and relocations")
        if self.inspect_hook is not None:
            self.inspect_hook("major", frozenset(live.union(heap.boot_ids)))

        addrs = iter(placed)
        for rec in unslotted:
            rec.meta_addr = next(addrs)
        stats = CollectionStats("major")
        # Marks go in address order, one line write each: a record's in its
        # shadow slot when it has one, else in place, and every boot object's
        # (the boot records among them) at the boot range's place in that order.
        marks = [(rec.addr, rec.space) if rec.meta_addr is None else (rec.meta_addr, meta) for rec in live_recs]
        boot = heap.boot_space  # DRAM whenever mdo is on
        below_boot = bisect_left(live_recs, boot.lo, key=by_addr)
        boot_marks = zip(range(boot.lo, boot.cursor, heap.boot_extent), repeat(boot))
        system = heap.system
        inst = heap.instance_id
        line = heap.cache.line_size
        timed = config.include_collector_time
        for target, space in chain(marks[:below_boot], boot_marks, marks[below_boot:]):
            system.access(inst, target // line * line, line, True, space.kid, collector=True)
            if timed:
                system.now_ns += heap.op_cost_ns + line * heap.byte_cost_ns
            stats.mark_writes += 1
            if space.kind is MemoryKind.PCM:
                stats.mark_writes_pcm += 1
        for rec in large_pcm:
            rec.write_count = 0
        self._move(relocations, stats, addrs)
        for rec, _dest in relocations:
            rec.meta_addr = None  # the DRAM shadow slot is only for PCM residents
        stats.large_relocated = len(relocations)

        intervals: dict[Space, list[tuple[int, int]]] = {space: [] for space in heap.free_list_spaces}
        for rec in live_recs:
            if rec.space in intervals:
                intervals[rec.space].append((rec.addr, rec.size))
            if rec.meta_addr is not None:
                intervals[meta].append((rec.meta_addr, META_SLOT_SIZE))
        for space, live_intervals in intervals.items():
            space.sweep(sorted(live_intervals))

        dead = [oid for oid in heap.objects if oid not in live]
        for oid in dead:
            del heap.objects[oid]
        heap.reclaimed.update(dead)
        # a major cascaded from on_nursery_full reclaims young objects too
        heap.young = [rec for rec in heap.young if rec.id in live]

        self._prune_remset()
        self.collections.append(stats)
        heap.check_placement()
        live_bytes = heap.mature_occupancy()
        if live_bytes >= config.heap_budget:
            raise HeapExhausted(f"{live_bytes} live bytes exceed the {config.heap_budget}-byte budget")
        return stats


def build_instance(config: ExperimentConfig, system: MemorySystem, instance_id: int) -> HeapInstance:
    """Construct a heap with its collection engine attached."""
    heap = HeapInstance(instance_id, config, system)
    GcEngine(heap)
    return heap
