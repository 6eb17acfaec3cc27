"""Collection behavior: survivor routing, observation, majors, large objects."""

import sys

import pytest

from hybridgc.address_space import MemoryKind
from hybridgc.config import Collector
from hybridgc.errors import ConfigError, HeapExhausted
from hybridgc.heap import (
    BOOT,
    LOS_DRAM,
    LOS_PCM,
    MATURE_DRAM,
    MATURE_PCM,
    NURSERY,
    OBSERVER,
)

from support import KIB, MIB, allocator_state, per_key, reserve_every_free_chunk, small_config, small_heap

SAMPLING_VARIANTS = [v.value for v in Collector if v.is_write_sampling]


class TestRouting:
    """Where each collection sends a small survivor, seen through whole heaps."""

    def test_minor_survivors_pause_for_observation_when_sampling(self):
        for variant in SAMPLING_VARIANTS:
            heap, _ = small_heap(variant, nursery=8 * KIB, budget=1 * MIB, zeroing=False)
            ids = ids_from()
            fill_rooted(heap, ids, 2)
            heap.write_data(1, 0, 8)  # written or not, a minor survivor waits
            fill_rooted(heap, ids, 1)  # triggers the first cycle
            assert [s.kind for s in heap.gc.collections] == ["minor"], variant
            assert heap.objects[1].space.name == heap.objects[2].space.name == OBSERVER, variant

    @pytest.mark.parametrize("variant", ["PCM-Only", "KG-N", "KG-B", "KG-N+LOO"])
    def test_minor_survivors_promote_straight_to_pcm_otherwise(self, variant):
        heap, _ = small_heap(variant, nursery=8 * KIB, budget=1 * MIB, zeroing=False)
        ids = ids_from()
        first = fill_rooted(heap, ids, 1)
        for _ in range(3):
            heap.write_data(first[0], 0, 8)  # without an observer, writes do not route
        promoted = list(first)
        while not heap.gc.collections:  # the B variants' nursery is three times larger
            promoted += fill_rooted(heap, ids, 1)
        assert heap.observer is None
        assert [s.kind for s in heap.gc.collections] == ["minor"]
        assert {heap.objects[oid].space.name for oid in promoted[:-1]} == {MATURE_PCM}
        assert heap.objects[promoted[-1]].space.name == NURSERY

    def test_observed_objects_route_by_write_count(self):
        for variant in SAMPLING_VARIANTS:
            heap, _ = small_heap(
                variant, nursery=8 * KIB, observer_multiplier=1.0, budget=1 * MIB, zeroing=False
            )
            ids = ids_from()
            fill_rooted(heap, ids, 5, size=2 * KIB)  # 1-4 move into observation
            heap.write_data(2, 0, 8)
            for _ in range(9):
                heap.write_data(3, 0, 8)
            fill_rooted(heap, ids, 4, size=2 * KIB)  # full again; evacuation precedes the copy-in
            assert [s.kind for s in heap.gc.collections] == ["minor", "observer", "minor"], variant
            spaces = {oid: heap.objects[oid].space.name for oid in (1, 2, 3, 4)}
            assert spaces == {1: MATURE_PCM, 2: MATURE_DRAM, 3: MATURE_DRAM, 4: MATURE_PCM}, variant

    def test_nursery_admission_for_large_objects(self):
        heap, _ = small_heap("KG-W", nursery=64 * KIB, zeroing=False)
        cap = 8 * KIB  # an eighth of the nursery
        assert heap.alloc_object(1, cap, 0).space.name == NURSERY  # at the cap
        assert heap.alloc_object(2, cap + 1, 0).space.name == LOS_PCM  # one alignment step over it
        for oid in range(3, 9):
            heap.alloc_object(oid, 7 * KIB, 0)
        heap.alloc_object(9, 6 * KIB + 8, 0)
        assert heap.nursery.free == cap - 8
        # at the cap, but the nursery has less room than the object: the LOS, without collecting
        assert heap.alloc_object(10, cap, 0).space.name == LOS_PCM
        assert heap.gc.collections == [] and heap.nursery.free == cap - 8
        off, _ = small_heap("KG-N", nursery=64 * KIB, zeroing=False)
        assert off.alloc_object(1, 1024, 0, large_hint=True).space.name == LOS_PCM  # a variant without LOO admits nothing

    def test_observation_space_must_hold_a_full_nursery(self):
        with pytest.raises(ConfigError):
            small_config("KG-W", observer_multiplier=0.5)
        # collectors without an observation space ignore the multiplier
        small_config("KG-N", observer_multiplier=0.5)


def fill_rooted(heap, ids, count, size=4 * KIB, n_refs=0):
    """Allocate ``count`` rooted objects of ``size`` bytes."""
    out = []
    for _ in range(count):
        oid = next(ids)
        heap.alloc_object(oid, size, n_refs)
        heap.set_root(oid, True)
        out.append(oid)
    return out


def collect_young(heap, ids):
    """Allocate unrooted 1 KiB garbage until the next collection runs."""
    count = len(heap.gc.collections)
    while len(heap.gc.collections) == count:
        heap.alloc_object(next(ids), KIB, 0)


def fill(space):
    """Bytes allocated in a bump space since its last reset."""
    return space.cursor - space.lo


def record_live_sets(heap):
    """Collect ``(kind, live ids)`` from each closure the engine computes."""
    seen = []
    heap.gc.inspect_hook = lambda kind, live: seen.append((kind, live))
    return seen


def ids_from(start=1):
    def gen():
        n = start
        while True:
            yield n
            n += 1

    return iter(gen())


class TestMinorCollection:
    def test_promotes_reachable_and_reclaims_dead(self):
        heap, system = small_heap("KG-N", nursery=8 * KIB, budget=1 * MIB, zeroing=False)
        heap.alloc_object(1, 2 * KIB, 1)
        heap.set_root(1, True)
        heap.alloc_object(2, 2 * KIB, 0)  # kept alive only through 1
        heap.write_ref(1, 0, 2)
        heap.alloc_object(3, 2 * KIB, 0)  # garbage
        heap.alloc_object(4, 2 * KIB, 0)
        heap.set_root(4, True)
        fills = []
        heap.gc.inspect_hook = lambda _kind, _live: fills.append(fill(heap.nursery))

        heap.alloc_object(5, 2 * KIB, 0)  # does not fit; forces the cycle

        for oid in (1, 2, 4):
            assert heap.objects[oid].space.name == MATURE_PCM
        assert 3 not in heap.objects and 3 in heap.reclaimed
        assert heap.objects[5].space.name == NURSERY
        assert fill(heap.nursery) == 2 * KIB
        assert fills == [8 * KIB]  # the collection started with a full nursery

        stats = heap.gc.collections[-1]
        assert stats.kind == "minor"
        assert stats.bytes_copied_total == 6 * KIB
        # each copy reads its nursery bytes once and writes them once into
        # phase-change memory, and nowhere else
        assert per_key(system.counters.read, heap) == {(0, MemoryKind.DRAM, NURSERY): 6 * KIB}
        written = per_key(system.counters.written, heap)
        assert written[(0, MemoryKind.PCM, MATURE_PCM)] == 6 * KIB
        assert sum(n for (_i, kind, _s), n in written.items() if kind is MemoryKind.PCM) == 6 * KIB

    def test_reference_cycle_is_copied_once(self):
        heap, system = small_heap("KG-N", nursery=8 * KIB, budget=1 * MIB, zeroing=False)
        heap.alloc_object(1, 4 * KIB, 1)
        heap.set_root(1, True)
        heap.alloc_object(2, 4 * KIB, 1)
        heap.write_ref(1, 0, 2)
        heap.write_ref(2, 0, 1)

        heap.alloc_object(3, 4 * KIB, 0)

        assert heap.objects[1].space.name == MATURE_PCM
        assert heap.objects[2].space.name == MATURE_PCM
        assert heap.gc.collections[-1].bytes_copied_total == 8 * KIB
        # each object read once and written once
        assert per_key(system.counters.read, heap) == {(0, MemoryKind.DRAM, NURSERY): 8 * KIB}
        assert per_key(system.counters.written, heap)[(0, MemoryKind.PCM, MATURE_PCM)] == 8 * KIB

    def test_boot_image_references_keep_young_objects_alive(self):
        heap, _ = small_heap("KG-N", nursery=8 * KIB, budget=1 * MIB, zeroing=False)
        heap.alloc_object(1, 4 * KIB, 0)
        heap.write_ref(-1, 0, 1)  # referenced from the boot image only
        assert heap.remset == {-1}
        heap.alloc_object(2, 4 * KIB, 0)  # garbage

        heap.alloc_object(3, 4 * KIB, 0)

        assert heap.objects[1].space.name == MATURE_PCM
        assert 2 not in heap.objects


class TestObservationPipeline:
    def build(self):
        return small_heap(
            "KG-W",
            nursery=8 * KIB,
            observer_multiplier=1.0,
            budget=1 * MIB,
            zeroing=False,
        )

    def test_minor_survivors_wait_in_the_observation_space(self):
        heap, _ = self.build()
        ids = ids_from()
        fill_rooted(heap, ids, 2)
        fill_rooted(heap, ids, 1)  # triggers the first cycle

        assert heap.objects[1].space.name == OBSERVER
        assert heap.objects[2].space.name == OBSERVER
        assert fill(heap.observer) == 8 * KIB

    def test_written_objects_go_to_dram_quiet_ones_to_pcm(self):
        heap, system = self.build()
        ids = ids_from()
        fill_rooted(heap, ids, 2)
        fill_rooted(heap, ids, 1)  # 1 and 2 now under observation
        heap.write_data(1, 0, 8)
        observer_fills = []
        heap.gc.inspect_hook = lambda _kind, _live: observer_fills.append(fill(heap.observer))

        fill_rooted(heap, ids, 1)
        fill_rooted(heap, ids, 1)  # full again; evacuation precedes the copy-in

        assert heap.objects[1].space.name == MATURE_DRAM
        assert heap.objects[2].space.name == MATURE_PCM
        assert heap.objects[1].write_count == 0  # observation window closed
        assert [s.kind for s in heap.gc.collections] == ["minor", "observer", "minor"]
        assert heap.gc.collections[1].bytes_copied_total == 8 * KIB
        assert observer_fills == [8 * KIB]  # evacuated full
        # the evacuation is the only copy into mature space
        written = per_key(system.counters.written, heap)
        assert written[(0, MemoryKind.DRAM, MATURE_DRAM)] == written[(0, MemoryKind.PCM, MATURE_PCM)] == 4 * KIB

    def copy_frames(self, size):
        """The frames entered while a cycle evacuates two ``size``-byte
        objects, then copies two in. The 128-set cache spans 8 KiB, so the
        nursery, the observer and a fresh mature chunk all start at set 0."""
        heap, _ = small_heap(
            "KG-W",
            nursery=8 * KIB,
            observer_multiplier=1.0,
            budget=1 * MIB,
            zeroing=False,
            cache_capacity=128 * 2 * 64,
            cache_assoc=2,
        )
        ids = ids_from()
        fill_rooted(heap, ids, 3, size=size)  # 1 and 2 now under observation, 3 in the nursery
        fill_rooted(heap, ids, 1, size=size)
        entered = []

        def profile(frame, event, _arg):
            if event == "call":
                entered.append(frame.f_code.co_qualname)

        sys.setprofile(profile)
        try:
            fill_rooted(heap, ids, 1, size=size)  # evacuates 1 and 2, then copies 3 and 4 in
        finally:
            sys.setprofile(None)
        evac, minor = heap.gc.collections[1:]
        assert (evac.kind, evac.bytes_copied_total, minor.kind, minor.bytes_copied_total) == (
            "observer", 2 * size, "minor", 2 * size
        )
        assert entered.count("GcEngine._move") == 2
        # one first fit per free-list copy (the evacuation's two), all in ``place``
        assert (entered.count("first_fit"), entered.count("FreeListSpace.alloc")) == (2, 0)
        return entered

    def test_each_move_list_is_copied_in_one_frame(self):
        # whole-line copies, adjacent at both ends: one group per move list, a read and a write each
        assert self.copy_frames(4 * KIB).count("MemorySystem.access") == 4

    def test_a_set_conflict_splits_a_copy_group(self):
        # adjacent copies share a boundary line, in a set the group writes: each copy is a group of its own
        assert self.copy_frames(4 * KIB - 32).count("MemorySystem.access") == 8

    def test_evacuation_is_checked_for_chunks_before_any_copy(self):
        heap, _ = self.build()
        ids = ids_from()
        fill_rooted(heap, ids, 2)
        fill_rooted(heap, ids, 1)  # 1 and 2 now under observation
        reserve_every_free_chunk(heap)
        with pytest.raises(HeapExhausted, match="minor-collection survivors"):
            fill_rooted(heap, ids, 2)  # full again; evacuating 1 and 2 needs a mature chunk
        # the placement refused before anything moved, after one cascaded major
        assert [s.kind for s in heap.gc.collections] == ["minor", "major"]
        assert heap.objects[1].space.name == heap.objects[2].space.name == OBSERVER

    def test_promotion_remembers_edges_left_behind(self):
        heap, _ = self.build()
        ids = ids_from()
        fill_rooted(heap, ids, 2, n_refs=1)  # 1, 2
        fill_rooted(heap, ids, 1)  # 3; moves 1 and 2 into observation
        heap.alloc_object(100, 2 * KIB, 0)  # unrooted, held only by 1
        heap.write_ref(1, 0, 100)
        assert heap.remset == set()  # both ends still young
        fill_rooted(heap, ids, 1, size=2 * KIB)  # 4
        fill_rooted(heap, ids, 1)  # 5; evacuates 1 and 2, copies 3,4,100 in

        # the pointer store counted as a write, so 1 was routed to DRAM
        assert heap.objects[1].space.name == MATURE_DRAM
        assert heap.objects[100].space.name == OBSERVER
        assert heap.remset == {1}  # promoted parent, young child

        fill_rooted(heap, ids, 1)  # 6
        fill_rooted(heap, ids, 1)  # 7; next cycle

        # 100 survived purely through the remembered slot of 1
        assert heap.objects[100].space.name == MATURE_PCM
        assert heap.remset == set()

        heap.write_ref(1, 0, 0)
        heap.gc.collect_major()
        assert 100 not in heap.objects

    def test_a_parent_stays_remembered_while_any_slot_points_young(self):
        heap, _ = self.build()
        ids = ids_from(100)
        heap.alloc_object(10, 1 * KIB, 0)
        heap.alloc_object(11, 1 * KIB, 0)
        heap.write_ref(-1, 0, 10)  # one old parent, two slots into the nursery
        heap.write_ref(-1, 1, 11)
        collect_young(heap, ids)
        assert [heap.objects[oid].space.name for oid in (10, 11)] == [OBSERVER] * 2
        assert heap.remset == {-1}

        heap.write_ref(-1, 0, 0)
        collect_young(heap, ids)
        assert 10 not in heap.objects
        assert heap.objects[11].space.name == OBSERVER  # held through the other slot
        assert heap.remset == {-1}

        heap.write_ref(-1, 1, 0)
        assert heap.remset == {-1}  # a store of null forgets nothing; the next prune does
        collect_young(heap, ids)
        assert 11 not in heap.objects
        assert heap.remset == set()


def young_ids(heap):
    return [rec.id for rec in heap.young]


class TestYoungList:
    """``heap.young`` holds exactly the nursery and observer records, by address."""

    def test_cascaded_major_leaves_no_reclaimed_record(self):
        # one chunk per half, as in test_destination_exhaustion_cascades_once_then_fails
        heap, _ = small_heap(
            "KG-N",
            nursery=32 * KIB,
            budget=256 * KIB,
            heap_size=128 * KIB,
            chunk_size=64 * KIB,
            zeroing=False,
        )
        ids = ids_from()
        first = fill_rooted(heap, ids, 9)  # 1-8 promoted; 9 young
        second = fill_rooted(heap, ids, 8)  # 9-16 promoted: the PCM chunk is full
        for oid in first[:8] + second[:7]:
            heap.set_root(oid, False)  # mature garbage that only a major reclaims
        fill_rooted(heap, ids, 6)  # 18-23
        heap.alloc_object(100, 4 * KIB, 0)  # young garbage; the nursery is full
        assert young_ids(heap) == [17, 18, 19, 20, 21, 22, 23, 100]
        young_at_minor = []

        def inspect(kind, live):
            if kind == "minor":
                young_at_minor.append((young_ids(heap), live))

        heap.gc.inspect_hook = inspect

        fill_rooted(heap, ids, 1)  # 24: 28 KiB of survivors overflow the chunk's tail

        # the placement cascaded into a major, which swept the chunk and reclaimed 100
        assert [s.kind for s in heap.gc.collections] == ["minor", "minor", "major", "minor"]
        assert 100 not in heap.objects and 100 in heap.reclaimed
        # so the minor found every young record live, and reclaimed none
        survivors = list(range(17, 24))
        assert young_at_minor == [(survivors, set(survivors))]
        assert heap.gc.collections[-1].bytes_copied_total == 7 * 4 * KIB
        assert {heap.objects[oid].space.name for oid in survivors} == {MATURE_PCM}
        assert young_ids(heap) == [24]

    def test_dead_observer_resident_is_reclaimed_without_an_evacuation(self):
        heap, _ = small_heap("KG-W", nursery=8 * KIB, observer_multiplier=2.0, budget=1 * MIB, zeroing=False)
        ids = ids_from()
        fill_rooted(heap, ids, 3)  # 1 and 2 move into the observer; 3 is young
        assert young_ids(heap) == [1, 2, 3]
        heap.set_root(1, False)
        fill_rooted(heap, ids, 2)  # 5: the second minor copies 3 and 4 into the free half

        assert [s.kind for s in heap.gc.collections] == ["minor", "minor"]
        assert 1 not in heap.objects and 1 in heap.reclaimed
        assert young_ids(heap) == [2, 3, 4, 5]
        assert [heap.objects[oid].space.name for oid in (2, 3, 4)] == [OBSERVER] * 3
        assert fill(heap.observer) == 16 * KIB  # a bump space frees only on evacuation

    def test_surviving_admitted_large_object_leaves_for_the_los(self):
        heap, _ = small_heap("KG-W", zeroing=False)  # 64 KiB nursery, 8 KiB cap
        heap.alloc_object(1, 8 * KIB, 0)
        heap.set_root(1, True)
        assert young_ids(heap) == [1]
        ids = ids_from(2)
        fill_rooted(heap, ids, 14)
        fill_rooted(heap, ids, 1)  # 16: the first minor

        assert heap.objects[1].space.name == LOS_PCM
        assert young_ids(heap) == list(range(2, 17))

    def test_rooted_mature_objects_are_not_scanned(self):
        heap, _ = small_heap("KG-N", nursery=8 * KIB, budget=1 * MIB, zeroing=False)
        ids = ids_from()
        fill_rooted(heap, ids, 3)  # 1 and 2 promoted
        heap.set_root(1, False)
        heap.set_root(1, True)  # re-rooted while mature
        heap.alloc_object(10, 4 * KIB, 0)  # young garbage
        seen = record_live_sets(heap)
        fill_rooted(heap, ids, 1)  # 4: the second minor, with 3 the only young root

        stats = heap.gc.collections[-1]
        assert stats.kind == "minor"
        assert seen == [("minor", {3})]
        assert stats.bytes_copied_total == 4 * KIB
        assert heap.objects[3].space.name == MATURE_PCM
        assert young_ids(heap) == [4]


class TestMajorCollection:
    def test_reclaims_unreachable_mature_and_recycles_chunks(self):
        heap, _ = small_heap("KG-N", nursery=8 * KIB, budget=1 * MIB, zeroing=False)
        pcm = heap.spaces[MATURE_PCM].half
        free0 = len(pcm.free_indices)
        ids = ids_from()
        alive = fill_rooted(heap, ids, 9)  # four cycles; 8 promoted, 1 young
        promoted = alive[:8]
        assert heap.spaces[MATURE_PCM].allocated_bytes == 32 * KIB
        assert len(pcm.free_indices) == free0 - 1

        for oid in promoted:
            heap.set_root(oid, False)
        stats = heap.gc.collect_major()

        assert all(oid not in heap.objects and oid in heap.reclaimed for oid in promoted)
        assert stats.mark_writes == len(heap.boot_ids) + 1  # boot image + id 9
        assert heap.spaces[MATURE_PCM].allocated_bytes == 0
        assert len(pcm.free_indices) == free0

    def test_live_bytes_at_budget_is_fatal(self):
        heap, _ = small_heap("KG-N", nursery=8 * KIB, budget=16 * KIB, zeroing=False)
        ids = ids_from()
        with pytest.raises(HeapExhausted):
            fill_rooted(heap, ids, 5)  # two full nurseries of survivors
        assert heap.gc.collections[-1].kind == "major"
        assert heap.mature_occupancy() >= 16 * KIB

    def test_destination_exhaustion_cascades_once_then_fails(self):
        # one chunk per half: boot and nursery share the single DRAM chunk,
        # every promotion competes for the single PCM chunk
        heap, _ = small_heap(
            "KG-N",
            nursery=32 * KIB,
            budget=256 * KIB,
            heap_size=128 * KIB,
            chunk_size=64 * KIB,
            zeroing=False,
        )
        ids = ids_from()
        fill_rooted(heap, ids, 9)  # first cycle reserves the PCM chunk
        fill_rooted(heap, ids, 8)  # second cycle fits in the chunk's free tail
        assert [s.kind for s in heap.gc.collections] == ["minor", "minor"]
        assert heap.spaces[MATURE_PCM].allocated_bytes == 64 * KIB

        with pytest.raises(HeapExhausted):
            fill_rooted(heap, ids, 8)  # third cycle has nowhere left to copy
        # the cascade ran one full collection before giving up
        assert [s.kind for s in heap.gc.collections] == ["minor", "minor", "major"]

    def test_chunk_preflight_runs_first_fit_not_a_free_byte_count(self):
        # two chunks per half; with no boot image the nursery is the DRAM half's only tenant
        heap, _ = small_heap(
            "KG-N",
            nursery=16 * KIB,
            budget=4 * MIB,
            heap_size=256 * KIB,
            chunk_size=64 * KIB,
            zeroing=False,
            boot_size=0,
        )
        ids = ids_from(1000)
        heap.alloc_object(1, 40 * KIB, 0)  # large: PCM chunk 0 goes to the LOS
        heap.set_root(1, True)
        small = fill_rooted(heap, ids_from(2), 62, size=KIB)
        collect_young(heap, ids)  # the last of them are promoted too
        for oid in small[::2]:
            heap.set_root(oid, False)
        heap.gc.collect_major()
        mature = heap.spaces[MATURE_PCM]
        assert (mature.chunks, heap.spaces[LOS_PCM].chunks, heap.layout.pcm.free_indices) == ([1], [0], [])
        assert sum(size for _addr, size in mature.extents) == 33 * KIB  # 1 KiB holes and a 2 KiB tail
        assert max(size for _addr, size in mature.extents) == 2 * KIB
        heap.set_root(1, False)  # chunk 0 is free once a major reclaims 1

        fill_rooted(heap, ids_from(100), 1, size=KIB)  # fits a hole
        fill_rooted(heap, ids_from(101), 1, size=3 * KIB)  # fits none
        count = len(heap.gc.collections)
        collect_young(heap, ids)

        # 4 KiB of survivors against 33 KiB free: a free-byte count passes, but
        # first-fit has no room for 101, so the placement cascades before any copy
        assert [s.kind for s in heap.gc.collections[count:]] == ["major", "minor"]
        assert 1 not in heap.objects
        assert heap.objects[100].space is heap.objects[101].space is mature
        assert mature.chunks == [1, 0] and heap.objects[101].addr == 0

    @pytest.mark.parametrize("variant", ["KG-W", "KG-W-MDO", "KG-W-LOO"])
    def test_a_major_short_of_dram_chunks_fails_before_its_first_mark(self, variant):
        # the written large object needs a los-dram relocation (LOO: KG-W,
        # KG-W-MDO), a meta-dram shadow slot (mdo: KG-W, KG-W-LOO), or both
        heap, system = small_heap(variant, zeroing=False)
        heap.alloc_object(1, 16 * KIB, 0)  # over the LOO cap: straight to the LOS
        heap.set_root(1, True)
        for _ in range(4):
            heap.write_data(1, 0, 64)  # at the relocation threshold
        reserve_every_free_chunk(heap)
        counters = vars(system.counters.snapshot())
        now = system.now_ns

        def records():
            return {oid: (rec.space, rec.addr, rec.write_count, rec.meta_addr) for oid, rec in heap.objects.items()}

        before = records()
        allocators = allocator_state(heap)

        with pytest.raises(HeapExhausted, match="no chunks left for major-collection shadow slots and relocations"):
            heap.gc.collect_major()

        assert (vars(system.counters.snapshot()), system.now_ns) == (counters, now)
        assert heap.gc.collections == []
        assert records() == before
        assert allocator_state(heap) == allocators


class TestLargeObjects:
    def test_oversized_objects_skip_the_nursery_without_collecting(self):
        heap, _ = small_heap("KG-W", zeroing=False)
        heap.alloc_object(1, 16 * KIB, 0)  # over the admission cap
        assert heap.objects[1].space.name == LOS_PCM
        assert heap.gc.collections == []

    def test_admitted_large_objects_live_and_die_in_the_nursery(self):
        heap, _ = small_heap("KG-W", zeroing=False)  # 64 KiB nursery, 8 KiB cap
        heap.alloc_object(1, 8 * KIB, 0)
        assert heap.objects[1].space.name == NURSERY
        assert heap.objects[1].large
        ids = ids_from(2)
        fill_rooted(heap, ids, 14)  # fills the nursery behind it
        fill_rooted(heap, ids, 1)  # collection: 1 is garbage
        assert 1 not in heap.objects
        assert heap.spaces[LOS_PCM].allocated_bytes == 0

    def test_admitted_large_survivors_promote_to_the_los(self):
        heap, _ = small_heap("KG-W", zeroing=False)
        heap.alloc_object(1, 8 * KIB, 0)
        heap.set_root(1, True)
        ids = ids_from(2)
        fill_rooted(heap, ids, 14)
        fill_rooted(heap, ids, 1)
        assert heap.objects[1].space.name == LOS_PCM

    def test_write_hot_large_objects_relocate_at_the_next_major(self):
        heap, _ = small_heap("KG-W", zeroing=False)
        heap.alloc_object(1, 16 * KIB, 0)
        heap.set_root(1, True)
        heap.alloc_object(2, 16 * KIB, 0)
        heap.set_root(2, True)
        for _ in range(4):
            heap.write_data(1, 0, 64)  # hot: at the relocation threshold
        for _ in range(3):
            heap.write_data(2, 0, 64)  # warm: one write short

        stats = heap.gc.collect_major()

        assert heap.objects[1].space.name == LOS_DRAM
        assert heap.objects[2].space.name == LOS_PCM
        assert stats.large_relocated == 1
        # the observation window restarts either way
        assert heap.objects[1].write_count == 0
        assert heap.objects[2].write_count == 0

    def test_relocation_needs_the_optimization(self):
        heap, _ = small_heap("KG-N", zeroing=False)
        heap.alloc_object(1, 16 * KIB, 0)
        heap.set_root(1, True)
        for _ in range(6):
            heap.write_data(1, 0, 64)

        stats = heap.gc.collect_major()

        assert heap.objects[1].space.name == LOS_PCM
        assert stats.large_relocated == 0


class TestBootImage:
    @pytest.mark.parametrize("variant", ["KG-N", "PCM-Only"])
    def test_a_major_marks_the_boot_range_once_in_address_order(self, variant):
        heap, _ = small_heap(variant, nursery=8 * KIB, budget=1 * MIB, zeroing=False)
        heap.alloc_object(1, 4 * KIB, 0)
        heap.set_root(1, True)
        heap.alloc_object(2, 4 * KIB, 0)
        heap.write_ref(-64, 3, 2)  # 2 is held only by the last boot object
        heap.write_data(-1, 0, 8)
        heap.alloc_object(3, 4 * KIB, 0)  # a minor promotes 1 and 2
        heap.set_root(3, True)
        assert [heap.objects[oid].space.name for oid in (1, 2, 3)] == [MATURE_PCM, MATURE_PCM, NURSERY]
        marks = []
        callers = set()
        spaces = {space.kid: name for name, space in heap.spaces.items()}

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code.co_qualname == "MemorySystem.access":
                args = frame.f_locals
                if args["collector"]:
                    marks.append((args["addr"], spaces[args["kid"]]))
                callers.add(frame.f_back.f_code.co_qualname)

        seen = record_live_sets(heap)
        sys.setprofile(profile)
        try:
            stats = heap.gc.collect_major()
        finally:
            sys.setprofile(None)

        assert all(oid in heap.objects for oid in (1, 2, 3, -1, -64))
        assert [oid for oid in heap.objects if oid < 0] == [-64, -1]
        boot = [(heap.boot_space.lo + k * 256, BOOT) for k in range(len(heap.boot_ids))]
        records = [(heap.objects[oid].addr // 64 * 64, heap.objects[oid].space.name) for oid in (1, 2, 3)]
        # every boot object once, named or not, where the address order puts it
        assert marks == sorted(boot + records)
        assert seen == [("major", {1, 2, 3, *heap.boot_ids})]
        assert stats.mark_writes == len(heap.boot_ids) + 3
        # a mark is written from the major's own loop, a relocation's copy from _move
        assert callers <= {"GcEngine.collect_major", "GcEngine._move"}


class TestMarkPlacement:
    def test_shadow_slots_keep_mark_writes_out_of_pcm(self):
        heap, _ = small_heap("KG-W", zeroing=False)
        heap.alloc_object(1, 16 * KIB, 0)
        heap.set_root(1, True)

        stats = heap.gc.collect_major()

        rec = heap.objects[1]
        assert rec.space.name == LOS_PCM
        assert rec.meta_addr is not None
        assert stats.mark_writes == len(heap.boot_ids) + 1
        assert stats.mark_writes_pcm == 0

    def test_inline_marks_hit_pcm_without_the_optimization(self):
        heap, _ = small_heap("KG-W-MDO", zeroing=False)
        assert "meta-dram" not in heap.spaces
        heap.alloc_object(1, 16 * KIB, 0)
        heap.set_root(1, True)

        stats = heap.gc.collect_major()

        rec = heap.objects[1]
        assert rec.space.name == LOS_PCM
        assert rec.meta_addr is None
        assert stats.mark_writes == len(heap.boot_ids) + 1
        assert stats.mark_writes_pcm == 1
