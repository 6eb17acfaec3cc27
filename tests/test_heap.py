import gc
import sys
import tracemalloc

import pytest

from hybridgc.address_space import MemoryKind
from hybridgc.config import Collector, ExperimentConfig
from hybridgc.errors import ConfigError, HeapExhausted, TraceError
from hybridgc.heap import (
    BOOT,
    LOS_DRAM,
    LOS_PCM,
    MATURE_DRAM,
    MATURE_PCM,
    META_DRAM,
    META_SLOT_SIZE,
    NURSERY,
    OBSERVER,
    BumpSpace,
    HeapInstance,
    ObjectRecord,
    align8,
    make_space_map,
)
from hybridgc.collectors import build_instance
from hybridgc.harness import build_system
from hybridgc.memory import MemorySystem
from support import KIB, MIB, ONE_OP, per_key, reserve_every_free_chunk, small_config, small_heap


def test_align8():
    assert align8(0) == 0
    assert align8(1) == 8
    assert align8(8) == 8
    assert align8(23) == 24


def in_half(layout, kind, addr):
    half = layout.free_list_for(kind)
    return half.lo <= addr < half.hi


class TestSpaceMaps:
    def test_pcm_only_is_all_pcm(self):
        got = make_space_map(Collector.PCM_ONLY)
        assert got == {
            BOOT: MemoryKind.PCM,
            NURSERY: MemoryKind.PCM,
            MATURE_PCM: MemoryKind.PCM,
            LOS_PCM: MemoryKind.PCM,
        }

    def test_kg_n_moves_young_to_dram(self):
        got = make_space_map(Collector.KG_N)
        assert got == {
            BOOT: MemoryKind.DRAM,
            NURSERY: MemoryKind.DRAM,
            MATURE_PCM: MemoryKind.PCM,
            LOS_PCM: MemoryKind.PCM,
        }

    def test_loo_variants_add_dram_los(self):
        got = make_space_map(Collector.KG_N_LOO)
        assert got[LOS_DRAM] is MemoryKind.DRAM
        assert OBSERVER not in got
        assert make_space_map(Collector.KG_B).keys() == {
            BOOT, NURSERY, MATURE_PCM, LOS_PCM
        }

    def test_write_sampling_full_map(self):
        got = make_space_map(Collector.KG_W)
        assert got == {
            BOOT: MemoryKind.DRAM,
            NURSERY: MemoryKind.DRAM,
            OBSERVER: MemoryKind.DRAM,
            MATURE_DRAM: MemoryKind.DRAM,
            MATURE_PCM: MemoryKind.PCM,
            LOS_DRAM: MemoryKind.DRAM,
            LOS_PCM: MemoryKind.PCM,
            META_DRAM: MemoryKind.DRAM,
        }

    def test_loo_ablation_has_no_dram_los(self):
        # only large-object relocation writes los-dram, and it runs only under LOO
        got = make_space_map(Collector.KG_W_NO_LOO)
        assert got == {
            BOOT: MemoryKind.DRAM,
            NURSERY: MemoryKind.DRAM,
            OBSERVER: MemoryKind.DRAM,
            MATURE_DRAM: MemoryKind.DRAM,
            MATURE_PCM: MemoryKind.PCM,
            LOS_PCM: MemoryKind.PCM,
            META_DRAM: MemoryKind.DRAM,
        }

    def test_mdo_ablation_has_no_dram_metadata(self):
        got = make_space_map(Collector.KG_W_NO_MDO)
        assert META_DRAM not in got
        assert OBSERVER in got


class TestPlacement:
    def test_young_region_sits_at_the_top_of_its_half(self):
        heap, _ = small_heap("KG-N", nursery=64 * KIB, heap_size=8 * MIB)
        assert heap.nursery.hi == heap.layout.heap_size
        assert heap.nursery.capacity == 64 * KIB
        assert in_half(heap.layout, MemoryKind.DRAM, heap.nursery.lo)
        assert heap.observer is None
        assert [name for name, space in heap.spaces.items() if space.young] == [NURSERY]

    def test_pcm_only_nursery_below_split(self):
        heap, _ = small_heap("PCM-Only", nursery=64 * KIB, heap_size=8 * MIB)
        assert heap.nursery.hi == heap.layout.heap_size // 2
        assert in_half(heap.layout, MemoryKind.PCM, heap.nursery.lo)

    def test_observer_directly_below_nursery(self):
        heap, _ = small_heap("KG-W", nursery=64 * KIB, observer_multiplier=2.0)
        assert heap.observer is not None
        assert heap.observer.hi == heap.nursery.lo
        assert heap.observer.capacity == 128 * KIB
        assert [name for name, space in heap.spaces.items() if space.young] == [NURSERY, OBSERVER]
        # each space carries its kind, in make_space_map order; every space
        # but the fixed ranges is a free list
        kinds = [(name, space.kind) for name, space in heap.spaces.items()]
        assert kinds == [*make_space_map(Collector.KG_W).items()]
        fixed = (BOOT, NURSERY, OBSERVER)
        assert [space.name for space in heap.free_list_spaces] == [name for name in heap.spaces if name not in fixed]

    @pytest.mark.parametrize("variant", [v.value for v in Collector])
    def test_each_space_holds_the_half_of_its_kind(self, variant):
        heap, _ = small_heap(variant)
        layout = heap.layout
        for name, kind in make_space_map(Collector.from_name(variant)).items():
            space = heap.spaces[name]
            assert space.half is layout.free_list_for(kind) and space.kind is kind, name
        for space in heap.free_list_spaces:
            half = space.half
            free = list(half.free_indices)
            space.alloc(64)
            [index] = space.chunks  # a fresh chunk, the lowest free one of its own half
            assert index == free[0] and half.free_indices == free[1:], space.name
            heap.check_placement()
            space.sweep([])  # nothing live: the empty chunk returns to its half
            assert space.chunks == [] and half.free_indices == free, space.name
        heap.check_placement()

    def test_boot_at_the_bottom_of_its_half(self):
        kg = small_heap("KG-N", boot_size=16 * KIB)[0]
        assert kg.boot_space.lo == kg.layout.heap_size // 2
        pcm = small_heap("PCM-Only", boot_size=16 * KIB)[0]
        assert pcm.boot_space.lo == 0

    def test_fixed_spaces_sharing_a_boundary_chunk_reserve_it_once(self):
        # 1 MiB nursery and 2 MiB observer inside one 4 MiB chunk
        heap, _ = small_heap(
            "KG-W", nursery=1 * MIB, observer_multiplier=2.0, heap_size=64 * MIB,
            chunk_size=4 * MIB, budget=16 * MIB,
        )
        layout = heap.layout
        size = layout.chunk_size
        shared = heap.nursery.lo // size
        assert shared == (heap.observer.hi - 1) // size
        assert shared in heap.reserved and shared not in layout.dram.free_indices
        # nothing outside the young and boot ranges is reserved at build time
        fixed = [(heap.observer.lo, heap.nursery.hi), (heap.boot_space.lo, heap.boot_space.hi)]
        n = layout.heap_size // size
        under_fixed = {i for i in range(n) if any(i * size < hi and lo < (i + 1) * size for lo, hi in fixed)}
        assert heap.reserved == under_fixed
        assert sorted(layout.pcm.free_indices + layout.dram.free_indices) == sorted(set(range(n)) - under_fixed)
        heap.check_placement()

    def test_young_region_must_fit(self):
        with pytest.raises(ConfigError):
            small_heap("KG-W", nursery=2 * MIB, observer_multiplier=2.0, heap_size=8 * MIB,
                       budget=8 * MIB)  # 6 MiB young > 4 MiB half

    def test_boot_objects_are_named_silently(self):
        heap, system = small_heap("KG-N", boot_size=16 * KIB, boot_object_size=256)
        assert len(heap.boot_ids) == 64
        assert heap.boot_ids[0] == -1 and heap.boot_ids[-1] == -64
        assert heap.objects == {} and heap.named_boot_ids == []
        # naming builds the record where the arithmetic puts it
        for oid in (-1, -64):
            rec = heap._name_boot_object(oid)
            assert heap.objects[oid] is rec
            assert rec.addr == heap.boot_space.lo + (-oid - 1) * 256
            assert rec.space.name == BOOT and rec.refs == [0, 0, 0, 0]
        assert heap.named_boot_ids == [-1, -64]
        # the boot image predates the trace: neither the build nor naming
        # emits traffic or takes simulated time
        assert sum(system.counters.written) == sum(system.counters.read) == 0
        assert system.now_ns == 0.0
        # an op on a named boot object finds its record; one on an unnamed
        # one names it, once
        rec = heap.objects[-1]
        heap.set_root(-1, True)
        heap.set_root(-2, True)
        heap.write_ref(-2, 0, -1)
        assert heap.objects[-1] is rec
        assert heap.named_boot_ids == [-1, -64, -2]
        assert heap.objects[-2].refs == [-1, 0, 0, 0]

    def test_a_default_boot_image_costs_no_records(self):
        """A 4 MiB image of 16,384 boot objects is built without a record each."""
        config = ExperimentConfig(collector="KG-W", seed=0, workload=ONE_OP, cache_capacity=0)
        system = build_system(config)
        tracemalloc.start()
        try:
            heap = build_instance(config, system, 0)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(heap.boot_ids) == 16_384 and heap.objects == {}
        assert peak < 512 * KIB


class TestAlloc:
    def test_bump_allocation_is_contiguous(self):
        heap, system = small_heap("KG-N")
        a = heap.alloc_object(1, 20, 2)
        b = heap.alloc_object(2, 100, 0)
        assert a.addr == heap.nursery.lo
        assert a.size == 32  # padded to 16B header + 2 slots, 8B aligned
        assert b.addr == a.addr + 32
        assert b.size == align8(100)
        assert per_key(system.counters.written, heap)[(0, MemoryKind.DRAM, NURSERY)] == 32 + 104

    def test_zeroing_toggle(self):
        heap, system = small_heap("KG-N", zeroing=False)
        heap.alloc_object(1, 64, 0)
        counters = system.counters
        assert per_key(counters.written, heap) == per_key(counters.demand, heap) == {}
        assert per_key(counters.read, heap) == {}

    def test_large_goes_to_los(self):
        heap, _ = small_heap("KG-N")  # loo off
        rec = heap.alloc_object(1, 8 * KIB, 0)
        assert rec.large and rec.space.name == LOS_PCM
        assert in_half(heap.layout, MemoryKind.PCM, rec.addr)
        assert heap.spaces[LOS_PCM].allocated_bytes == 8 * KIB

    def test_large_hint_forces_los(self):
        heap, _ = small_heap("KG-N")
        rec = heap.alloc_object(1, 100, 0, large_hint=True)
        assert rec.large and rec.space.name == LOS_PCM

    def test_loo_admits_small_large_objects(self):
        # admission cap is nursery/8 = 8 KiB, exactly the large threshold
        heap, _ = small_heap("KG-W", nursery=64 * KIB)
        rec = heap.alloc_object(1, 8 * KIB, 0)
        assert rec.large and rec.space.name == NURSERY

    def test_loo_respects_the_size_cap(self):
        heap, _ = small_heap("KG-W", nursery=64 * KIB)
        rec = heap.alloc_object(1, 9 * KIB, 0)  # over nursery/8
        assert rec.space.name == LOS_PCM

    def test_alloc_id_rules(self):
        heap, _ = small_heap("KG-N")
        heap.alloc_object(1, 64, 0)
        with pytest.raises(TraceError):
            heap.alloc_object(1, 64, 0)  # reuse
        with pytest.raises(TraceError):
            heap.alloc_object(0, 64, 0)
        with pytest.raises(TraceError):
            heap.alloc_object(-5, 64, 0)
        with pytest.raises(TraceError):
            heap.alloc_object(3, 0, 0)
        with pytest.raises(TraceError):
            heap.alloc_object(3, 64, -1)

    def test_a_reclaimed_id_cannot_be_allocated_again(self):
        heap, _ = small_heap("KG-N", nursery=8 * KIB, budget=1 * MIB, zeroing=False)
        heap.alloc_object(1, 2 * KIB, 0)  # dies young
        for oid in (2, 3, 4, 5):  # 5 finds the nursery full: a minor reclaims 1
            heap.alloc_object(oid, 2 * KIB, 0)
            heap.set_root(oid, True)
        assert [s.kind for s in heap.gc.collections] == ["minor"]
        assert 1 not in heap.objects
        with pytest.raises(TraceError, match="^id 1 was already allocated once$"):
            heap.alloc_object(1, 64, 0)
        heap.set_root(2, False)  # promoted by the minor, now dead
        heap.gc.collect_major()
        assert 2 not in heap.objects
        with pytest.raises(TraceError, match="^id 2 was already allocated once$"):
            heap.alloc_object(2, 64, 0)
        heap.alloc_object(6, 64, 0)  # a fresh id still allocates

    def test_object_exceeding_chunk_size(self):
        heap, _ = small_heap("KG-N")  # 64 KiB chunks
        with pytest.raises(HeapExhausted):
            heap.alloc_object(1, 70 * KIB, 0)

    def test_object_too_big_for_empty_nursery(self):
        # 5 KiB is below the raised large threshold, so it takes the small
        # path into a 4 KiB nursery and cannot ever fit
        heap, _ = small_heap("KG-N", nursery=4 * KIB, large_threshold=64 * KIB)
        with pytest.raises(HeapExhausted):
            heap.alloc_object(1, 5 * KIB, 0)


class TestMutatorOps:
    def test_data_write_and_read(self):
        heap, system = small_heap("KG-N", zeroing=False)
        rec = heap.alloc_object(1, 128, 0)
        heap.write_data(1, 16, 32)
        heap.read_data(1, 0, 8)
        assert rec.write_count == 1
        # without a cache, each op reaches memory byte for byte
        assert per_key(system.counters.written, heap) == {(0, MemoryKind.DRAM, NURSERY): 32}
        assert per_key(system.counters.read, heap) == {(0, MemoryKind.DRAM, NURSERY): 8}

    def test_bounds_checks(self):
        heap, _ = small_heap("KG-N")
        heap.alloc_object(1, 64, 0)
        heap.write_data(1, 0, 64)  # the padded extent is writable
        with pytest.raises(TraceError):
            heap.write_data(1, 60, 8)
        with pytest.raises(TraceError):
            heap.read_data(1, -1, 4)
        with pytest.raises(TraceError):
            heap.write_data(2, 0, 4)  # never allocated

    def test_a_read_names_a_boot_object(self):
        heap, system = small_heap("KG-N")
        assert -5 not in heap.objects
        heap.read_data(-5, 8, 16)
        rec = heap.objects[-5]
        assert rec.space.name == BOOT and rec.write_count == 0
        assert heap.named_boot_ids == [-5]
        assert per_key(system.counters.read, heap) == {(0, MemoryKind.DRAM, BOOT): 16}
        assert per_key(system.counters.written, heap) == {}

    def test_boot_objects_are_writable(self):
        heap, system = small_heap("KG-N")
        heap.write_data(-3, 0, 16)
        assert heap.objects[-3].write_count == 1
        assert per_key(system.counters.written, heap)[(0, MemoryKind.DRAM, BOOT)] == 16

    def test_ref_write_emits_one_line(self):
        heap, system = small_heap("KG-N", zeroing=False)
        heap.alloc_object(1, 64, 2)
        heap.alloc_object(2, 64, 0)
        heap.write_ref(1, 1, 2)
        parent = heap.objects[1]
        assert parent.refs == [0, 2]
        assert parent.write_count == 1
        # the barrier writes the one line holding the slot
        assert per_key(system.counters.written, heap) == {(0, MemoryKind.DRAM, NURSERY): 64}
        # both objects young: nothing to remember
        assert heap.remset == set()
        heap.write_ref(1, 1, 0)  # clearing a slot is fine
        assert parent.refs == [0, 0]

    def test_ref_write_charges_the_line_it_writes(self):
        heap, system = small_heap("KG-N", zeroing=False, cache_line=128)
        heap.alloc_object(1, 64, 2)
        before = system.now_ns
        heap.write_ref(1, 1, 0)
        assert system.now_ns - before == system.op_cost_ns + 128 * system.byte_cost_ns
        assert per_key(system.counters.written, heap) == {(0, MemoryKind.DRAM, NURSERY): 128}

    def test_ref_slot_validation(self):
        heap, _ = small_heap("KG-N")
        heap.alloc_object(1, 64, 1)
        with pytest.raises(TraceError):
            heap.write_ref(1, 1, 0)  # only slot 0 exists
        with pytest.raises(TraceError):
            heap.write_ref(1, 0, 99)  # dangling child

    def test_boot_to_young_ref_is_remembered(self):
        heap, _ = small_heap("KG-N")
        heap.alloc_object(7, 64, 0)
        heap.write_ref(-1, 0, 7)  # boot space is outside the young region
        assert heap.remset == {-1}

    def test_roots(self):
        heap, _ = small_heap("KG-N")
        heap.alloc_object(1, 64, 0)
        heap.set_root(1, True)
        assert 1 in heap.roots
        heap.set_root(1, False)
        heap.set_root(1, False)  # unrooting twice is harmless
        assert 1 not in heap.roots
        with pytest.raises(TraceError):
            heap.set_root(99, True)


class TestFrameBudget:
    """The Python frames one op enters on a live, non-boot object while no
    collection runs. A helper frame added back to an op fails here."""

    NAMES = {
        fn.__code__: name
        for name, fn in (
            ("alloc_object", HeapInstance.alloc_object),
            ("write_data", HeapInstance.write_data),
            ("read_data", HeapInstance.read_data),
            ("write_ref", HeapInstance.write_ref),
            ("set_root", HeapInstance.set_root),
            ("ObjectRecord.__init__", ObjectRecord.__init__),
            ("BumpSpace.alloc", BumpSpace.alloc),
            ("MemorySystem.access", MemorySystem.access),
        )
    }

    def frames(self, op, *args) -> list[str]:
        """The frames ``op(*args)`` enters, with no cyclic collection's frames among them."""
        entered = []

        def profile(frame, event, _arg):
            if event == "call":
                entered.append(self.NAMES.get(frame.f_code, frame.f_code.co_qualname))

        was_enabled = gc.isenabled()
        gc.disable()
        sys.setprofile(profile)
        try:
            op(*args)
        finally:
            sys.setprofile(None)
            if was_enabled:
                gc.enable()
        return entered

    @pytest.mark.parametrize("variant", ["KG-W", "PCM-Only"])
    def test_each_op_runs_in_its_budget(self, variant):
        heap, _ = small_heap(variant, cache_capacity=64 * KIB)
        heap.alloc_object(1, 64, 2)
        heap.alloc_object(2, 64, 0)
        access = "MemorySystem.access"
        assert self.frames(heap.alloc_object, 3, 96, 1) == [
            "alloc_object",
            "BumpSpace.alloc",
            "ObjectRecord.__init__",
            access,
        ]
        assert self.frames(heap.write_data, 1, 16, 8) == ["write_data", access]
        assert self.frames(heap.read_data, 2, 0, 32) == ["read_data", access]
        assert self.frames(heap.write_ref, 1, 1, 2) == ["write_ref", access]
        assert self.frames(heap.write_ref, 1, 1, 0) == ["write_ref", access]
        assert self.frames(heap.set_root, 1, True) == ["set_root"]
        assert self.frames(heap.set_root, 1, False) == ["set_root"]
        assert heap.gc.collections == []

    @pytest.mark.parametrize("variant", ["KG-W", "PCM-Only"])
    def test_the_first_access_under_a_new_space_and_instance_runs_in_its_budget(self, variant):
        # a built heap adds one key per space, ids apart from every other
        # heap's, and no op adds one
        config = small_config(variant, cache_capacity=64 * KIB, instances=2)
        system = build_system(config)
        counters = system.counters
        first = build_instance(config, system, 0)
        second = build_instance(config, system, 1)
        assert [*first.spaces] == [*second.spaces] == [*make_space_map(config.variant)]
        n_keys = 2 * len(first.spaces)
        assert [space.kid for heap in (first, second) for space in heap.spaces.values()] == [*range(n_keys)]
        for heap in (second, first):
            assert self.frames(heap.alloc_object, 1, 64, 0) == [
                "alloc_object",
                "BumpSpace.alloc",
                "ObjectRecord.__init__",
                "MemorySystem.access",
            ]
            heap.alloc_object(2, 16 * KIB, 0)  # large: los-pcm
            heap.write_data(2, 0, 64)
            heap.read_data(-1, 0, 8)
            heap.write_ref(-1, 0, 1)
            heap.set_root(1, True)
            assert heap.gc.collections == []
        assert [len(counts) for counts in (counters.written, counters.read, counters.demand, counters.absorbed)] == [
            n_keys
        ] * 4

    @pytest.mark.parametrize("variant", ["KG-W", "PCM-Only"])
    def test_a_write_that_evicts_a_dirty_line_runs_in_its_budget(self, variant):
        # one direct-mapped line: every miss evicts the line before it
        heap, system = small_heap(variant, cache_capacity=64, cache_assoc=1)
        heap.alloc_object(1, 64, 0)
        heap.alloc_object(2, 64, 0)  # evicts object 1's line and leaves its own dirty
        written_back = system.counters.writebacks
        assert self.frames(heap.write_data, 1, 16, 8) == ["write_data", "MemorySystem.access"]
        assert system.counters.writebacks == written_back + 1
        assert heap.gc.collections == []

    @pytest.mark.parametrize("variant", ["KG-W", "PCM-Only"])
    def test_long_ops_enter_the_frames_of_short_ones(self, variant):
        heap, system = small_heap(variant, cache_capacity=64 * KIB)
        # more lines than sets, so the zeroing and the write each wrap past
        # the last set at any alignment and walk a second slice of the sets
        long = (system.cache.n_sets + 1) * system.cache.line_size
        demand = system.counters.demand
        zeroed = sum(demand)
        assert self.frames(heap.alloc_object, 1, long, 0) == [
            "alloc_object",
            "BumpSpace.alloc",
            "ObjectRecord.__init__",
            "MemorySystem.access",
        ]
        assert sum(demand) - zeroed >= long
        assert self.frames(heap.write_data, 1, 0, long) == ["write_data", "MemorySystem.access"]
        assert heap.gc.collections == []

    @pytest.mark.parametrize("variant", ["KG-W", "PCM-Only"])
    def test_a_long_write_that_evicts_dirty_lines_runs_in_its_budget(self, variant):
        # direct-mapped, with objects of more lines than sets: the second
        # object's zeroing leaves a dirty line of its own in every set, and
        # the first's write, which wraps past the last set, evicts them all
        # and then one of its own
        heap, system = small_heap(variant, cache_capacity=16 * 64, cache_assoc=1)
        n_sets = system.cache.n_sets
        long = (n_sets + 1) * system.cache.line_size
        for oid in (1, 2):
            heap.alloc_object(oid, long, 0)
        written_back = system.counters.writebacks
        assert self.frames(heap.write_data, 1, 0, long) == ["write_data", "MemorySystem.access"]
        assert system.counters.writebacks >= written_back + n_sets + 1
        assert heap.gc.collections == []


def test_mature_occupancy_ignores_metadata():
    heap, _ = small_heap("KG-W", nursery=64 * KIB, budget=512 * KIB)
    heap.alloc_object(1, 9 * KIB, 0)  # over the admission cap: lands in los-pcm
    heap.set_root(1, True)
    heap.gc.collect_major()
    meta = heap.spaces[META_DRAM].allocated_bytes
    assert meta == 16  # the one live PCM resident got a DRAM shadow mark slot
    payload = sum(s.allocated_bytes for s in heap.free_list_spaces if s.name != META_DRAM)
    assert heap.mature_occupancy() == payload == 9 * KIB


@pytest.mark.parametrize("variant", ["KG-W", "KG-N", "PCM-Only"])
def test_free_list_space_out_of_chunks_is_heap_exhausted(variant):
    heap, _ = small_heap(variant)
    reserve_every_free_chunk(heap)
    assert variant != "KG-W" or META_DRAM in heap.spaces
    for space in heap.free_list_spaces:
        with pytest.raises(HeapExhausted):
            space.alloc(META_SLOT_SIZE)


def test_mark_slot_out_of_chunks_is_heap_exhausted():
    heap, _ = small_heap("KG-W", nursery=64 * KIB, budget=512 * KIB)
    heap.alloc_object(1, 9 * KIB, 0)  # over the admission cap: lands in los-pcm
    heap.set_root(1, True)
    reserve_every_free_chunk(heap)
    with pytest.raises(HeapExhausted):
        heap.gc.collect_major()  # the PCM resident's DRAM mark slot has no chunk


def test_instance_id_must_fit_the_cache_tag():
    config = small_config("KG-W", instances=3)
    system = build_system(config)
    last = config.instances - 1
    assert build_instance(config, system, last).instance_id == last
    for bad in (-1, config.instances):
        with pytest.raises(ConfigError):
            build_instance(config, system, bad)
