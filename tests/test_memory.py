import math

import pytest

from hybridgc.address_space import MemoryKind
from hybridgc.errors import ConfigError, InvariantError
from hybridgc.collectors import build_instance
from hybridgc.harness import build_system, config_for_archetype, run_experiment
from hybridgc.memory import (
    UNBOUNDED_YEARS,
    CacheModel,
    LifetimeModel,
    MemorySystem,
    TrafficCounters,
    lifetime_years,
)

from support import KIB, per_key, resident_lines, small_config, small_heap

# Frozen oracle values, computed as capacity * endurance * efficiency
# divided by rate * seconds-per-year with independent arithmetic:
#   32e9 * 1e7 * 0.5 = 1.6e17 total writable bytes
#   480e6 B/s * 31_557_600 s = 1.5147648e16 B/yr  -> 10.5627 yr
#   126e6 B/s * 31_557_600 s = 3.9762576e15 B/yr  -> 40.2388 yr
LIFETIME_AT_480MBS = 1.6e17 / 1.5147648e16
LIFETIME_AT_126MBS = 1.6e17 / 3.9762576e15


class TestLifetime:
    def test_reference_rates(self):
        assert lifetime_years(480e6) == pytest.approx(LIFETIME_AT_480MBS, rel=1e-12)
        assert lifetime_years(480e6) == pytest.approx(10.5627, abs=5e-4)
        assert lifetime_years(126e6) == pytest.approx(LIFETIME_AT_126MBS, rel=1e-12)
        assert lifetime_years(126e6) == pytest.approx(40.2388, abs=5e-4)

    def test_halving_the_rate_doubles_the_years(self):
        assert lifetime_years(240e6) == pytest.approx(2 * lifetime_years(480e6), rel=1e-12)

    def test_zero_rate_is_capped(self):
        assert lifetime_years(0.0) == UNBOUNDED_YEARS
        assert lifetime_years(1e-12) == UNBOUNDED_YEARS  # caps, stays finite

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            lifetime_years(-1.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ConfigError):
            lifetime_years(rate)

    def test_model_validation(self):
        with pytest.raises(ConfigError):
            LifetimeModel(capacity_bytes=0)
        with pytest.raises(ConfigError):
            LifetimeModel(wear_efficiency=0.0)
        with pytest.raises(ConfigError):
            LifetimeModel(wear_efficiency=1.5)
        for endurance in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                LifetimeModel(endurance_writes=endurance)

    @pytest.mark.parametrize("capacity", [10**400, 10**305], ids=["10**400", "10**305"])
    def test_writable_bytes_must_be_a_finite_float(self, capacity):
        # 10**400 does not convert to a float; 10**305 does, but its product is inf
        with pytest.raises(ConfigError, match="finite number of bytes"):
            LifetimeModel(capacity_bytes=capacity)

    def test_scales_with_model(self):
        half = LifetimeModel(capacity_bytes=16_000_000_000)
        assert lifetime_years(480e6, half) == pytest.approx(LIFETIME_AT_480MBS / 2, rel=1e-12)


class TestRate:
    """The write rate a report gives is its window's PCM bytes over its simulated seconds."""

    def test_one_gib_over_ten_seconds(self):
        config = config_for_archetype("mature-mutation", "PCM-Only", 3, op_count=5_000, instances=2, quantum=500)
        report = run_experiment(config)
        assert report.sim_seconds > 0
        for row in (*report.rows, report.aggregate):
            assert row.pcm_write_bytes > 0
            assert row.pcm_write_rate_bps == row.pcm_write_bytes / report.sim_seconds
            assert row.lifetime_years == lifetime_years(row.pcm_write_rate_bps, config.lifetime_model())

    def test_rate_undefined_without_time(self):
        # one quantum runs the whole trace, so the window opens after the
        # last op and holds no simulated time; the drain still writes PCM
        config = config_for_archetype(
            "mature-mutation", "PCM-Only", 3, op_count=2_000, quantum=10_000, warmup_fraction=0.5
        )
        report = run_experiment(config)
        assert not report.failed and report.sim_seconds == 0
        assert report.aggregate.pcm_write_bytes > 0
        for row in (*report.rows, report.aggregate):
            assert row.pcm_write_rate_bps is None and row.lifetime_years is None

    def test_collector_time_toggle(self):
        """Each mark of a major collection costs one op and a line's bytes, or nothing with collector time off."""
        for include_collector_time in (True, False):
            heap, system = small_heap("PCM-Only", include_collector_time=include_collector_time)
            heap.alloc_object(1, 64, 0)
            heap.set_root(1, True)
            mutator_ns = system.now_ns
            assert mutator_ns == 2 * system.op_cost_ns + 64 * system.byte_cost_ns
            stats = heap.gc.collect_major()  # PCM-Only copies nothing in a major: only marks cost time
            assert stats.mark_writes == 1 + 64  # the record and the 16 KiB boot image of 256 B objects
            expected = mutator_ns
            if include_collector_time:
                for _ in range(stats.mark_writes):
                    expected += system.op_cost_ns + system.cache.line_size * system.byte_cost_ns
            assert system.now_ns == expected


PCM, DRAM = MemoryKind.PCM, MemoryKind.DRAM


def system_over(capacity, assoc=16, gc_through=True, instances=1):
    """A memory system over a fresh cache of the given geometry (line 64 B), shared by ``instances``."""
    return MemorySystem(CacheModel(capacity, assoc, 64, instances), gc_traffic_through_cache=gc_through)


def one_set_cache(ways=2, instances=1):
    return system_over(ways * 64, ways, instances=instances)


class TestCacheModel:
    def test_geometry_validation(self):
        with pytest.raises(ConfigError):
            CacheModel(100, 2, 64)  # not whole sets
        with pytest.raises(ConfigError):
            CacheModel(-1, 2, 64)
        CacheModel(0, 2, 64)  # disabled cache is fine
        with pytest.raises(ConfigError):
            CacheModel(64, 1, 64, instances=0)  # every key would alias

    def test_write_coalescing(self):
        system = one_set_cache()
        counters = system.counters
        kid = counters.add_key()
        for _ in range(100):
            system.access(0, 0, 8, True, kid)
        assert counters.written == [0]  # nothing reached memory yet
        assert system.drain() == 1
        assert counters.written == [64]
        assert counters.demand == [100 * 64]
        assert counters.absorbed == [99 * 64]

    def test_straddling_write_touches_two_lines(self):
        system = one_set_cache()
        system.access(0, 60, 8, True, system.counters.add_key())
        assert system.counters.demand == [128]
        assert system.counters.fills == 2

    def test_lru_eviction_order(self):
        system = one_set_cache(ways=2)
        kid = system.counters.add_key()
        system.access(0, 0 * 64, 8, True, kid)  # line 0
        system.access(0, 1 * 64, 8, True, kid)  # line 1
        system.access(0, 0 * 64, 8, False, kid)  # touch 0: LRU is now 1
        system.access(0, 2 * 64, 8, True, kid)  # evicts line 1
        assert system.counters.writebacks == 1
        # with one set and one instance, a line's key is its index
        assert {*system.cache.sets[0]} == {0, 2}

    def test_reads_fill_without_writeback(self):
        system = one_set_cache(ways=1)
        counters = system.counters
        kid = counters.add_key()
        system.access(0, 0, 64, False, kid)
        system.access(0, 64, 64, False, kid)  # evicts clean line 0
        assert counters.read == [128]
        assert counters.written == [0]
        assert counters.writebacks == 0

    def test_split_classifies_lines(self):
        # a heap sends each access under its space's key, so lines below the
        # layout's split count as PCM and lines above it as DRAM
        heap, system = small_heap("KG-W", cache_capacity=64 * KIB, zeroing=False)
        heap.alloc_object(1, 64, 0)  # nursery, in the DRAM half
        heap.alloc_object(2, 16 * KIB, 0)  # large: los-pcm, in the PCM half
        assert heap.objects[1].addr >= heap.layout.dram.lo > heap.objects[2].addr
        heap.write_data(1, 0, 8)
        heap.write_data(2, 0, 8)
        assert system.drain() == 2
        assert per_key(system.counters.written, heap) == {(0, DRAM, "nursery"): 64, (0, PCM, "los-pcm"): 64}

    def test_instances_do_not_alias(self):
        system = one_set_cache(ways=2, instances=2)
        counters = system.counters
        system.access(0, 0, 8, True, counters.add_key())
        system.access(1, 0, 8, True, counters.add_key())  # same address, other program
        assert resident_lines(system.cache) == 2
        system.drain()
        assert counters.written == [64, 64]

    def test_highest_instance_does_not_alias_the_next_line(self):
        # keys are tag * instances + instance: on 3 instances, instance 2
        # on line 1 (set 1, tag 0) and instance 0 on line 3 (set 1, tag 1)
        # are neighbouring keys of one set, not the same one
        system = system_over(4 * 64, 2, instances=3)
        counters = system.counters
        system.access(2, 64, 8, True, counters.add_key())
        system.access(0, 3 * 64, 8, True, counters.add_key())
        assert [*system.cache.sets[1]] == [0 * 3 + 2, 1 * 3 + 0]
        assert resident_lines(system.cache) == 2
        assert system.drain() == 2
        assert counters.written == counters.demand == [64, 64]

    def test_lines_a_round_of_sets_apart_are_two_residents_of_one_set(self):
        # 4 sets of 2 ways: lines 1, 5 and 9 all map to set 1, under tags
        # 0, 1 and 2; instance 3 of 4 keys them 3, 7 and 11
        system = system_over(8 * 64, 2, instances=4)
        kid = system.counters.add_key()
        system.access(3, 64, 8, True, kid)  # line 1
        system.access(3, 5 * 64, 8, False, kid)  # line 5
        cset = system.cache.sets[1]
        assert [*cset.items()] == [(0 * 4 + 3, kid), (1 * 4 + 3, None)]
        system.access(3, 64, 8, False, kid)  # touch line 1: LRU is now line 5
        assert [*cset] == [1 * 4 + 3, 0 * 4 + 3]
        system.access(3, 9 * 64, 8, False, kid)  # line 9 evicts clean line 5
        assert [*cset] == [0 * 4 + 3, 2 * 4 + 3]
        assert resident_lines(system.cache) == 2
        assert system.counters.fills == 3 and system.counters.writebacks == 0

    def test_drain_is_idempotent_and_empties(self):
        system = one_set_cache()
        counters = system.counters
        kid = counters.add_key()
        system.access(0, 0, 8, True, kid)
        system.access(0, 64, 8, False, kid)  # a clean line
        assert system.drain() == 1
        # written back and invalidated: clean lines leave too
        assert resident_lines(system.cache) == 0
        assert system.drain() == 0
        # a write after the drain misses and fills its line again
        system.access(0, 0, 8, True, kid)
        assert counters.fills == 3
        assert system.drain() == 1
        assert counters.writebacks == 2
        assert counters.written == counters.demand == [128] and counters.absorbed == [0]

    def test_drain_decodes_instance_and_kind_of_each_line(self):
        # the id a dirty line holds is the key, and so the instance and
        # kind, that the drain counts it under
        # 2 sets of 4 ways: line 1 is set 1, tag 0 and line 2 set 0, tag 1
        system = system_over(8 * 64, 4, instances=301)
        counters = system.counters
        pcm, dram, span = counters.add_key(), counters.add_key(), counters.add_key()
        system.access(7, 64, 64, True, pcm)  # line 1
        system.access(300, 2 * 64, 64, True, dram)  # line 2
        system.access(5, 64 + 32, 64, True, span)  # lines 1 and 2, one key
        assert [[*cset.items()] for cset in system.cache.sets] == [
            [(1 * 301 + 300, dram), (1 * 301 + 5, span)],
            [(0 * 301 + 7, pcm), (0 * 301 + 5, span)],
        ]
        assert system.drain() == 4
        assert resident_lines(system.cache) == 0
        assert counters.written == [64, 64, 128]

    def test_dirty_lines_share_one_interned_key(self):
        system = system_over(8 * 64, 8)
        counters = system.counters
        kid = counters.add_key()
        other = counters.add_key()
        system.access(0, 0, 64, True, kid)
        system.access(0, 64, 3 * 64, True, kid)  # a second write run, same key
        system.access(0, 4 * 64, 64, False, other)  # a read leaves its line clean
        held = list(system.cache.sets[0].values())
        assert held == [kid, kid, kid, kid, None]
        # the held id is the index the line's fill was counted under, and
        # an access adds no key
        assert counters.read == [4 * 64, 64]
        assert counters.demand == [4 * 64, 0]

    def test_a_hit_stores_the_interned_key(self):
        # instance 999 of 1000 on line 5 (set 1, tag 1): key 1999, an int
        # that Python does not cache, so two accesses build two equal objects
        system = system_over(4 * 64, 1, instances=1000)
        kid = system.counters.add_key()
        system.access(999, 5 * 64, 8, True, kid)
        cache = system.cache
        [first] = cache.sets[1]
        assert first == 1999 and cache.keys[first] is first
        system.access(999, 5 * 64 + 8, 8, False, kid)  # a hit
        [stored] = cache.sets[1]
        assert stored is first and cache.keys == {1999: 1999}

    def test_the_key_table_holds_one_key_per_tag_and_instance_touched(self):
        # 4 sets of 4 ways: a 10-line run from line 2 wraps twice, over tags 0 to 2
        system = system_over(16 * 64, 4, instances=3)
        kid = system.counters.add_key()
        for _ in range(2):
            for inst in range(3):
                system.access(inst, 2 * 64, 10 * 64, inst == 1, kid)
        keys = system.cache.keys
        assert sorted(keys) == [tag * 3 + inst for tag in range(3) for inst in range(3)]
        assert all(keys[key] is key for key in keys)
        # every resident key is its table entry
        assert all(keys[key] is key for cset in system.cache.sets for key in cset)

    def test_drain_empties_the_sets_and_the_key_table(self):
        system = system_over(4 * 64, 2, instances=2)
        kid = system.counters.add_key()
        system.access(0, 0, 6 * 64, True, kid)
        system.access(1, 0, 64, False, kid)
        assert system.cache.keys
        system.drain()
        assert resident_lines(system.cache) == 0 and system.cache.keys == {}

    def test_passthrough_is_byte_exact(self):
        system = system_over(0)
        counters = system.counters
        kid = counters.add_key()
        system.access(0, 3, 5, True, kid)
        system.access(0, 1000, 7, False, kid)
        assert counters.written == counters.demand == [5]
        assert counters.read == [7]
        assert system.drain() == 0

    def test_zero_length_access_is_a_noop(self):
        system = one_set_cache()
        system.access(0, 0, 0, True, system.counters.add_key())
        assert system.counters.demand == [0]
        assert resident_lines(system.cache) == 0

    def test_zero_length_access_is_a_noop_on_every_path(self):
        for system, collector in (
            (system_over(0), False),
            (system_over(16 * 64, gc_through=False), True),
        ):
            counters = system.counters
            kid = counters.add_key()
            system.access(0, 0, 0, True, kid, collector=collector)
            system.access(0, 64, -8, False, kid, collector=collector)
            assert counters.written == counters.read == counters.demand == [0]


def two_heaps():
    """Instances 0 and 1 of one small KG-W config, on one memory system with a cache."""
    config = small_config("KG-W", cache_capacity=64 * KIB, instances=2)
    system = build_system(config)
    return [build_instance(config, system, i) for i in (0, 1)], system


def check_every_heap(heaps):
    """Each heap's write conservation check, in instance order, as a run makes them after its drain."""
    for heap in heaps:
        heap.check_write_conservation()


class TestCounters:
    def test_snapshot_diff(self):
        counters = TrafficCounters()
        a = counters.add_key()
        b = counters.add_key()
        counters.written[a] = 10
        counters.fills = 2
        base = counters.snapshot()
        assert base.written == counters.written == [10, 0] and base.fills == 2
        counters.written[a] += 7
        counters.read[b] = 3
        counters.fills += 1
        window = counters.diff(base)
        assert window.fills == 1
        assert window.written == [7, 0]
        assert window.read == [0, 3]
        assert base.written == [10, 0] and base.read == [0, 0]  # snapshot is unaffected

    def test_diff_counts_a_key_interned_after_the_snapshot_from_zero(self):
        system = system_over(16 * 64, 16)
        counters = system.counters
        system.access(0, 0, 64, True, counters.add_key())
        base = counters.snapshot()
        system.access(0, 8 * 64, 128, True, counters.add_key())
        system.drain()
        assert len(base.written) == 1 and len(counters.written) == 2
        window = counters.diff(base)
        assert window.demand == [0, 128]
        assert window.read == [0, 128]
        assert window.written == [64, 128]
        assert window.fills == 2 and window.writebacks == 3

    def test_conservation_violation_detected(self):
        (first, second), system = two_heaps()
        counters = system.counters
        kid = first.spaces["los-pcm"].kid
        counters.demand[kid] = 128
        counters.absorbed[kid] = 64
        with pytest.raises(InvariantError, match="not conserved") as failure:
            check_every_heap((first, second))
        assert failure.value.instance == 0
        # conservation holds per (instance, kind), not per key: the last
        # writer of a line may be another space than the one it absorbed
        counters.written[first.spaces["mature-pcm"].kid] = 64
        check_every_heap((first, second))
        # written-back bytes with no demand behind them break it too
        counters.written[second.spaces["nursery"].kid] = 64
        with pytest.raises(InvariantError, match="not conserved.* 0 demanded, 0 absorbed, 64 written back") as failure:
            check_every_heap((first, second))
        assert failure.value.instance == 1

    def test_conservation_groups_keys_interned_apart_and_names_the_first_broken_pair(self):
        heaps, system = two_heaps()
        counters = system.counters
        n_spaces = {}
        for heap in heaps:
            # each (instance, kind) has keys apart in the lists; its demand
            # is written back under its last space
            for kind in (PCM, DRAM):
                spaces = [space for space in heap.spaces.values() if space.kind is kind]
                for space in spaces:
                    counters.demand[space.kid] = 64
                counters.written[spaces[-1].kid] = len(spaces) * 64
                n_spaces[kind] = len(spaces)
        assert n_spaces == {PCM: 2, DRAM: 6}
        check_every_heap(heaps)
        first, second = heaps
        for heap, space in ((second, "nursery"), (second, "los-pcm"), (first, "observer"), (first, "mature-pcm")):
            counters.absorbed[heap.spaces[space].kid] = 64
        with pytest.raises(InvariantError) as failure:
            check_every_heap(heaps)
        # instance 0 before instance 1, and DRAM before PCM
        assert str(failure.value) == (
            f"write bytes not conserved for {(0, DRAM)}: 384 demanded, 64 absorbed, 384 written back"
        )
        assert failure.value.instance == 0
        counters.absorbed[first.spaces["observer"].kid] = 0
        with pytest.raises(InvariantError, match=rf"not conserved for \(0, {PCM!r}\)"):
            check_every_heap(heaps)
        counters.absorbed[first.spaces["mature-pcm"].kid] = 0
        with pytest.raises(InvariantError, match=rf"not conserved for \(1, {DRAM!r}\)") as failure:
            check_every_heap(heaps)
        assert failure.value.instance == 1


class TestMemorySystem:
    def test_collector_bypass(self):
        system = system_over(16 * 64, gc_through=False)
        counters = system.counters
        kid = counters.add_key()
        system.access(0, 0, 8, True, kid, collector=True)
        # bypassed traffic reaches memory immediately, byte-exact
        assert counters.written == [8]
        system.access(0, 0, 8, True, kid, collector=False)
        assert counters.written == [8]  # cached
        system.drain()
        assert counters.written == counters.demand == [8 + 64]
