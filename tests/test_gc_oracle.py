"""Collector live sets must match reachability computed without the collector,
and its grouped copies must leave the cache as per-copy copies would."""

import random
from functools import partial

import pytest

from hybridgc.collectors import build_instance
from hybridgc.config import Collector
from hybridgc.errors import HeapExhausted
from hybridgc.harness import build_system
from hybridgc.workloads import ALLOC, ROOT, WRITE

from gc_reference import apply_op, check_collections, check_spaces, random_ops, reference_move
from support import KIB, MIB, small_config, small_heap

# Seed k runs VARIANTS[k]; every collector variant is covered.
VARIANTS = ("KG-W", "KG-N", "PCM-Only", "KG-N+LOO", "KG-W-MDO", "KG-B", "KG-B+LOO", "KG-W-LOO")


def test_every_collector_variant_is_listed():
    assert sorted(VARIANTS) == sorted(c.value for c in Collector)


@pytest.mark.parametrize("seed", range(len(VARIANTS)))
def test_live_sets_match_shadow_reachability(seed):
    variant = VARIANTS[seed]
    checks = check_collections(seed, variant)
    assert checks["minor"] >= 3
    assert checks["major"] >= 1


def test_every_variant_is_exercised_with_majors():
    for i, variant in enumerate(VARIANTS):
        checks = check_collections(100 + i, variant)
        assert checks["major"] >= 1, variant


@pytest.mark.parametrize("variant", VARIANTS)
def test_records_point_at_their_own_heaps_spaces(variant):
    """Two heaps on one system each run a random trace, after a large object
    written up to the relocation threshold. After every collection, each
    record's space is its own heap's space object and is young exactly when
    the record's address is in the young region (``check_spaces``), and
    the two heaps' counter key ids are distinct."""
    collector = Collector.from_name(variant)
    config = small_config(
        variant,
        nursery=(64 * KIB // collector.nursery_multiplier) & ~7,
        observer_multiplier=1.0,
        budget=1 * MIB,
        heap_size=16 * MIB,
        zeroing=False,
        instances=2,
    )
    system = build_system(config)
    heaps = [build_instance(config, system, i) for i in (0, 1)]
    kids = [space.kid for heap in heaps for space in heap.spaces.values()]
    assert len(set(kids)) == len(kids)
    hot = 100_000  # above every id of the random trace
    hot_ops = [(ALLOC, hot, 16 * KIB, 0, True), (ROOT, hot)]
    hot_ops += [(WRITE, hot, 0, 8)] * config.large_relocation_threshold
    for seed, heap in enumerate(heaps):
        collections = 0
        for op in hot_ops + random_ops(random.Random(seed), 1000, len(heap.boot_ids)):
            apply_op(heap, op)
            if len(heap.gc.collections) > collections:
                collections = len(heap.gc.collections)
                check_spaces(heap)
        heap.gc.collect_major()
        check_spaces(heap)
    stats = [st for heap in heaps for st in heap.gc.collections]
    kinds = {st.kind for st in stats}
    assert {"minor", "major"} <= kinds
    assert ("observer" in kinds) == collector.is_write_sampling
    assert (sum(st.large_relocated for st in stats) > 0) == collector.loo


# Cache geometries of the copy-group check, (sets, ways): 1 to 8 sets, 1 to 4 ways.
GROUP_GEOMETRIES = [(1, 1), (2, 4), (3, 2), (4, 1), (5, 3), (6, 4), (7, 2), (8, 3), (8, 1), (4, 2)]


def cache_state(system) -> tuple:
    """Everything grouped copies keep exact: each set's keys, held ids and
    LRU order, the traffic counts, the clock, and ``demand - absorbed`` per key."""
    c = system.counters
    return (
        [list(cset.items()) for cset in system.cache.sets],
        list(c.written),
        list(c.read),
        c.fills,
        c.writebacks,
        system.now_ns,
        [d - a for d, a in zip(c.demand, c.absorbed)],
    )


def check_grouped_copies(seed: int, variant: str, **config_kwargs) -> tuple[set, int, int]:
    """Run one random trace on two heaps, one with grouped copies and one
    with ``reference_move``, comparing ``cache_state`` after every op that
    collected, up to the end of the trace or the heap's exhaustion. Returns
    the kinds of collection compared and each heap's summed ``demand``:
    grouping drops a line two adjacent copies share, so the grouped sum is
    the smaller by those lines."""
    multiplier = Collector.from_name(variant).nursery_multiplier
    kwargs = dict(nursery=(16 * KIB // multiplier) & ~7, budget=256 * KIB, heap_size=8 * MIB, chunk_size=32 * KIB)
    kwargs.update(boot_size=4 * KIB, **config_kwargs)
    grouped, grouped_system = small_heap(variant, **kwargs)
    reference, reference_system = small_heap(variant, **kwargs)
    reference.gc._move = partial(reference_move, reference.gc)
    compared = 0
    for op in random_ops(random.Random(seed), 600, len(grouped.boot_ids)):
        outcomes = []
        for heap in (grouped, reference):
            try:
                apply_op(heap, op)
                outcomes.append(None)
            except HeapExhausted as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], (seed, variant, op)
        assert len(grouped.gc.collections) == len(reference.gc.collections)
        if len(grouped.gc.collections) > compared:
            compared = len(grouped.gc.collections)
            assert cache_state(grouped_system) == cache_state(reference_system), (seed, variant, compared)
        if outcomes[0] is not None:
            break
    kinds = {stats.kind for stats in grouped.gc.collections}
    return kinds, sum(grouped_system.counters.demand), sum(reference_system.counters.demand)


@pytest.mark.parametrize("variant", VARIANTS)
def test_grouped_copies_leave_the_cache_as_per_copy_copies(variant):
    """Every geometry wraps a copy past the last set; the 16 KiB nursery and
    observer offsets are whole set spans at 1, 2, 4 and 8 sets, where a
    KG-W minor copies into the sets it reads and the line two adjacent
    copies share splits them."""
    kinds = set()
    shared = 0
    for i, (n_sets, ways) in enumerate(GROUP_GEOMETRIES):
        seen, grouped, reference = check_grouped_copies(
            i, variant, cache_capacity=n_sets * ways * 64, cache_assoc=ways, cache_line=64
        )
        kinds |= seen
        shared += reference - grouped
    assert kinds == {"minor", "major"} | ({"observer"} if Collector.from_name(variant).is_write_sampling else set())
    assert shared > 0


@pytest.mark.parametrize("overrides", [{"cache_capacity": 0}, {"gc_traffic_through_cache": False}])
@pytest.mark.parametrize("variant", ["KG-W", "PCM-Only"])
def test_copies_without_the_cache_stay_per_copy(variant, overrides):
    """Without a cache, or when collector traffic bypasses it, each copy is a
    byte-exact read and write of its own, so ``demand`` is unchanged too."""
    cache = {"cache_capacity": 4 * 2 * 64, "cache_assoc": 2}
    kinds, grouped, reference = check_grouped_copies(0, variant, **{**cache, **overrides})
    assert "minor" in kinds
    assert grouped == reference
