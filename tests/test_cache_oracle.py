"""Event-stream equivalence between the cache walk and the brute-force reference.

The model side is ``MemorySystem.access``/``drain`` over a ``CacheModel``.
"""

import random

import pytest

from cache_reference import RefCache
from support import resident_lines
from hybridgc.memory import MAX_INSTANCES, CacheModel, MemorySystem, SimClock, TrafficCounters

LINE = 64

# (capacity_lines, assoc) pairs, all at most 8 lines total
SMALL_GEOMETRIES = [(1, 1), (2, 1), (2, 2), (4, 2), (4, 4), (8, 2), (8, 8), (6, 3)]


SHORT_LENGTHS = (1, 4, 8, 32, 64, 96, 200)
# 16 to 64 lines each, so one access wraps the sets of every geometry
LONG_LENGTHS = (15 * LINE + 2, 16 * LINE, 23 * LINE - 1, 31 * LINE + 7, 40 * LINE, 63 * LINE - 3)


def cached_system(lines, assoc, split, record_events=True):
    cache = CacheModel(lines * LINE, assoc, LINE, split, record_events=record_events)
    return MemorySystem(cache, TrafficCounters(), SimClock())


def run_pair(
    geometry,
    seed,
    n_accesses,
    instance_ids=(0, 1),
    addr_lines=32,
    split_lines=16,
    *,
    lengths=SHORT_LENGTHS,
    straddle=False,
    record_events=True,
):
    """Drive model and reference with one random access stream; compare.

    ``straddle`` makes every access cross the PCM/DRAM split.
    """
    lines, assoc = geometry
    split = split_lines * LINE
    model = cached_system(lines, assoc, split, record_events)
    ref = RefCache(lines * LINE, assoc, LINE, split)
    mc, rc = model.counters, TrafficCounters()
    rng = random.Random(seed)
    top = addr_lines * LINE
    for _ in range(n_accesses):
        inst = instance_ids[rng.randrange(len(instance_ids))]
        if straddle:
            addr = split - rng.randrange(1, 4 * LINE + 1)
            length = split - addr + rng.randrange(1, 4 * LINE + 1)
        else:
            addr = rng.randrange(top)
            length = rng.choice(lengths)
        length = min(length, top - addr)
        if length == 0:
            continue
        write = rng.random() < 0.5
        space = rng.choice(("a", "b"))
        model.access(inst, addr, length, write, space)
        ref.access(rc, inst, addr, length, write, space)
    assert model.drain() == ref.drain(rc)
    assert model.cache.events == (ref.events if record_events else [])
    assert mc.write_bytes == rc.write_bytes
    assert mc.read_bytes == rc.read_bytes
    assert mc.demand_write_bytes == rc.demand_write_bytes
    assert mc.absorbed_write_bytes == rc.absorbed_write_bytes
    assert mc.writeback_bytes == rc.writeback_bytes
    assert mc.fills == rc.fills and mc.writebacks == rc.writebacks
    assert resident_lines(model.cache) == ref.resident_lines()
    mc.check_write_conservation()
    return len(ref.events)


@pytest.mark.parametrize("geometry", SMALL_GEOMETRIES)
def test_model_matches_reference(geometry):
    for seed in (1, 2):
        run_pair(geometry, seed, 3_000)


def test_cyclic_writes_through_two_line_direct_mapped():
    """Three lines cycled through 2 direct-mapped lines thrash predictably."""
    model = cached_system(2, 1, split=1 << 30)
    ref = RefCache(2 * LINE, 1, LINE, split=1 << 30)
    rc = TrafficCounters()
    for _ in range(4):
        for line in (0, 1, 2):
            model.access(0, line * LINE, 8, True, "s")
            ref.access(rc, 0, line * LINE, 8, True, "s")
    assert model.cache.events == ref.events
    # lines 0 and 2 share set 0 and evict each other every round
    wbs = [e for e in model.cache.events if e[0] == "wb"]
    assert len(wbs) == 7
    assert {ln for (_k, _i, ln) in wbs} == {0, 2}


def test_full_oracle_load():
    """The acceptance-scale load: >= 1e5 accesses across 10 seeds."""
    total = 0
    for seed in range(10):
        geometry = SMALL_GEOMETRIES[seed % len(SMALL_GEOMETRIES)]
        total += run_pair(geometry, seed, 10_500)
    assert total >= 100_000


@pytest.mark.parametrize("geometry", SMALL_GEOMETRIES)
def test_long_accesses_wrap_the_sets(geometry):
    for seed in (3, 4):
        run_pair(geometry, seed, 400, addr_lines=160, split_lines=80, lengths=LONG_LENGTHS)


@pytest.mark.parametrize("geometry", SMALL_GEOMETRIES)
def test_accesses_straddling_the_split(geometry):
    for seed in (5, 6):
        run_pair(geometry, seed, 1_500, straddle=True)


def test_counters_match_reference_without_event_recording():
    """The production configuration records no events; its counters must still match."""
    geometry = (6, 3)
    for seed in (7, 8):
        run_pair(geometry, seed, 3_000, record_events=False)
        run_pair(geometry, seed, 300, addr_lines=160, split_lines=80, lengths=LONG_LENGTHS, record_events=False)
        run_pair(geometry, seed, 1_000, straddle=True, record_events=False)


@pytest.mark.parametrize("geometry", SMALL_GEOMETRIES)
def test_extreme_instance_ids_stay_apart(geometry):
    """Line keys pack the instance into 16 bits; the highest id must not alias."""
    ids = (0, 1, MAX_INSTANCES - 1, MAX_INSTANCES // 2)
    for seed in (9, 10):
        run_pair(geometry, seed, 1_500, instance_ids=ids)
        run_pair(geometry, seed, 1_000, instance_ids=ids, straddle=True)
