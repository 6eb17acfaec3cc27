"""Collector live sets must match reachability computed without the collector."""

import random

import pytest

from hybridgc.collectors import build_instance
from hybridgc.config import Collector
from hybridgc.harness import build_system
from hybridgc.workloads import Alloc, RootOp, WriteOp

from gc_reference import apply_op, check_collections, check_spaces, random_ops
from support import KIB, MIB, small_config

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
    hot_ops = [Alloc(hot, 16 * KIB, 0, True), RootOp(hot)]
    hot_ops += [WriteOp(hot, 0, 8)] * config.large_relocation_threshold
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
