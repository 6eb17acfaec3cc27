"""Builders shared by the test modules."""

from hybridgc.config import CollectorConfig
from hybridgc.collectors import build_instance
from hybridgc.memory import CacheModel, MemorySystem, SimClock, TrafficCounters

KIB = 1024
MIB = 1024 * KIB


def make_system(heap_size: int, cache_capacity: int = 0) -> MemorySystem:
    """A memory system whose split matches a base-0 heap of heap_size: 16-way, 64 B lines."""
    cache = CacheModel(cache_capacity, 16, 64, heap_size // 2)
    return MemorySystem(cache, TrafficCounters(), SimClock())


def small_heap(
    variant: str,
    *,
    nursery: int = 64 * KIB,
    budget: int = 512 * KIB,
    observer_multiplier: float = 2.0,
    heap_size: int = 8 * MIB,
    chunk_size: int = 64 * KIB,
    boot_size: int = 16 * KIB,
    boot_object_size: int = 256,
    cache_capacity: int = 0,
    zeroing: bool = True,
    **config_kwargs,
):
    """A deliberately tiny heap so collections happen within a few ops."""
    config = CollectorConfig(
        variant=variant,
        nursery_size=nursery,
        heap_budget=budget,
        observer_multiplier=observer_multiplier,
        **config_kwargs,
    )
    system = make_system(heap_size, cache_capacity)
    heap = build_instance(
        config,
        system,
        heap_size=heap_size,
        chunk_size=chunk_size,
        boot_size=boot_size,
        boot_object_size=boot_object_size,
        zeroing=zeroing,
    )
    return heap, system


def resident_lines(cache) -> int:
    """Lines currently held in ``cache``'s sets, clean or dirty."""
    return sum(len(cset) for cset in cache.sets)


def reserve_every_free_chunk(heap) -> None:
    """Leave both halves of ``heap`` without a free chunk.

    The heap holds the taken chunks as it holds its fixed spaces' chunks,
    so its chunk partition check still passes.
    """
    layout = heap.layout
    for free_list in (layout.pcm, layout.dram):
        while free_list.free_indices:
            heap.reserved.add(free_list.reserve("filler"))
