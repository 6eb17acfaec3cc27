"""Builders shared by the test modules."""

import gc
import sys

from hybridgc.collectors import build_instance
from hybridgc.config import ExperimentConfig
from hybridgc.harness import build_system
from hybridgc.workloads import WorkloadSpec

KIB = 1024
MIB = 1024 * KIB

# Heaps built here are driven op by op, so their config's op source is never read.
ONE_OP = WorkloadSpec("nursery-churn", op_count=1)


def small_config(
    variant: str,
    *,
    nursery: int = 64 * KIB,
    budget: int = 512 * KIB,
    heap_size: int = 8 * MIB,
    chunk_size: int = 64 * KIB,
    boot_size: int = 16 * KIB,
    cache_capacity: int = 0,
    **overrides,
) -> ExperimentConfig:
    """A deliberately tiny heap's config, so collections happen within a few ops."""
    return ExperimentConfig(
        collector=variant,
        seed=0,
        workload=ONE_OP,
        nursery_size=nursery,
        heap_budget=budget,
        heap_size=heap_size,
        chunk_size=chunk_size,
        boot_size=boot_size,
        cache_capacity=cache_capacity,
        **overrides,
    )


def small_heap(variant: str, **config_kwargs):
    """Instance 0 of ``small_config(variant, **config_kwargs)`` and its memory system."""
    config = small_config(variant, **config_kwargs)
    system = build_system(config)
    return build_instance(config, system, 0), system


def per_key(counts, *heaps) -> dict:
    """The nonzero entries of ``counts``, a ``TrafficCounters`` count list, by ``(instance, kind, space)``.

    Only a heap knows what its key ids stand for: each one is named
    through the space of the heap that added it.
    """
    return {
        (heap.instance_id, space.kind, name): counts[space.kid]
        for heap in heaps
        for name, space in heap.spaces.items()
        if counts[space.kid]
    }


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


def entered_codes(fn, *args) -> tuple[object, list]:
    """``fn(*args)`` and the code object of every Python frame it enters,
    in order; a builtin ``fn`` enters none itself. The cyclic collector is
    paused meanwhile: the ``gc.callbacks`` a collection runs (a library
    such as hypothesis adds some) are not frames that ``fn`` enters."""
    entered = []

    def profile(frame, event, _arg):
        if event == "call":
            entered.append(frame.f_code)

    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    return result, entered
