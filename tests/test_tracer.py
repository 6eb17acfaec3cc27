"""The benchmark's outside-in tracer must keep seeing every layer.

``perfbench/tracer.py`` patches public functions and methods by name. A
refactor that moves a call off a patched boundary would silently blind
it, so these checks reconcile its counts with the simulator's own.
"""

import importlib.util
import os

import pytest

from hybridgc import harness
from hybridgc.harness import config_for_archetype

from support import KIB, MIB

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")

# Per side: (memory.access.calls, memory.access.lines), recorded before
# the cache walk moved into MemorySystem.access.
PINNED_ACCESS = {
    "PCM-Only": (32_299, 95_823),
    "KG-W": (46_323, 140_853),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


@pytest.fixture(scope="module")
def traced_pair():
    tracer = load_tracer()()
    config = config_for_archetype(
        "mature-mutation",
        "KG-W",
        7,
        op_count=12_000,
        instances=2,
        nursery_size=128 * KIB,
        heap_budget=4 * MIB,
        chunk_size=256 * KIB,
        cache_capacity=128 * KIB,
    )
    tracer.install()
    try:
        pair = harness.run_baseline_pair(config)
    finally:
        tracer.uninstall()
    return tracer, pair


@pytest.mark.parametrize("side", sorted(PINNED_ACCESS))
def test_tracer_reconciles_with_the_report(traced_pair, side):
    tracer, pair = traced_pair
    report = pair.baseline if side == "PCM-Only" else pair.variant
    assert report.collector == side and not report.failed
    metrics = tracer.metrics(side)
    heap_calls = sum(metrics[f"heap.{op}.calls"] for op in ("alloc", "write", "read", "ref", "root"))
    assert heap_calls == report.aggregate.ops_executed == 2 * 12_000
    assert metrics["collectors.young.calls"] == report.aggregate.minor_collections > 0
    # strict checks place every object once per minor and once per major
    placement_calls = tracer.totals[(side, "heap.check_placement")][0]
    assert placement_calls == report.aggregate.minor_collections + report.aggregate.major_collections
    calls, lines = PINNED_ACCESS[side]
    assert (metrics["memory.access.calls"], metrics["memory.access.lines"]) == (calls, lines)
    assert calls > 0 and lines > 0
    assert metrics["memory.fills"] > 0 and metrics["memory.drain.lines"] > 0
