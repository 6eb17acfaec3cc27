"""The benchmark's outside-in tracer must keep seeing every layer.

``perfbench/tracer.py`` patches public functions and methods by name. A
refactor that moves a call off a patched boundary would silently blind
it, so these checks reconcile its counts with the simulator's own.
"""

import importlib.util
import os

import pytest

from hybridgc import harness
from hybridgc.config import ExperimentConfig
from hybridgc.harness import config_for_archetype
from hybridgc.workloads import default_spec, generate, serialize_trace

from support import KIB, MIB

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")

# Per side: (memory.access.calls, memory.access.lines), recorded once a
# collection copied each group of adjacent survivors as one read and one
# write.
PINNED_ACCESS = {
    "PCM-Only": (19_539, 85_239),
    "KG-W": (30_795, 128_664),
}


# Per side of the pair that runs majors: (major collections,
# memory.access.calls, memory.access.lines, collectors.mark_writes,
# collectors.mark_writes_pcm), recorded while every boot object still
# had a record built at heap construction; the access calls and lines
# re-recorded once a collection copied each group of adjacent survivors
# as one read and one write.
PINNED_MAJOR = {
    "PCM-Only": (1, 31_015, 859_546, 16_962, 16_962),
    "KG-W": (4, 83_512, 1_060_344, 68_045, 0),
}

# Per side of the same pair: (address_space.reserve.calls,
# address_space.release.calls) and the report's (llc_fills,
# llc_writebacks, pcm_write_bytes, dram_write_bytes), recorded while each
# chunk still had a descriptor object. Both sides release chunks, so a
# change to chunk recycling that moves an address shows here.
PINNED_CHUNKS = {
    "PCM-Only": ((162, 4), (141_792, 141_772, 9_073_408, 0)),
    "KG-W": ((122, 17), (203_793, 188_722, 8_298_752, 3_779_456)),
}

# Per side of each pair: (memory.drain.lines, memory.writebacks), recorded
# while the drain still decoded each dirty line's instance and kind from
# its line key.
PINNED_DRAIN = {
    "PCM-Only": (1_331, 45_804),
    "KG-W": (1_328, 62_207),
}
PINNED_MAJOR_DRAIN = {
    "PCM-Only": (2_003, 832_332),
    "KG-W": (2_003, 957_219),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def trace_pair(archetype: str, heap_budget: int):
    config = config_for_archetype(
        archetype,
        "KG-W",
        7,
        op_count=12_000,
        instances=2,
        nursery_size=128 * KIB,
        heap_budget=heap_budget,
        chunk_size=256 * KIB,
        cache_capacity=128 * KIB,
    )
    return run_traced(config)


def run_traced(config):
    tracer = load_tracer()()
    tracer.install()
    try:
        pair = harness.run_baseline_pair(config)
    finally:
        tracer.uninstall()
    return tracer, pair


@pytest.fixture(scope="module")
def traced_pair():
    return trace_pair("mature-mutation", 4 * MIB)


REPLAY_OPS = 6_000

# Per side of the replay pair: (memory.access.calls, memory.access.lines),
# recorded while each instance still drove a heap of its own.
PINNED_REPLAY_ACCESS = {
    "PCM-Only": (8_086, 15_352),
    "KG-W": (8_086, 15_352),
}


@pytest.fixture(scope="module")
def traced_replay_pair(tmp_path_factory):
    """Two instances replay one recorded churn trace, parsed once per side."""
    path = tmp_path_factory.mktemp("replay") / "churn.trace"
    with open(path, "w", encoding="utf-8") as fh:
        serialize_trace(generate(default_spec("nursery-churn", op_count=REPLAY_OPS, seed=11)), fh)
    return run_traced(ExperimentConfig(collector="KG-W", seed=11, trace_path=str(path), instances=2))


@pytest.fixture(scope="module")
def traced_major_pair():
    """Both sides run majors, which mark the whole boot image."""
    return trace_pair("large-object-graph", 12 * MIB)


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
    assert metrics["memory.fills"] > 0
    assert (metrics["memory.drain.lines"], metrics["memory.writebacks"]) == PINNED_DRAIN[side]


@pytest.mark.parametrize("side", sorted(PINNED_MAJOR))
def test_tracer_pins_major_collection_traffic(traced_major_pair, side):
    tracer, pair = traced_major_pair
    report = pair.baseline if side == "PCM-Only" else pair.variant
    assert report.collector == side and not report.failed
    metrics = tracer.metrics(side)
    majors, calls, lines, marks, marks_pcm = PINNED_MAJOR[side]
    assert metrics["collectors.major.calls"] == report.aggregate.major_collections == majors
    assert (metrics["memory.access.calls"], metrics["memory.access.lines"]) == (calls, lines)
    assert (metrics["collectors.mark_writes"], metrics["collectors.mark_writes_pcm"]) == (marks, marks_pcm)
    assert (metrics["memory.drain.lines"], metrics["memory.writebacks"]) == PINNED_MAJOR_DRAIN[side]
    chunk_calls, traffic = PINNED_CHUNKS[side]
    assert (metrics["address_space.reserve.calls"], metrics["address_space.release.calls"]) == chunk_calls
    agg = report.aggregate
    assert (report.llc_fills, report.llc_writebacks, agg.pcm_write_bytes, agg.dram_write_bytes) == traffic


@pytest.mark.parametrize("side", ["KG-W", "PCM-Only"])
def test_tracer_sees_the_replay_parse(traced_replay_pair, side):
    tracer, pair = traced_replay_pair
    report = pair.baseline if side == "PCM-Only" else pair.variant
    assert report.collector == side and not report.failed
    metrics = tracer.metrics(side)
    assert metrics["workloads.parse.ops"] == REPLAY_OPS
    assert tracer.totals[(side, "workloads.parse")][0] == 1  # calls
    # both instances replay one trace, so one heap pass serves both; each walks the cache
    heap_calls = sum(metrics[f"heap.{op}.calls"] for op in ("alloc", "write", "read", "ref", "root"))
    assert heap_calls * 2 == report.aggregate.ops_executed == 2 * REPLAY_OPS
    assert (metrics["memory.access.calls"], metrics["memory.access.lines"]) == PINNED_REPLAY_ACCESS[side]


COLLECTING_REPLAY_OPS = 8_000
COLLECTING_REPLAY_INSTANCES = 2

# Per side of the collecting replay pair: (minor, observer) collections
# in the report, summed over both instances.
PINNED_COLLECTING_REPLAY = {
    "PCM-Only": (14, 0),
    "KG-W": (14, 6),
}


@pytest.fixture(scope="module")
def traced_collecting_replay_pair(tmp_path_factory):
    """Two instances replay one recorded trace that fills the nursery, so one heap pass collects for both."""
    path = tmp_path_factory.mktemp("replay") / "mature.trace"
    with open(path, "w", encoding="utf-8") as fh:
        serialize_trace(generate(default_spec("mature-mutation", op_count=COLLECTING_REPLAY_OPS, seed=3)), fh)
    config = ExperimentConfig(
        collector="KG-W",
        seed=3,
        trace_path=str(path),
        instances=COLLECTING_REPLAY_INSTANCES,
        nursery_size=64 * KIB,
        heap_budget=1 * MIB,
        chunk_size=64 * KIB,
        quantum=500,
    )
    return run_traced(config)


@pytest.mark.parametrize("side", sorted(PINNED_COLLECTING_REPLAY))
def test_tracer_reconciles_a_collecting_replay(traced_collecting_replay_pair, side):
    """The lead heap's collections, times the instances, are the report's; every heap's records are counted."""
    tracer, pair = traced_collecting_replay_pair
    report = pair.baseline if side == "PCM-Only" else pair.variant
    assert report.collector == side and not report.failed
    metrics = tracer.metrics(side)
    agg = report.aggregate
    assert (agg.minor_collections, agg.observer_collections) == PINNED_COLLECTING_REPLAY[side]
    assert metrics["collectors.young.calls"] * COLLECTING_REPLAY_INSTANCES == agg.minor_collections
    assert metrics["collectors.observer.count"] == agg.observer_collections
    assert metrics["workloads.parse.ops"] == COLLECTING_REPLAY_OPS
