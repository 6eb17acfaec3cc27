"""Experiment orchestration: scheduling, measurement windows, reports.

A run builds N heap instances over one shared ``MemorySystem`` (cache,
counters and simulated clock) and plays their op streams in rounds: in
each round every instance runs a slice of a fixed quantum of ops, in
instance order. It excludes a warm-up prefix from the counters, drains
the cache, and reports per-instance and aggregate traffic. Reports
serialize to JSON or CSV and are byte-stable for a given configuration
and seed. A run's ``ExperimentConfig`` lives in :mod:`hybridgc.config`;
this module re-exports it.

Instances with streams of their own (an archetype's, from derived
seeds) each drive their own heap. Instances that all replay one trace
share one heap pass: the cache never feeds back into a heap, so heap
state, collections and every access depend on the op stream alone.
A heap uses its memory system only through ``access`` and ``now_ns``,
so for the whole run instance 0's heap sends both to a ``_Recorder``
instead. It runs each slice once, and every instance then walks the
recorded clock advances and accesses through the real ``MemorySystem``
under its own instance id and counter keys. The shared cache and clock
see what N heaps would have sent, in the same order, so the report is
the same.

A replay parses its whole trace before the first op, and the one heap
that applies the ops takes each out of the parsed list as it goes, so a
record is freed once applied and no record is ever written.
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import io
import json
from dataclasses import dataclass, field, replace
from functools import partial, reduce
from itertools import repeat, starmap
from operator import add
from typing import Iterator

from .address_space import MemoryKind
from .collectors import build_instance
from .config import Collector, ExperimentConfig
from .errors import ConfigError, InvariantError, SimulatorError
from .heap import HeapInstance
from .memory import CacheModel, LifetimeModel, MemorySystem, TrafficCounters, lifetime_years
from .workloads import _ARCHETYPES, default_spec, drive, generate, load_trace


def derive_seed(master: int, index: int) -> int:
    """Stable per-instance seed; instances must not share RNG streams."""
    return (master * 6364136223846793005 + (index + 1) * 1442695040888963407) % (1 << 63)


def config_for_archetype(
    archetype: str, collector: str, seed: int, op_count: int | None = None, **overrides
) -> ExperimentConfig:
    """An ExperimentConfig with the archetype's natural heap parameters."""
    spec = default_spec(archetype, op_count=op_count, seed=seed)
    base = dict(
        collector=collector,
        seed=seed,
        workload=spec,
        heap_budget=_ARCHETYPES[archetype][2],
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@dataclass
class InstanceReport:
    instance: str  # index as text, or "all" for the aggregate row
    workload: str
    ops_executed: int
    pcm_write_bytes: int
    dram_write_bytes: int
    pcm_read_bytes: int
    dram_read_bytes: int
    pcm_write_rate_bps: float | None
    lifetime_years: float | None
    minor_collections: int
    observer_collections: int
    major_collections: int
    copied_bytes: int
    mark_writes: int
    mark_writes_pcm: int
    large_relocations: int
    pcm_write_bytes_by_space: dict[str, int] = field(default_factory=dict)
    dram_write_bytes_by_space: dict[str, int] = field(default_factory=dict)


CSV_COLUMNS = [
    "instance",
    "collector",
    "workload",
    "seed",
    "ops_executed",
    "dram_write_bytes",
    "pcm_write_bytes",
    "dram_read_bytes",
    "pcm_read_bytes",
    "pcm_write_rate_bps",
    "lifetime_years",
    "minor_collections",
    "observer_collections",
    "major_collections",
    "copied_bytes",
    "mark_writes",
    "mark_writes_pcm",
    "large_relocations",
    "reduction_vs_baseline",
]


@dataclass
class Report:
    config: dict
    collector: str
    seed: int
    sim_seconds: float
    rows: list[InstanceReport]
    aggregate: InstanceReport
    llc_fills: int
    llc_writebacks: int
    failed: bool = False
    error: dict | None = None
    baseline_collector: str | None = None
    reduction_vs_baseline: float | None = None

    def to_json(self) -> str:
        """Every field under its own name, except ``rows`` as ``instances`` and the two LLC counts under ``llc``."""
        payload = dataclasses.asdict(self)
        payload["instances"] = payload.pop("rows")
        payload["llc"] = {"fills": payload.pop("llc_fills"), "writebacks": payload.pop("llc_writebacks")}
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_csv(self) -> str:
        """One line per row; each ``CSV_COLUMNS`` name is a field of the row or of the report.

        ``csv`` writes None as an empty field and a float as its ``repr``.
        """
        shared = {
            "collector": self.collector,
            "seed": self.seed,
            "reduction_vs_baseline": self.reduction_vs_baseline,
        }
        buf = io.StringIO()
        writer = csv.DictWriter(buf, CSV_COLUMNS, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        for row in [*self.rows, self.aggregate]:
            writer.writerow({**vars(row), **shared})
        return buf.getvalue()


def build_system(config: ExperimentConfig) -> MemorySystem:
    return MemorySystem(
        CacheModel(config.cache_capacity, config.cache_assoc, config.cache_line, config.instances),
        config.gc_traffic_through_cache,
    )


def _instance_streams(config: ExperimentConfig):
    """Per-instance (description, op iterator, total op count) triples.

    A replay parses the whole trace before the first op and its instances
    share one stream, which takes each op out of the parsed list as it
    yields it: the list holds only the ops not yet applied, and a record
    is freed once its heap has applied it. Exactly one heap drives that
    stream, ``_round``'s only heap with one instance and ``_shared_round``'s
    lead with more. The list is reversed once, so each op is a pop from its
    end, and ``starmap`` makes the pops without a Python frame per op.
    """
    if config.trace_path is not None:
        ops = load_trace(config.trace_path)
        total = len(ops)
        ops.reverse()
        return [(config.trace_path, starmap(ops.pop, repeat((), total)), total)] * config.instances
    out = []
    for i in range(config.instances):
        spec = replace(config.workload, seed=derive_seed(config.seed, i))
        out.append((spec.archetype, generate(spec), spec.op_count))
    return out


class _Recorder:
    """The ``system`` of instance 0's heap in a shared replay: its ``now_ns`` and ``access``.

    The heap's clock sites and accesses run unchanged. Each ``now_ns +=
    x`` reads 0.0 and so hands the setter ``0.0 + x``, which is ``x`` for
    the finite, non-negative costs a config allows; it joins ``clock``.
    Each access joins ``accesses`` under instance 0's key id.
    """

    def __init__(self) -> None:
        self.clock: list[float] = []
        self.accesses: list[tuple[int, int, bool, int, bool]] = []

    @property
    def now_ns(self) -> float:
        return 0.0

    @now_ns.setter
    def now_ns(self, ns: float) -> None:
        self.clock.append(ns)

    def access(self, inst: int, addr: int, length: int, write: bool, kid: int, *, collector: bool = False) -> None:
        self.accesses.append((addr, length, write, kid, collector))


def _round(heaps: list[HeapInstance], streams: list, quantum: int, alive: list[bool]) -> dict | None:
    """One round in which each live instance drives its own heap; returns a failure's ``error``."""
    for i, heap in enumerate(heaps):
        if alive[i]:
            try:
                alive[i] = not drive(heap, streams[i], quantum)
            except SimulatorError as exc:
                return _failure(exc, heap)
    return None


def _shared_round(
    system: MemorySystem,
    recorder: _Recorder,
    heaps: list[HeapInstance],
    kid_maps: list[dict[int, int]],
    ops,
    quantum: int,
    alive: list[bool],
) -> dict | None:
    """One round of instances that replay one trace; returns a failure's ``error``.

    Instance 0's heap, whose ``system`` is ``recorder`` for the whole
    run, runs the slice once. Then each instance in turn adds the
    recorded clock advances to the clock, in order, so the sums are
    bit-identical, and walks the recorded accesses under its own id and
    keys (``kid_maps[i]`` takes instance 0's counter key ids to instance
    i's). Every other heap then takes instance 0's op index and
    collections, the only heap state its report row reads. When the slice
    fails, instance 0 walks what it recorded up to the failure and no
    other instance walks the round, so their rows count only the slices
    they completed.
    """
    lead = heaps[0]
    recorder.clock.clear()
    recorder.accesses.clear()
    failure = None
    try:
        if drive(lead, ops, quantum):
            alive[:] = [False] * len(heaps)
    except SimulatorError as exc:
        failure = _failure(exc, lead)
    access = system.access
    for heap, kids in zip(heaps[:1] if failure else heaps, kid_maps):
        system.now_ns = reduce(add, recorder.clock, system.now_ns)
        inst = heap.instance_id
        for addr, length, write, kid, collector in recorder.accesses:
            access(inst, addr, length, write, kids[kid], collector=collector)
        if heap is not lead:
            heap.op_index = lead.op_index
            heap.gc.collections = lead.gc.collections.copy()
    return failure


def _failure(exc: SimulatorError, heap: HeapInstance) -> dict:
    """A failed report's ``error``: the heap's instance, its op index and the exception."""
    return {"instance": heap.instance_id, "op_index": heap.op_index, "message": f"{type(exc).__name__}: {exc}"}


def _rate(pcm_write_bytes: int, elapsed: float, model: LifetimeModel) -> dict:
    """A row's PCM write rate over the window and the device lifetime at it; None without time."""
    rate = pcm_write_bytes / elapsed if elapsed > 0 else None
    return {"pcm_write_rate_bps": rate, "lifetime_years": lifetime_years(rate, model) if rate is not None else None}


def _instance_row(
    label: str, desc: str, heap: HeapInstance, window: TrafficCounters, elapsed: float, model: LifetimeModel
) -> InstanceReport:
    """One instance's row, read in one pass over its own heap's spaces, and its collections."""
    written: dict[MemoryKind, dict[str, int]] = {MemoryKind.PCM: {}, MemoryKind.DRAM: {}}  # by space, in order
    read = dict.fromkeys(written, 0)
    for name, space in sorted(heap.spaces.items()):
        if window.written[space.kid]:
            written[space.kind][name] = window.written[space.kid]
        read[space.kind] += window.read[space.kid]
    stats = heap.gc.collections
    pcm_w = sum(written[MemoryKind.PCM].values())
    return InstanceReport(
        instance=label,
        workload=desc,
        ops_executed=heap.op_index,
        pcm_write_bytes=pcm_w,
        dram_write_bytes=sum(written[MemoryKind.DRAM].values()),
        pcm_read_bytes=read[MemoryKind.PCM],
        dram_read_bytes=read[MemoryKind.DRAM],
        **_rate(pcm_w, elapsed, model),
        minor_collections=sum(st.kind == "minor" for st in stats),
        observer_collections=sum(st.kind == "observer" for st in stats),
        major_collections=sum(st.kind == "major" for st in stats),
        copied_bytes=sum(st.bytes_copied_total for st in stats),
        mark_writes=sum(st.mark_writes for st in stats),
        mark_writes_pcm=sum(st.mark_writes_pcm for st in stats),
        large_relocations=sum(st.large_relocated for st in stats),
        pcm_write_bytes_by_space=written[MemoryKind.PCM],
        dram_write_bytes_by_space=written[MemoryKind.DRAM],
    )


def run_experiment(config: ExperimentConfig) -> Report:
    """Run one experiment to its report; a failed run is a failed report, not an exception.

    Rounds run until every stream ends or a slice fails: a shared heap
    pass (``_shared_round``) when more than one instance replays the one
    parsed trace, and otherwise one heap per instance (``_round``). The
    measurement window opens after the first round that leaves every
    instance past its warm-up op.

    The run builds no reference cycles (records hold ids and spaces, ops
    hold ints, and each heap's link to its engine is cut at the end), so
    CPython's cyclic collector is off while it runs: its passes would
    traverse every record and find nothing. The caller's setting is
    restored.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        system = build_system(config)
        heaps = [build_instance(config, system, i) for i in range(config.instances)]
        streams = _instance_streams(config)
        totals = [t for (_d, _s, t) in streams]
        warmup_at = [int(t * config.warmup_fraction) for t in totals]
        alive = [True] * config.instances

        base_counters = system.counters.snapshot()
        base_ns = system.now_ns
        warmed = not any(warmup_at)
        failure: dict | None = None

        if config.trace_path is not None and config.instances > 1:
            kid_maps = [{space.kid: heap.spaces[name].kid for name, space in heaps[0].spaces.items()} for heap in heaps]
            recorder = heaps[0].system = _Recorder()
            play_round = partial(_shared_round, system, recorder, heaps, kid_maps, streams[0][1], config.quantum, alive)
        else:
            play_round = partial(_round, heaps, [ops for (_d, ops, _t) in streams], config.quantum, alive)
        while any(alive) and failure is None:
            failure = play_round()
            if not warmed and all(h.op_index >= at for h, at in zip(heaps, warmup_at)):
                # measurement window opens once every instance is past warm-up
                warmed = True
                base_counters = system.counters.snapshot()
                base_ns = system.now_ns

        heaps[0].system = system  # a shared replay's lead ran against its recorder; the checks read the real counters
        system.drain()
        for heap in heaps:
            try:
                heap.check_write_conservation()
            except InvariantError as exc:
                if failure is None:  # a failed slice already explains the run
                    failure = _failure(exc, heap)
                break

        window = system.counters.diff(base_counters)
        elapsed = (system.now_ns - base_ns) * 1e-9
        model = config.lifetime_model()

        rows = [
            _instance_row(str(i), streams[i][0], heap, window, elapsed, model) for i, heap in enumerate(heaps)
        ]
        # every int field of a row is a count, which the aggregate sums over the instances
        counts = [f.name for f in dataclasses.fields(InstanceReport) if f.type == "int"]
        summed = {name: sum(getattr(row, name) for row in rows) for name in counts}
        aggregate = InstanceReport(
            instance="all", workload=streams[0][0], **summed, **_rate(summed["pcm_write_bytes"], elapsed, model)
        )
        # Break each heap/engine reference cycle so a finished run's heap is
        # freed now, not by a later cyclic collection; ``heap.gc`` stays readable.
        for heap in heaps:
            heap.gc.heap = None
        return Report(
            config=config.to_dict(),
            collector=config.collector,
            seed=config.seed,
            sim_seconds=elapsed,
            rows=rows,
            aggregate=aggregate,
            llc_fills=window.fills,
            llc_writebacks=window.writebacks,
            failed=failure is not None,
            error=failure,
        )
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class PairResult:
    baseline: Report
    variant: Report  # its reduction_vs_baseline is 1 - variant/baseline PCM write bytes


def run_baseline_pair(config: ExperimentConfig, baseline: str = "PCM-Only") -> PairResult:
    if config.variant is Collector.from_name(baseline):
        raise ConfigError("variant and baseline are the same collector")
    base_report = run_experiment(replace(config, collector=baseline))
    var_report = run_experiment(config)
    base_pcm = base_report.aggregate.pcm_write_bytes
    reduction = None
    if base_pcm > 0 and not (base_report.failed or var_report.failed):
        reduction = 1.0 - var_report.aggregate.pcm_write_bytes / base_pcm
    var_report.baseline_collector = baseline
    var_report.reduction_vs_baseline = reduction
    return PairResult(base_report, var_report)


def sweep(
    config: ExperimentConfig,
    collectors: list[str],
    cache_sizes: list[int],
    instance_counts: list[int],
) -> Iterator[tuple[str, Report]]:
    """The labelled report of each point of the axes' cross product, run as the iterator reaches it.

    Building each point's config checks it, and every point is built
    before this returns, so a bad point fails before the first runs and a
    caller can keep each report as its point ends. Two points with the
    same variant, however its name is spelled, cache size and instance
    count are one point asked for twice: a ``ConfigError``.
    """
    points = [
        (f"{name}_cache{cap}_n{n}", replace(config, collector=name, cache_capacity=cap, instances=n))
        for name in collectors
        for cap in cache_sizes
        for n in instance_counts
    ]
    seen = set()
    for label, point in points:
        if (key := (point.variant, point.cache_capacity, point.instances)) in seen:
            raise ConfigError(f"sweep point {label} repeats an earlier point")
        seen.add(key)
    return ((label, run_experiment(point)) for label, point in points)


def emit_report(report: Report, fmt: str, out) -> None:
    """Write ``report`` as ``fmt`` ('json'|'csv') to the file object ``out``."""
    if fmt == "json":
        out.write(report.to_json() + "\n")
    elif fmt == "csv":
        out.write(report.to_csv())
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
