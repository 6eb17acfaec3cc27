"""Trace format, synthetic workload archetypes, and the op driver.

A trace is a flat op stream over object ids. Positive ids are allocated
by the trace; negative ids name objects of the pre-populated immortal
space (id -k is the k-th boot object). The text form is line oriented:

    A id size n_refs large   allocate
    W id offset len          data write
    R id offset len          data read
    P parent slot child      reference write (child 0 stores null)
    G id                     root
    U id                     unroot

``#`` starts a comment line. Parsing then serializing reproduces the
input exactly (modulo comments and blank lines). The op records are
plain slotted dataclasses: a replay trace is parsed into one list whose
records every instance reads and none writes.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, asdict
from itertools import islice
from typing import Iterable, Iterator, TextIO

from .errors import ConfigError, TraceError
from .heap import HeapInstance
from .units import KIB, MIB


@dataclass(slots=True)
class Alloc:
    oid: int
    size: int
    n_refs: int
    large: bool


@dataclass(slots=True)
class WriteOp:
    oid: int
    offset: int
    length: int


@dataclass(slots=True)
class ReadOp:
    oid: int
    offset: int
    length: int


@dataclass(slots=True)
class RefOp:
    parent: int
    slot: int
    child: int  # 0 means null


@dataclass(slots=True)
class RootOp:
    oid: int


@dataclass(slots=True)
class UnrootOp:
    oid: int


TraceOp = Alloc | WriteOp | ReadOp | RefOp | RootOp | UnrootOp


def serialize_op(op: TraceOp) -> str:
    match op:
        case Alloc(oid, size, n_refs, large):
            return f"A {oid} {size} {n_refs} {int(large)}"
        case WriteOp(oid, offset, length):
            return f"W {oid} {offset} {length}"
        case ReadOp(oid, offset, length):
            return f"R {oid} {offset} {length}"
        case RefOp(parent, slot, child):
            return f"P {parent} {slot} {child}"
        case RootOp(oid):
            return f"G {oid}"
        case UnrootOp(oid):
            return f"U {oid}"
    raise TraceError(f"cannot serialize {op!r}")


def serialize_trace(ops: Iterable[TraceOp], out: TextIO) -> int:
    n = 0
    for op in ops:
        out.write(serialize_op(op) + "\n")
        n += 1
    return n


# Op kinds whose fields are the record's fields, in order.
_PLAIN_KINDS = {"W": WriteOp, "R": ReadOp, "P": RefOp, "G": RootOp, "U": UnrootOp}


def parse_trace(lines: Iterable[str]) -> Iterator[TraceOp]:
    plain_kinds = _PLAIN_KINDS
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        kind = fields[0]
        try:
            vals = [int(a) for a in fields[1:]]
        except ValueError as exc:
            raise TraceError(f"non-integer field in {raw.strip()!r}", line=lineno) from exc
        try:
            if kind == "A":
                oid, size, n_refs, large = vals
                if oid <= 0:
                    raise TraceError(f"allocation id {oid} must be positive", line=lineno)
                yield Alloc(oid, size, n_refs, bool(large))
            else:
                cls = plain_kinds.get(kind)
                if cls is None:
                    raise TraceError(f"unknown op kind {kind!r}", line=lineno)
                yield cls(*vals)
        except (TypeError, ValueError) as exc:
            raise TraceError(f"wrong field count in {raw.strip()!r}", line=lineno) from exc


def load_trace(path: str) -> list[TraceOp]:
    with open(path, "r", encoding="utf-8") as fh:
        return list(parse_trace(fh))


# ---------------------------------------------------------------------------
# synthetic archetypes


ARCHETYPES = ("nursery-churn", "mature-mutation", "large-object-graph")


@dataclass
class WorkloadSpec:
    """Parameters of one synthetic op stream; fully determines it with seed."""

    archetype: str
    op_count: int
    seed: int = 0
    # small-object sizes are log-normal around exp(size_log_mean)
    size_log_mean: float = 4.56  # ~96 bytes
    size_log_sigma: float = 0.6
    size_min: int = 16
    size_max: int = 4 * KIB
    survival: float = 0.05  # fraction of objects never scheduled to die
    locality: float = 0.85  # fraction of writes aimed at the hot target set
    large_fraction: float = 0.0  # probability an allocation is large
    large_min: int = 8 * KIB
    large_max: int = 64 * KIB
    resident_bytes: int = 0  # long-lived set built up front (mature-mutation)

    def __post_init__(self) -> None:
        if self.archetype not in ARCHETYPES:
            raise ConfigError(f"unknown archetype {self.archetype!r}; choose from {ARCHETYPES}")
        if self.op_count <= 0:
            raise ConfigError("op_count must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        return cls(**data)

    def with_seed(self, seed: int) -> "WorkloadSpec":
        data = self.to_dict()
        data["seed"] = seed
        return WorkloadSpec(**data)


def default_spec(archetype: str, op_count: int | None = None, seed: int = 0) -> WorkloadSpec:
    """Canned parameterizations for the three archetypes."""
    if archetype == "nursery-churn":
        return WorkloadSpec(
            archetype=archetype,
            op_count=op_count or 300_000,
            seed=seed,
            survival=0.05,
            locality=0.85,
        )
    if archetype == "mature-mutation":
        return WorkloadSpec(
            archetype=archetype,
            op_count=op_count or 300_000,
            seed=seed,
            size_log_mean=4.85,  # ~128 bytes
            size_log_sigma=0.5,
            locality=0.75,
            resident_bytes=6 * MIB,
        )
    if archetype == "large-object-graph":
        return WorkloadSpec(
            archetype=archetype,
            op_count=op_count or 24_000,
            seed=seed,
            large_fraction=0.3,
            locality=0.5,
            survival=0.10,
        )
    raise ConfigError(f"unknown archetype {archetype!r}")


def generate(spec: WorkloadSpec) -> Iterator[TraceOp]:
    """Deterministic op stream for ``spec``; exactly ``op_count`` ops."""
    if spec.archetype == "nursery-churn":
        return _gen_nursery_churn(spec)
    if spec.archetype == "mature-mutation":
        return _gen_mature_mutation(spec)
    if spec.archetype == "large-object-graph":
        return _gen_large_object_graph(spec)
    raise ConfigError(f"unknown archetype {spec.archetype!r}")


class _Emitter:
    """Budgeted op sink so generators stop mid-pattern at exactly op_count."""

    def __init__(self, budget: int):
        self.budget = budget
        self.out: list[TraceOp] = []

    @property
    def open(self) -> bool:
        return self.budget > 0

    def put(self, op: TraceOp) -> None:
        if self.budget > 0:
            self.out.append(op)
            self.budget -= 1

    def take(self) -> list[TraceOp]:
        ops, self.out = self.out, []
        return ops


def _small_size(rng: random.Random, spec: WorkloadSpec, n_refs: int) -> int:
    size = int(rng.lognormvariate(spec.size_log_mean, spec.size_log_sigma))
    size = max(spec.size_min, min(spec.size_max, size))
    return max(size, 16 + 8 * n_refs)


def _large_size(rng: random.Random, spec: WorkloadSpec, n_refs: int) -> int:
    lo, hi = spec.large_min, spec.large_max
    size = int(lo * (hi / lo) ** rng.random())  # log-uniform across the range
    return max(size, 16 + 8 * n_refs)


def _pick(rng: random.Random, pool: list) -> object:
    return pool[rng.randrange(len(pool))]


def _gen_nursery_churn(spec: WorkloadSpec) -> Iterator[TraceOp]:
    rng = random.Random(spec.seed)
    emit = _Emitter(spec.op_count)
    next_id = 1
    allocs = 0
    recent: list[tuple[int, int, int]] = []  # (id, size, n_refs), ring of the young set
    retained: list[tuple[int, int, int]] = []
    deaths: list[tuple[int, int]] = []  # heap of (due_alloc_count, id)

    def alloc_one() -> None:
        nonlocal next_id, allocs
        # weights 4:3:2:1, passed cumulated: given plain weights, choices
        # would build this same list on every call (the stream is the same)
        n_refs = rng.choices((0, 1, 2, 3), cum_weights=(4, 7, 9, 10))[0]
        size = _small_size(rng, spec, n_refs)
        oid = next_id
        next_id += 1
        emit.put(Alloc(oid, size, n_refs, False))
        emit.put(RootOp(oid))
        allocs += 1
        entry = (oid, size, n_refs)
        if len(recent) < 512:
            recent.append(entry)
        else:
            recent[allocs % 512] = entry
        if rng.random() < spec.survival:
            retained.append(entry)
        else:
            # delay > ring size, so dead ids are never picked as targets
            heapq.heappush(deaths, (allocs + rng.randint(600, 3000), oid))

    while emit.open:
        while deaths and deaths[0][0] <= allocs and emit.open:
            emit.put(UnrootOp(heapq.heappop(deaths)[1]))
        if not emit.open:
            break
        r = rng.random()
        if r < 0.42 or not recent:
            alloc_one()
        elif r < 0.76:
            pool = recent if (rng.random() < spec.locality or not retained) else retained
            oid, size, _ = _pick(rng, pool)
            length = rng.choice((8, 16, 32, 64))
            length = min(length, size)
            emit.put(WriteOp(oid, rng.randrange(0, size - length + 1), length))
        elif r < 0.88:
            oid, size, _ = _pick(rng, recent)
            length = min(32, size)
            emit.put(ReadOp(oid, rng.randrange(0, size - length + 1), length))
        else:
            parent_pool = retained if (retained and rng.random() < 0.5) else recent
            pid, psize, pslots = _pick(rng, parent_pool)
            if pslots == 0:
                emit.put(WriteOp(pid, 0, min(8, psize)))
            else:
                child = 0 if rng.random() < 0.1 else _pick(rng, recent)[0]
                emit.put(RefOp(pid, rng.randrange(pslots), child))
        yield from emit.take()
    yield from emit.take()  # ops buffered when the budget ran out mid-flush


def _gen_mature_mutation(spec: WorkloadSpec) -> Iterator[TraceOp]:
    rng = random.Random(spec.seed)
    emit = _Emitter(spec.op_count)
    next_id = 1
    allocs = 0
    resident: list[tuple[int, int, int]] = []
    hot: list[tuple[int, int, int]] = []  # leading slice of resident, kept incrementally
    resident_total = 0
    recent: list[tuple[int, int, int]] = []
    deaths: list[tuple[int, int]] = []

    def alloc(into_resident: bool) -> None:
        nonlocal next_id, allocs, resident_total
        n_refs = rng.choices((0, 1, 2), cum_weights=(5, 8, 10))[0]  # weights 5:3:2, cumulated
        size = _small_size(rng, spec, n_refs)
        oid = next_id
        next_id += 1
        emit.put(Alloc(oid, size, n_refs, False))
        emit.put(RootOp(oid))
        allocs += 1
        entry = (oid, size, n_refs)
        if into_resident:
            resident.append(entry)
            resident_total += size
            if len(hot) * 10 < len(resident) * 3:
                hot.append(entry)
        else:
            if len(recent) < 256:
                recent.append(entry)
            else:
                recent[allocs % 256] = entry
            # middle-aged: survives a couple of nursery rounds, then dies
            heapq.heappush(deaths, (allocs + rng.randint(30_000, 55_000), oid))

    while emit.open:
        while deaths and deaths[0][0] <= allocs and emit.open:
            emit.put(UnrootOp(heapq.heappop(deaths)[1]))
        if not emit.open:
            break
        building = resident_total < spec.resident_bytes
        r = rng.random()
        if building and r < 0.55:
            alloc(into_resident=True)
        elif r < 0.30:
            alloc(into_resident=False)
        elif r < 0.80 and resident:
            pool = hot if rng.random() < spec.locality else (recent or resident)
            oid, size, _ = _pick(rng, pool)
            length = min(rng.choice((8, 16, 32, 64, 128)), size)
            emit.put(WriteOp(oid, rng.randrange(0, size - length + 1), length))
        elif r < 0.92 and resident:
            oid, size, _ = _pick(rng, resident)
            length = min(64, size)
            emit.put(ReadOp(oid, rng.randrange(0, size - length + 1), length))
        elif resident and recent:
            pid, _, pslots = _pick(rng, resident)
            if pslots == 0:
                oid, size, _ = resident[0]
                emit.put(WriteOp(oid, 0, min(8, size)))
            else:
                emit.put(RefOp(pid, rng.randrange(pslots), _pick(rng, recent)[0]))
        else:
            alloc(into_resident=building)
        yield from emit.take()
    yield from emit.take()


def _gen_large_object_graph(spec: WorkloadSpec) -> Iterator[TraceOp]:
    rng = random.Random(spec.seed)
    emit = _Emitter(spec.op_count)
    next_id = 1
    allocs = 0
    hot_large: list[tuple[int, int, int]] = []  # long-lived, heavily written
    recent_large: list[tuple[int, int, int]] = []
    recent_small: list[tuple[int, int, int]] = []
    deaths: list[tuple[int, int]] = []
    HOT_TARGET = 8

    def alloc_one() -> None:
        nonlocal next_id, allocs
        large = rng.random() < spec.large_fraction
        n_refs = rng.choices((0, 1, 2, 4), cum_weights=(3, 6, 8, 10))[0]  # weights 3:3:2:2, cumulated
        size = _large_size(rng, spec, n_refs) if large else _small_size(rng, spec, n_refs)
        oid = next_id
        next_id += 1
        emit.put(Alloc(oid, size, n_refs, large))
        emit.put(RootOp(oid))
        allocs += 1
        entry = (oid, size, n_refs)
        if large and len(hot_large) < HOT_TARGET:
            hot_large.append(entry)
            return
        pool = recent_large if large else recent_small
        if len(pool) < 128:
            pool.append(entry)
        else:
            pool[allocs % 128] = entry
        if rng.random() < spec.survival:
            heapq.heappush(deaths, (allocs + rng.randint(8_000, 16_000), oid))
        else:
            # die before the nursery turns over so admitted large objects
            # are mostly reclaimed young instead of copied out
            heapq.heappush(deaths, (allocs + rng.randint(100, 700), oid))

    while emit.open:
        while deaths and deaths[0][0] <= allocs and emit.open:
            dead = heapq.heappop(deaths)[1]
            # unrooted ids may be collected any time; drop them as targets
            for pool in (recent_large, recent_small):
                for k, entry in enumerate(pool):
                    if entry[0] == dead:
                        del pool[k]
                        break
            emit.put(UnrootOp(dead))
        if not emit.open:
            break
        r = rng.random()
        if r < 0.40 or not (hot_large or recent_small):
            alloc_one()
        elif r < 0.78:
            if hot_large and rng.random() < spec.locality:
                oid, size, _ = _pick(rng, hot_large)
                length = min(rng.choice((256, 512, 1024, 4096)), size)
            else:
                pool = recent_small or hot_large
                oid, size, _ = _pick(rng, pool)
                length = min(rng.choice((8, 16, 32, 64)), size)
            emit.put(WriteOp(oid, rng.randrange(0, size - length + 1), length))
        elif r < 0.90:
            pool = recent_large or hot_large or recent_small
            oid, size, _ = _pick(rng, pool)
            length = min(512, size)
            emit.put(ReadOp(oid, rng.randrange(0, size - length + 1), length))
        else:
            pools = [p for p in (recent_small, recent_large, hot_large) if p]
            pid, _, pslots = _pick(rng, pools[allocs % len(pools)])
            if pslots == 0:
                alloc_one()
            else:
                child_pool = recent_large or recent_small or hot_large
                child = 0 if rng.random() < 0.1 else _pick(rng, child_pool)[0]
                emit.put(RefOp(pid, rng.randrange(pslots), child))
        yield from emit.take()
    yield from emit.take()


# ---------------------------------------------------------------------------
# trace driver


def drive(heap: HeapInstance, ops: Iterator[TraceOp], limit: int | None = None) -> tuple[int, bool]:
    """Apply up to ``limit`` ops to ``heap``; returns (executed, exhausted).

    ``exhausted`` is True when the stream ended. The heap's running op
    index is used to annotate trace errors with their position.
    """
    # One identity test chain per op, most frequent kinds first; the heap
    # methods are bound once per call, after any patching of the class.
    alloc_object = heap.alloc_object
    write_data = heap.write_data
    set_root = heap.set_root
    read_data = heap.read_data
    write_ref = heap.write_ref
    start = index = heap.op_index
    try:
        for op in islice(ops, limit):
            cls = op.__class__
            try:
                if cls is Alloc:
                    alloc_object(op.oid, op.size, op.n_refs, op.large)
                elif cls is WriteOp:
                    write_data(op.oid, op.offset, op.length)
                elif cls is RootOp:
                    set_root(op.oid, True)
                elif cls is UnrootOp:
                    set_root(op.oid, False)
                elif cls is ReadOp:
                    read_data(op.oid, op.offset, op.length)
                elif cls is RefOp:
                    write_ref(op.parent, op.slot, op.child)
                else:
                    raise TraceError(f"cannot apply {op!r}")
            except TraceError as exc:
                exc.op_index = index
                raise
            index += 1
    finally:
        heap.op_index = index
    executed = index - start
    return executed, limit is None or executed < limit
