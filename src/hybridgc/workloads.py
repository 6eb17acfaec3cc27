"""Trace format, synthetic workload archetypes, and the op driver.

A trace is a flat op stream over object ids. Positive ids are allocated
by the trace; negative ids name objects of the pre-populated immortal
space (id -k is the k-th boot object). The text form is line oriented:

    A id size n_refs large   allocate (large is 0 or 1)
    W id offset len          data write
    R id offset len          data read
    P parent slot child      reference write (child 0 stores null)
    G id                     root
    U id                     unroot

``#`` starts a comment line. Every integer is written canonically:
ASCII digits, a ``-`` only before a nonzero value, no leading zero, no
``+`` or ``_``; the parser rejects any other spelling that ``int()``
would read. Parsing then serializing reproduces the input exactly up to
whitespace (fields may be separated by runs of spaces and tabs, which
come back as one space) and apart from comments and blank lines.

In memory an op is a plain tuple ``(kind, *fields)``: ``kind`` is the
int code ``ALLOC``, ``WRITE``, ``READ``, ``REF``, ``ROOT`` or ``UNROOT``
(1 to 6, the line kinds in the order above) and the fields are the
line's integers in line order, except that an allocation's large flag is
a bool. Building, reading and dispatching an op enters no Python frame.

``load_trace`` reads text exactly as ``serialize_trace`` (``gen-trace``)
writes it in bulk: it checks it a block of lines at a time with one
regex and converts each block's integers in one ``json.loads`` call, so
it enters Python frames per block, not per op. From the first block that
holds any other text it reads line by line through ``parse_trace``, with
the same ops and the same errors. A file that is not UTF-8 is a
``TraceError`` at the line of its first invalid byte.
"""

from __future__ import annotations

import io
import json
import random
import re
from bisect import bisect
from dataclasses import dataclass, fields
from heapq import heappop, heappush
from itertools import islice
from math import exp, isfinite, log, sqrt
from typing import TYPE_CHECKING, Iterable, Iterator, TextIO

from .errors import ConfigError, TraceError
from .units import KIB, MIB

if TYPE_CHECKING:  # pragma: no cover - heap imports config, which imports this module
    from .heap import HeapInstance


# The kind codes of an op tuple (see the module docstring), which are
# also the codes ``load_trace`` reads kind letters as.
ALLOC, WRITE, READ, REF, ROOT, UNROOT = range(1, 7)

# Each kind letter's code and field count.
_KINDS = {"A": (ALLOC, 4), "W": (WRITE, 3), "R": (READ, 3), "P": (REF, 3), "G": (ROOT, 1), "U": (UNROOT, 1)}

# Each kind code's text line, a %-format of the op's fields.
_LINES = {code: letter + " %d" * count + "\n" for letter, (code, count) in _KINDS.items()}


def serialize_trace(ops: Iterable[tuple], out: TextIO) -> int:
    """Write ``ops`` to ``out``, one line each; returns the number written."""
    lines = _LINES
    write = out.write
    n = 0
    for op in ops:
        try:
            line = lines[op[0]] % op[1:]
        except (KeyError, IndexError, TypeError):  # an unknown kind or a wrong field count
            raise TraceError(f"cannot serialize {op!r}") from None
        write(line)
        n += 1
    return n


# A field with a leading zero, or a negative zero: ``int()`` reads both,
# but neither serializes back. Every integer field follows whitespace.
# Searched only on lines holding a "0".
_LEADING_ZERO = re.compile(r"\s(?:-0|0\d)")


def parse_trace(lines: Iterable[str], first_line: int = 1) -> Iterator[tuple]:
    """The ops of ``lines``, which are numbered from ``first_line`` in errors."""
    kinds = _KINDS
    leading_zero = _LEADING_ZERO.search
    for lineno, raw in enumerate(lines, start=first_line):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        if not raw.isascii() or "_" in raw or "+" in raw or ("0" in raw and leading_zero(raw)):
            raise TraceError(f"non-canonical field in {raw.strip()!r}", line=lineno)
        kind = fields[0]
        try:
            vals = [*map(int, fields[1:])]  # no comprehension frame per line
        except ValueError as exc:
            raise TraceError(f"non-integer field in {raw.strip()!r}", line=lineno) from exc
        if kind not in kinds:
            raise TraceError(f"unknown op kind {kind!r}", line=lineno)
        code, count = kinds[kind]
        if len(vals) != count:
            raise TraceError(f"wrong field count in {raw.strip()!r}", line=lineno)
        if code == ALLOC:
            oid, size, n_refs, large = vals
            if oid <= 0:
                raise TraceError(f"allocation id {oid} must be positive", line=lineno)
            if large != 0 and large != 1:
                raise TraceError(f"large flag {large} must be 0 or 1", line=lineno)
            yield (ALLOC, oid, size, n_refs, large == 1)
        else:
            yield (code, *vals)


# A block of whole lines exactly as ``serialize_trace`` writes them:
# single spaces, canonical integers (``[0-9]``: ``\d`` matches every
# Unicode digit), a positive allocation id, a large flag of 0 or 1 and
# "\n" after every line. The plain ``*`` keeps backtracking state per
# line, so it is matched a block at a time, never over a whole file.
_INT = r"(?:0|-?[1-9][0-9]*)"
_SERIALIZED_LINES = re.compile(
    rf"(?:(?:A [1-9][0-9]* {_INT} {_INT} [01]|[WRP] {_INT} {_INT} {_INT}|[GU] {_INT})\n)*"
)
_BLOCK_CHARS = 1 << 16  # cut at the last line end within this many characters
# Kind letters become their codes and separators commas, so a checked
# block reads as one JSON list of ints.
_KIND_CODES = str.maketrans({letter: str(code) for letter, (code, _) in _KINDS.items()} | {" ": ",", "\n": ","})


def _load_serialized(text: str, ops: list[tuple]) -> int:
    """Append to ``ops`` the ops of the leading blocks of ``text`` that are
    exactly ``serialize_trace`` output; return where those blocks end."""
    append = ops.append
    pos, size = 0, len(text)
    while pos < size:
        end = text.rfind("\n", pos, pos + _BLOCK_CHARS) + 1
        if end <= pos or _SERIALIZED_LINES.fullmatch(text, pos, end) is None:
            break
        try:
            vals = json.loads("[" + text[pos : end - 1].translate(_KIND_CODES) + "]")
        except ValueError:  # an integer longer than int() converts
            break
        it = iter(vals)
        nxt = it.__next__
        for code in it:
            if code == ALLOC:
                append((ALLOC, nxt(), nxt(), nxt(), nxt() == 1))
            elif code >= ROOT:  # ROOT or UNROOT, the one-field kinds
                append((code, nxt()))
            else:
                append((code, nxt(), nxt(), nxt()))
        pos = end
    return pos


def load_trace(path: str) -> list[tuple]:
    r"""Every op of the trace file at ``path``.

    ``gen-trace`` output loads in bulk; from the first block that holds
    any other text, the file goes line by line through ``parse_trace``,
    which gives the same ops and raises the same errors. Lines end at
    ``\n`` after the universal-newline translation of text-mode ``open``,
    never at the other characters ``str.splitlines`` cuts at.
    """
    with open(path, "rb") as fh:
        try:
            text = fh.read().decode("utf-8")  # the bytes are not kept
        except UnicodeDecodeError as exc:
            head = exc.object[: exc.start]
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise TraceError(f"not UTF-8: byte {exc.start} ({exc.reason})", line=line) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    ops: list[tuple] = []
    pos = _load_serialized(text, ops)
    if pos < len(text):
        # the rest, from the first block that is not serialize_trace output,
        # goes line by line; StringIO's default newline="\n" cuts at "\n" only
        first_line = text.count("\n", 0, pos) + 1
        ops.extend(parse_trace(io.StringIO(text[pos:]), first_line))
    return ops


# ---------------------------------------------------------------------------
# synthetic archetypes


@dataclass(frozen=True)
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
        check_field_types(self)
        if self.op_count <= 0:
            raise ConfigError("op_count must be positive")
        for name in ("survival", "locality", "large_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if not 0 < self.size_min <= self.size_max:
            raise ConfigError("need 0 < size_min <= size_max")
        if not 0 < self.large_min <= self.large_max:
            raise ConfigError("need 0 < large_min <= large_max")
        if not self.size_log_sigma >= 0:
            raise ConfigError("size_log_sigma must not be negative")
        if self.resident_bytes < 0:
            raise ConfigError("resident_bytes must not be negative")


# declared field type -> (what the error calls it, the types it may hold)
_FIELD_TYPES = {
    "int": ("an int", int),
    "float": ("a finite number", (int, float)),
    "bool": ("a bool", bool),
    "str": ("a str", str),
    "str | None": ("a str or None", (str, type(None))),
    "WorkloadSpec | None": ("a WorkloadSpec or None", (WorkloadSpec, type(None))),
}


def check_field_types(params) -> None:
    """Reject a field of dataclass ``params`` that does not hold its declared type.

    An ``int`` field holds an int, a ``bool`` field a bool, a ``float``
    field a finite int or float, and a ``str`` field a str; a bool is
    none of the others here. Every field's declared type must be in
    ``_FIELD_TYPES``. ``WorkloadSpec`` and ``ExperimentConfig`` call it
    from ``__post_init__``, so a fractional count, a non-finite size or a
    value of the wrong type fails as a ``ConfigError`` before it can
    reach a run or a report.
    """
    for f in fields(params):
        what, types = _FIELD_TYPES[f.type]
        value = getattr(params, f.name)
        if (
            isinstance(value, bool) != (f.type == "bool")
            or not isinstance(value, types)
            or (isinstance(value, float) and not isfinite(value))
        ):
            raise ConfigError(f"{f.name} must be {what}, not {value!r}")


def default_spec(archetype: str, op_count: int | None = None, seed: int = 0) -> WorkloadSpec:
    """The archetype's canned parameterization, read from its table entry."""
    if archetype not in ARCHETYPES:
        raise ConfigError(f"unknown archetype {archetype!r}")
    _gen, default_ops, _budget, overrides = _ARCHETYPES[archetype]
    return WorkloadSpec(archetype, default_ops if op_count is None else op_count, seed, **overrides)


def generate(spec: WorkloadSpec) -> Iterator[tuple]:
    """Deterministic op stream for ``spec``; exactly ``op_count`` ops.

    Each archetype is an unbounded generator capped here. Every op of a
    generator depends only on the draws before it, so a capped stream is
    a prefix of a longer one and may end mid-pattern (an allocation
    without its root).
    """
    return islice(_ARCHETYPES[spec.archetype][0](spec), spec.op_count)


# The generators draw only through rng.random() and rng.getrandbits(),
# bound once; the stream pins in tests/test_workloads.py fix their draw
# order. Each draw is written out as the random.Random method named below
# computes it, so a stream is the one that method gives (the pins were
# recorded through those methods) and does not move with how a Python
# version implements it:
# - a draw ``i`` below ``n`` is ``while (i := bits(k)) >= n: pass`` with
#   ``k = n.bit_length()`` (Random._randbelow), computed once where ``n``
#   is constant; randrange(n) is ``i``, randrange(lo, hi) is ``lo`` plus
#   a draw below ``hi - lo``, and choice(seq) is ``seq[i]`` for a draw
#   below ``len(seq)``, which is never 0 where a generator draws;
# - normalvariate(mu, sigma) is ``mu + z * sigma`` for the ``z`` of the
#   Kinderman-Monahan loop with _NV_MAGICCONST, so a small-object size
#   ``int(exp(mu + z * sigma))`` is int(rng.lognormvariate(mu, sigma));
# - a weighted pick ``pop[bisect(cum_weights, random() * total, 0, len(pop) - 1)]``
#   is rng.choices(pop, cum_weights=...).
# Each op is a tuple built where it is yielded, so one step of a stream
# runs in the generator's own frame and enters no other.
_NV_MAGICCONST = 4 * exp(-0.5) / sqrt(2.0)


def _gen_nursery_churn(spec: WorkloadSpec) -> Iterator[tuple]:
    rng = random.Random(spec.seed)
    random_, bits = rng.random, rng.getrandbits
    mu, sigma, size_min, size_max = spec.size_log_mean, spec.size_log_sigma, spec.size_min, spec.size_max
    survival, locality = spec.survival, spec.locality
    lengths = (8, 16, 32, 64)
    n_lengths = len(lengths)
    k_lengths = n_lengths.bit_length()
    delay_min, n_delays = 600, 3001 - 600  # randrange(600, 3001)
    k_delays = n_delays.bit_length()
    allocs = 0  # also the id of the latest allocation
    recent: list[tuple[int, int, int]] = []  # (id, size, n_refs), ring of the young set
    retained: list[tuple[int, int, int]] = []
    deaths: list[tuple[int, int]] = []  # heap of (due_alloc_count, id)
    while True:
        while deaths and deaths[0][0] <= allocs:
            yield (UNROOT, heappop(deaths)[1])
        r = random_()
        if r < 0.42 or not recent:
            n_refs = (0, 1, 2, 3)[bisect((4, 7, 9, 10), random_() * 10.0, 0, 3)]  # weights 4:3:2:1
            while True:
                u1 = random_()
                u2 = 1.0 - random_()
                z = _NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            size = max(size_min, min(size_max, int(exp(mu + z * sigma))), 16 + 8 * n_refs)
            allocs += 1
            entry = (allocs, size, n_refs)
            if len(recent) < 512:
                recent.append(entry)
            else:
                recent[allocs % 512] = entry
            if random_() < survival:
                retained.append(entry)
            else:
                # delay > ring size, so dead ids are never picked as targets
                while (i := bits(k_delays)) >= n_delays:
                    pass
                heappush(deaths, (allocs + delay_min + i, allocs))
            yield (ALLOC, allocs, size, n_refs, False)
            yield (ROOT, allocs)
        elif r < 0.76:
            pool = recent if (random_() < locality or not retained) else retained
            n = len(pool)
            while (i := bits(n.bit_length())) >= n:
                pass
            oid, size, _ = pool[i]
            while (i := bits(k_lengths)) >= n_lengths:
                pass
            length = min(lengths[i], size)
            n = size - length + 1
            while (i := bits(n.bit_length())) >= n:
                pass
            yield (WRITE, oid, i, length)
        elif r < 0.88:
            n = len(recent)
            while (i := bits(n.bit_length())) >= n:
                pass
            oid, size, _ = recent[i]
            length = min(32, size)
            n = size - length + 1
            while (i := bits(n.bit_length())) >= n:
                pass
            yield (READ, oid, i, length)
        else:
            parent_pool = retained if (retained and random_() < 0.5) else recent
            n = len(parent_pool)
            while (i := bits(n.bit_length())) >= n:
                pass
            pid, psize, pslots = parent_pool[i]
            if pslots == 0:
                yield (WRITE, pid, 0, min(8, psize))
            else:
                if random_() < 0.1:
                    child = 0
                else:
                    n = len(recent)
                    while (i := bits(n.bit_length())) >= n:
                        pass
                    child = recent[i][0]
                while (i := bits(pslots.bit_length())) >= pslots:
                    pass
                yield (REF, pid, i, child)


def _gen_mature_mutation(spec: WorkloadSpec) -> Iterator[tuple]:
    rng = random.Random(spec.seed)
    random_, bits = rng.random, rng.getrandbits
    mu, sigma, size_min, size_max = spec.size_log_mean, spec.size_log_sigma, spec.size_min, spec.size_max
    locality, resident_bytes = spec.locality, spec.resident_bytes
    lengths = (8, 16, 32, 64, 128)
    n_lengths = len(lengths)
    k_lengths = n_lengths.bit_length()
    delay_min, n_delays = 30_000, 55_001 - 30_000  # randrange(30_000, 55_001)
    k_delays = n_delays.bit_length()
    allocs = 0  # also the id of the latest allocation
    resident: list[tuple[int, int, int]] = []
    hot: list[tuple[int, int, int]] = []  # leading slice of resident, kept incrementally
    resident_total = 0
    recent: list[tuple[int, int, int]] = []
    deaths: list[tuple[int, int]] = []
    while True:
        while deaths and deaths[0][0] <= allocs:
            yield (UNROOT, heappop(deaths)[1])
        building = resident_total < resident_bytes
        r = random_()
        if building and r < 0.55:
            into_resident = True
        elif r < 0.30:
            into_resident = False
        elif r < 0.80 and resident:
            # hot is never empty once resident is not
            pool = hot if random_() < locality else (recent or resident)
            n = len(pool)
            while (i := bits(n.bit_length())) >= n:
                pass
            oid, size, _ = pool[i]
            while (i := bits(k_lengths)) >= n_lengths:
                pass
            length = min(lengths[i], size)
            n = size - length + 1
            while (i := bits(n.bit_length())) >= n:
                pass
            yield (WRITE, oid, i, length)
            continue
        elif r < 0.92 and resident:
            n = len(resident)
            while (i := bits(n.bit_length())) >= n:
                pass
            oid, size, _ = resident[i]
            length = min(64, size)
            n = size - length + 1
            while (i := bits(n.bit_length())) >= n:
                pass
            yield (READ, oid, i, length)
            continue
        elif resident and recent:
            n = len(resident)
            while (i := bits(n.bit_length())) >= n:
                pass
            pid, _, pslots = resident[i]
            if pslots == 0:
                oid, size, _ = resident[0]
                yield (WRITE, oid, 0, min(8, size))
            else:
                while (slot := bits(pslots.bit_length())) >= pslots:
                    pass
                n = len(recent)
                while (i := bits(n.bit_length())) >= n:
                    pass
                yield (REF, pid, slot, recent[i][0])
            continue
        else:
            into_resident = building
        n_refs = (0, 1, 2)[bisect((5, 8, 10), random_() * 10.0, 0, 2)]  # weights 5:3:2
        while True:
            u1 = random_()
            u2 = 1.0 - random_()
            z = _NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -log(u2):
                break
        size = max(size_min, min(size_max, int(exp(mu + z * sigma))), 16 + 8 * n_refs)
        allocs += 1
        entry = (allocs, size, n_refs)
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
            while (i := bits(k_delays)) >= n_delays:
                pass
            heappush(deaths, (allocs + delay_min + i, allocs))
        yield (ALLOC, allocs, size, n_refs, False)
        yield (ROOT, allocs)


def _gen_large_object_graph(spec: WorkloadSpec) -> Iterator[tuple]:
    rng = random.Random(spec.seed)
    random_, bits = rng.random, rng.getrandbits
    mu, sigma, size_min, size_max = spec.size_log_mean, spec.size_log_sigma, spec.size_min, spec.size_max
    large_min, large_ratio = spec.large_min, spec.large_max / spec.large_min
    survival, locality, large_fraction = spec.survival, spec.locality, spec.large_fraction
    large_lengths, small_lengths = (256, 512, 1024, 4096), (8, 16, 32, 64)
    n_lengths = len(large_lengths)  # both have four
    k_lengths = n_lengths.bit_length()
    # (least delay, number of delays, bits per draw) of randrange(8_000, 16_001)
    # for a surviving object and of randrange(100, 701) for any other
    long_delays = (8_000, 16_001 - 8_000, (16_001 - 8_000).bit_length())
    short_delays = (100, 701 - 100, (701 - 100).bit_length())
    allocs = 0  # also the id of the latest allocation
    hot_large: list[tuple[int, int, int]] = []  # long-lived, heavily written
    recent_large: list[tuple[int, int, int]] = []
    recent_small: list[tuple[int, int, int]] = []
    # heap of (due_alloc_count, id, pool, pool entry); (due, id) is unique,
    # so the order is that of (due, id) alone
    deaths: list[tuple[int, int, list, tuple[int, int, int]]] = []
    HOT_TARGET = 8
    while True:
        while deaths and deaths[0][0] <= allocs:
            _, dead, pool, entry = heappop(deaths)
            # unrooted ids may be collected any time; drop them as targets
            # (the entry is gone already if the ring overwrote it)
            try:
                pool.remove(entry)
            except ValueError:
                pass
            yield (UNROOT, dead)
        r = random_()
        if r < 0.40 or not (hot_large or recent_small):
            pass  # allocate, below
        elif r < 0.78:
            if hot_large and random_() < locality:
                pool, lengths = hot_large, large_lengths
            else:
                pool, lengths = recent_small or hot_large, small_lengths
            n = len(pool)
            while (i := bits(n.bit_length())) >= n:
                pass
            oid, size, _ = pool[i]
            while (i := bits(k_lengths)) >= n_lengths:
                pass
            length = min(lengths[i], size)
            n = size - length + 1
            while (i := bits(n.bit_length())) >= n:
                pass
            yield (WRITE, oid, i, length)
            continue
        elif r < 0.90:
            pool = recent_large or hot_large or recent_small
            n = len(pool)
            while (i := bits(n.bit_length())) >= n:
                pass
            oid, size, _ = pool[i]
            length = min(512, size)
            n = size - length + 1
            while (i := bits(n.bit_length())) >= n:
                pass
            yield (READ, oid, i, length)
            continue
        else:
            pools = tuple(filter(None, (recent_small, recent_large, hot_large)))
            pool = pools[allocs % len(pools)]
            n = len(pool)
            while (i := bits(n.bit_length())) >= n:
                pass
            pid, _, pslots = pool[i]
            if pslots:
                if random_() < 0.1:
                    child = 0
                else:
                    pool = recent_large or recent_small or hot_large
                    n = len(pool)
                    while (i := bits(n.bit_length())) >= n:
                        pass
                    child = pool[i][0]
                while (i := bits(pslots.bit_length())) >= pslots:
                    pass
                yield (REF, pid, i, child)
                continue
        large = random_() < large_fraction
        n_refs = (0, 1, 2, 4)[bisect((3, 6, 8, 10), random_() * 10.0, 0, 3)]  # weights 3:3:2:2
        if large:
            size = max(int(large_min * large_ratio ** random_()), 16 + 8 * n_refs)  # log-uniform
        else:
            while True:
                u1 = random_()
                u2 = 1.0 - random_()
                z = _NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            size = max(size_min, min(size_max, int(exp(mu + z * sigma))), 16 + 8 * n_refs)
        allocs += 1
        entry = (allocs, size, n_refs)
        if large and len(hot_large) < HOT_TARGET:
            hot_large.append(entry)
        else:
            pool = recent_large if large else recent_small
            if len(pool) < 128:
                pool.append(entry)
            else:
                pool[allocs % 128] = entry
            # a short delay dies before the nursery turns over, so admitted
            # large objects are mostly reclaimed young instead of copied out
            delay_min, n_delays, k_delays = long_delays if random_() < survival else short_delays
            while (i := bits(k_delays)) >= n_delays:
                pass
            heappush(deaths, (allocs + delay_min + i, allocs, pool, entry))
        yield (ALLOC, allocs, size, n_refs, large)
        yield (ROOT, allocs)


# Each archetype's generator, default op count, heap budget and the spec
# fields it sets.
_ARCHETYPES = {
    "nursery-churn": (_gen_nursery_churn, 300_000, 64 * MIB, {"survival": 0.05, "locality": 0.85}),
    "mature-mutation": (
        _gen_mature_mutation,
        300_000,
        12 * MIB,
        {"size_log_mean": 4.85, "size_log_sigma": 0.5, "locality": 0.75, "resident_bytes": 6 * MIB},  # ~128 B
    ),
    "large-object-graph": (
        _gen_large_object_graph,
        24_000,
        16 * MIB,
        {"large_fraction": 0.3, "locality": 0.5, "survival": 0.10},
    ),
}
ARCHETYPES = tuple(_ARCHETYPES)


# ---------------------------------------------------------------------------
# trace driver


def drive(heap: HeapInstance, ops: Iterator[tuple], limit: int | None = None) -> bool:
    """Apply up to ``limit`` ops to ``heap``; returns whether the stream ended.

    The heap's running op index counts the ops applied, and annotates
    trace errors with their position.
    """
    # One test chain on the kind code per op, most frequent kinds first;
    # the heap methods are bound once per call, after any patching of the class.
    alloc_object = heap.alloc_object
    write_data = heap.write_data
    set_root = heap.set_root
    read_data = heap.read_data
    write_ref = heap.write_ref
    start = index = heap.op_index
    try:
        for op in islice(ops, limit):
            kind = op[0]
            try:
                if kind == ALLOC:
                    alloc_object(op[1], op[2], op[3], op[4])
                elif kind == WRITE:
                    write_data(op[1], op[2], op[3])
                elif kind == ROOT:
                    set_root(op[1], True)
                elif kind == UNROOT:
                    set_root(op[1], False)
                elif kind == READ:
                    read_data(op[1], op[2], op[3])
                elif kind == REF:
                    write_ref(op[1], op[2], op[3])
                else:
                    raise TraceError(f"cannot apply {op!r}")
            except TraceError as exc:
                exc.op_index = index
                raise
            index += 1
    finally:
        heap.op_index = index
    return limit is None or index - start < limit
