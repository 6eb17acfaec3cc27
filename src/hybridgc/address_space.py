"""Chunked virtual address range split between DRAM and PCM.

The managed heap is one contiguous range starting at address 0. The low
half is backed by PCM, the high half by DRAM, and each half is carved
into fixed-size chunks handed out through a per-half free list. Chunks
are recycled without unmapping: the ``mapped`` flag goes up on first
reservation and never comes back down. On-demand spaces take the lowest
free chunk (``FreeList.reserve``); the heap claims its fixed spaces'
chunks one index at a time (``FreeList.reserve_index``).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum

from .errors import ConfigError, DoubleFree, InvariantError, OutOfChunks


class MemoryKind(Enum):
    DRAM = "DRAM"
    PCM = "PCM"

    # Every traffic counter key holds a kind, and Enum's __hash__ is a
    # Python-level call. Members are singletons, so identity hashing is
    # equivalent; the name hash it replaces was already randomized per
    # process, so no output depends on hash order.
    __hash__ = object.__hash__


@dataclass(slots=True)
class ChunkDescriptor:
    index: int
    base: int
    size: int
    kind: MemoryKind
    in_use: bool = False
    owner: str | None = None  # space identifier while reserved
    mapped: bool = False  # monotonic: set on first reservation


@dataclass(slots=True)
class BindEvent:
    """Record of a chunk's first reservation (its backing-store bind)."""

    chunk_index: int
    kind: MemoryKind
    owner: str


class FreeList:
    """Free chunks of one memory kind, handed out lowest index first."""

    def __init__(self, kind: MemoryKind, chunks: list[ChunkDescriptor]):
        self.kind = kind
        self.chunks = chunks
        self._by_index = {c.index: c for c in chunks}
        self.free_indices = sorted(self._by_index)  # ascending

    @property
    def free_count(self) -> int:
        return len(self.free_indices)

    def reserve(self, owner: str) -> ChunkDescriptor:
        if not self.free_indices:
            raise OutOfChunks(f"no free {self.kind.value} chunk for {owner!r}")
        index = self.free_indices.pop(0)
        return self._hand_out(index, owner)

    def reserve_index(self, index: int, owner: str) -> ChunkDescriptor:
        """Reserve one specific chunk; used for boot-reserved ranges."""
        pos = bisect.bisect_left(self.free_indices, index)
        if pos >= len(self.free_indices) or self.free_indices[pos] != index:
            raise OutOfChunks(f"{self.kind.value} chunk {index} is not free")
        self.free_indices.pop(pos)
        return self._hand_out(index, owner)

    def _hand_out(self, index: int, owner: str) -> ChunkDescriptor:
        chunk = self._by_index[index]
        if chunk.in_use:
            raise InvariantError(f"{self.kind.value} chunk {index} is on the free list while in use")
        chunk.in_use = True
        chunk.owner = owner
        first_bind = not chunk.mapped
        chunk.mapped = True
        if first_bind:
            self.bind_log.append(BindEvent(index, self.kind, owner))
        return chunk

    def release(self, chunk: ChunkDescriptor) -> None:
        if not chunk.in_use:
            raise DoubleFree(f"chunk {chunk.index} released while free")
        if chunk.index not in self._by_index:
            raise ConfigError(f"chunk {chunk.index} does not belong to the {self.kind.value} list")
        chunk.in_use = False
        chunk.owner = None
        # mapped stays True: the backing store is kept for recycling
        bisect.insort(self.free_indices, chunk.index)

    # One bind log shared per layout; assigned by init_layout.
    bind_log: list[BindEvent]


@dataclass
class HeapLayout:
    """Geometry of the managed range plus its two chunk free lists."""

    heap_size: int
    chunk_size: int
    split: int  # lowest DRAM address; everything below is PCM
    chunks: list[ChunkDescriptor]
    dram: FreeList
    pcm: FreeList
    bind_log: list[BindEvent] = field(default_factory=list)

    def half_bounds(self, kind: MemoryKind) -> tuple[int, int]:
        """[lo, hi) of the half backed by ``kind``."""
        if kind is MemoryKind.PCM:
            return 0, self.split
        return self.split, self.heap_size

    def free_list_for(self, kind: MemoryKind) -> FreeList:
        return self.dram if kind is MemoryKind.DRAM else self.pcm

    def release_chunk(self, chunk: ChunkDescriptor) -> None:
        self.free_list_for(chunk.kind).release(chunk)

    def check_invariants(self) -> None:
        for free_list in (self.pcm, self.dram):
            free = [c.index for c in free_list.chunks if not c.in_use]
            if free_list.free_indices != free:
                raise InvariantError(f"{free_list.kind.value} free list disagrees with in_use")
        bound = {e.chunk_index for e in self.bind_log}
        if len(bound) != len(self.bind_log):
            raise InvariantError("chunk bound twice")
        for c in self.chunks:
            if c.in_use and (not c.mapped or c.owner is None):
                raise InvariantError(f"chunk {c.index} is in use but unmapped or unowned")


def init_layout(heap_size: int, chunk_size: int) -> HeapLayout:
    """Build the split address range with both halves fully free.

    ``heap_size`` must divide evenly into two halves of whole chunks.
    """
    if heap_size <= 0 or chunk_size <= 0:
        raise ConfigError("heap and chunk sizes must be positive")
    if heap_size % (2 * chunk_size) != 0:
        raise ConfigError(
            f"heap size {heap_size} is not divisible by twice the chunk size {chunk_size}"
        )
    n = heap_size // chunk_size
    split = heap_size // 2
    chunks = []
    for i in range(n):
        base = i * chunk_size
        kind = MemoryKind.PCM if base < split else MemoryKind.DRAM
        chunks.append(ChunkDescriptor(index=i, base=base, size=chunk_size, kind=kind))
    pcm = FreeList(MemoryKind.PCM, chunks[: n // 2])
    dram = FreeList(MemoryKind.DRAM, chunks[n // 2 :])
    layout = HeapLayout(
        heap_size=heap_size,
        chunk_size=chunk_size,
        split=split,
        chunks=chunks,
        dram=dram,
        pcm=pcm,
    )
    pcm.bind_log = layout.bind_log
    dram.bind_log = layout.bind_log
    return layout
