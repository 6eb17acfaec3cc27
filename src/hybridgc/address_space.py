"""Chunked virtual address range split between DRAM and PCM.

The managed heap is one contiguous range starting at address 0. The low
half is backed by PCM, the high half by DRAM, and each half is carved
into fixed-size chunks. A chunk is its index: chunk ``i`` covers
``[i * chunk_size, (i + 1) * chunk_size)``. Each half is a ``FreeList``
that holds its kind, chunk size, address range ``[lo, hi)`` and free
indices, in ascending order; ``HeapLayout`` validates the geometry and
builds both. On-demand spaces take the lowest free index
(``FreeList.reserve``); the heap claims its fixed spaces' chunks one
index at a time (``FreeList.reserve_index``). Who holds a chunk that is
not free is the heap's to know; ``HeapInstance.check_placement`` checks
that the free indices and the held chunks cover every index once.
"""

from __future__ import annotations

import bisect
from enum import Enum

from .errors import ConfigError, HeapExhausted, InvariantError


class MemoryKind(Enum):
    DRAM = "DRAM"
    PCM = "PCM"


class FreeList:
    """Free chunk indices of one memory kind's half, handed out lowest first."""

    def __init__(self, kind: MemoryKind, indices: range, chunk_size: int):
        self.kind = kind
        self.indices = indices  # every chunk of this half, free or not
        self.free_indices = list(indices)  # ascending
        self.chunk_size = chunk_size
        self.lo = indices.start * chunk_size  # [lo, hi): the half's addresses
        self.hi = indices.stop * chunk_size

    def reserve(self, owner: str) -> int:
        """Take the lowest free index; ``owner`` only names the caller in the error."""
        if not self.free_indices:
            raise HeapExhausted(f"no free {self.kind.value} chunk for {owner!r}")
        return self.free_indices.pop(0)

    def reserve_index(self, index: int, owner: str) -> None:
        """Take chunk ``index``; used for boot-reserved ranges."""
        pos = bisect.bisect_left(self.free_indices, index)
        if pos >= len(self.free_indices) or self.free_indices[pos] != index:
            raise InvariantError(f"{self.kind.value} chunk {index} is not free for {owner!r}")
        del self.free_indices[pos]

    def release(self, index: int) -> None:
        if index not in self.indices:
            raise InvariantError(f"chunk {index} does not belong to the {self.kind.value} list")
        pos = bisect.bisect_left(self.free_indices, index)
        if pos < len(self.free_indices) and self.free_indices[pos] == index:
            raise InvariantError(f"chunk {index} released while free")
        self.free_indices.insert(pos, index)


class HeapLayout:
    """The split address range: PCM below ``heap_size // 2``, DRAM above, both fully free.

    ``heap_size`` must divide evenly into two halves of whole chunks.
    """

    def __init__(self, heap_size: int, chunk_size: int) -> None:
        if heap_size <= 0 or chunk_size <= 0:
            raise ConfigError("heap and chunk sizes must be positive")
        if heap_size % (2 * chunk_size) != 0:
            raise ConfigError(
                f"heap size {heap_size} is not divisible by twice the chunk size {chunk_size}"
            )
        self.heap_size = heap_size
        self.chunk_size = chunk_size
        n = heap_size // chunk_size
        self.pcm = FreeList(MemoryKind.PCM, range(n // 2), chunk_size)
        self.dram = FreeList(MemoryKind.DRAM, range(n // 2, n), chunk_size)

    def free_list_for(self, kind: MemoryKind) -> FreeList:
        return self.dram if kind is MemoryKind.DRAM else self.pcm
