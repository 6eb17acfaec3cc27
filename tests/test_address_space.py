import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridgc.address_space import HeapLayout, MemoryKind
from hybridgc.errors import ConfigError, HeapExhausted, InvariantError
from hybridgc.heap import LOS_PCM, MATURE_DRAM, MATURE_PCM
from support import small_heap


def test_two_chunk_layout():
    layout = HeapLayout(512, 256)
    assert layout.pcm.kind is MemoryKind.PCM and layout.dram.kind is MemoryKind.DRAM
    assert layout.pcm.indices == range(1) and layout.dram.indices == range(1, 2)
    assert layout.pcm.free_indices == [0] and layout.dram.free_indices == [1]
    assert layout.pcm.chunk_size == layout.dram.chunk_size == 256
    for kind in MemoryKind:
        assert layout.free_list_for(kind).kind is kind


def test_half_bounds_boundaries():
    layout = HeapLayout(512, 256)
    assert (layout.pcm.lo, layout.pcm.hi) == (0, 256)
    assert (layout.dram.lo, layout.dram.hi) == (256, 512)

    def halves(addr):
        return [half.kind for half in (layout.pcm, layout.dram) if half.lo <= addr < half.hi]

    assert halves(0) == [MemoryKind.PCM]
    assert halves(255) == [MemoryKind.PCM]
    # the split address itself belongs to the DRAM half
    assert halves(256) == [MemoryKind.DRAM]
    assert halves(511) == [MemoryKind.DRAM]
    assert halves(300) == [MemoryKind.DRAM]
    for bad in (-1, 512, 10_000):
        assert halves(bad) == []  # outside the heap: in neither half


def test_layout_must_split_into_whole_chunks():
    with pytest.raises(ConfigError):
        HeapLayout(768, 512)  # halves of 384 are not whole 512B chunks
    with pytest.raises(ConfigError):
        HeapLayout(0, 256)
    HeapLayout(1024, 256)  # fine: two whole chunks per half


def test_reserve_lowest_first_and_exhaustion():
    layout = HeapLayout(8 * 256, 256)  # 4 chunks per half
    got = [layout.pcm.reserve("s") for _ in range(4)]
    assert got == [0, 1, 2, 3]
    with pytest.raises(HeapExhausted, match="no free PCM chunk for 's'"):
        layout.pcm.reserve("s")
    # DRAM list is untouched by PCM exhaustion
    assert len(layout.dram.free_indices) == 4


def test_release_recycles_without_unmapping():
    layout = HeapLayout(4 * 256, 256)
    a = layout.pcm.reserve("x")
    b = layout.pcm.reserve("x")
    layout.pcm.release(a)
    assert layout.pcm.free_indices == [a]
    again = layout.pcm.reserve("y")
    assert again == a  # lowest free index comes back first
    with pytest.raises(InvariantError, match=f"chunk {b} does not belong to the DRAM list"):
        layout.dram.release(b)  # a PCM index
    assert layout.dram.free_indices == [2, 3]
    layout.pcm.release(b)
    layout.pcm.release(again)
    with pytest.raises(InvariantError, match=f"chunk {again} released while free"):
        layout.pcm.release(again)
    assert layout.pcm.free_indices == [0, 1]


def test_reserve_index_and_range():
    layout = HeapLayout(8 * 256, 256)
    layout.pcm.reserve_index(2, "boot")
    assert layout.pcm.free_indices == [0, 1, 3]
    with pytest.raises(InvariantError, match="PCM chunk 2 is not free for 'boot'"):
        layout.pcm.reserve_index(2, "boot")
    # a range is reserved one index at a time, each from its own half
    for i in (4, 5, 6):
        layout.dram.reserve_index(i, "nursery")
    assert layout.dram.free_indices == [7]
    with pytest.raises(InvariantError, match="PCM chunk 4 is not free for 'wrong-half'"):
        layout.pcm.reserve_index(4, "wrong-half")  # a DRAM index
    with pytest.raises(InvariantError, match="DRAM chunk 8 is not free for 'over'"):
        layout.dram.reserve_index(8, "over")  # past the top of the heap
    assert layout.pcm.free_indices == [0, 1, 3] and layout.dram.free_indices == [7]


def test_chunk_at():
    """Chunk ``addr // chunk_size`` covers ``addr``; a heap reserves the ones under its fixed spaces."""
    layout = HeapLayout(4 * 256, 256)
    for addr, index, kind in ((0, 0, MemoryKind.PCM), (255, 0, MemoryKind.PCM), (256, 1, MemoryKind.PCM),
                              (512, 2, MemoryKind.DRAM), (1023, 3, MemoryKind.DRAM)):  # fmt: skip
        assert addr // layout.chunk_size == index and index in layout.free_list_for(kind).indices
    heap, _ = small_heap("KG-N")  # 64 KiB chunks, young and boot in DRAM
    size = heap.layout.chunk_size
    covering = set()
    for space in (heap.boot_space, heap.nursery):
        covering.update(range(space.lo // size, (space.hi - 1) // size + 1))
    assert covering and heap.reserved == covering
    assert covering.isdisjoint(heap.layout.dram.free_indices)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=60))
def test_reserve_release_conserves_chunks(script):
    """Random reserve/release interleavings keep the accounting identity."""
    layout = HeapLayout(8 * 256, 256)
    held = []
    for step in script:
        if step < 6 or not held:  # bias toward reserving
            if layout.pcm.free_indices:
                held.append(layout.pcm.reserve("t"))
        else:
            layout.pcm.release(held.pop(step % len(held)))
        # free stays ascending, and free and held cover the half once
        assert layout.pcm.free_indices == sorted(layout.pcm.free_indices)
        assert sorted(layout.pcm.free_indices + held) == list(layout.pcm.indices)
    # a full drain always succeeds
    for c in held:
        layout.pcm.release(c)
    assert layout.pcm.free_indices == list(layout.pcm.indices)


def test_exhaustion_is_deterministic():
    """Reserving N+1 chunks from N free ones fails exactly on the last call."""
    layout = HeapLayout(12 * 256, 256)
    n = len(layout.dram.free_indices)
    for _ in range(n):
        layout.dram.reserve("s")
    with pytest.raises(HeapExhausted, match="no free DRAM chunk for 's'"):
        layout.dram.reserve("s")


@pytest.mark.parametrize("corrupt", ["in_use_cleared", "in_use_index_freed", "held_twice", "fixed_freed", "wrong_half"])
def test_invariants_reject_a_free_list_out_of_step_with_its_chunks(corrupt):
    """The heap's partition check names the chunk that is in no place, or in two."""
    heap, _ = small_heap("KG-W")  # 128 chunks of 64 KiB; DRAM from index 64
    layout = heap.layout
    spaces = heap.spaces
    spaces[MATURE_PCM].alloc(64)
    spaces[MATURE_DRAM].alloc(64)
    held = spaces[MATURE_PCM].chunks[0]
    heap.check_placement()
    if corrupt == "in_use_cleared":
        spaces[MATURE_PCM].chunks.remove(held)  # leaked: neither free nor held
        check = f"chunk {held} is neither free nor held"
    elif corrupt == "in_use_index_freed":
        layout.pcm.release(held)  # handed back while its space still holds it
        check = f"chunk {held} is both free PCM and {MATURE_PCM}"
    elif corrupt == "held_twice":
        spaces[LOS_PCM].chunks.append(held)
        check = f"chunk {held} is both {MATURE_PCM} and {LOS_PCM}"
    elif corrupt == "fixed_freed":
        fixed = min(heap.reserved)
        layout.dram.release(fixed)  # the boot image's chunk, free for the taking
        check = f"chunk {fixed} is both fixed and free DRAM"
    else:
        wrong = layout.dram.reserve("t")
        spaces[MATURE_PCM].chunks.append(wrong)
        check = f"chunk {wrong} of {MATURE_PCM} lies outside the PCM half"
    with pytest.raises(InvariantError, match=check):
        heap.check_placement()
