import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridgc.address_space import MemoryKind, init_layout
from hybridgc.errors import ConfigError, DoubleFree, InvariantError, OutOfChunks
from support import small_heap


def test_two_chunk_layout():
    layout = init_layout(512, 256)
    assert layout.split == 256
    assert len(layout.chunks) == 2
    assert layout.chunks[0].kind is MemoryKind.PCM
    assert layout.chunks[1].kind is MemoryKind.DRAM
    assert layout.pcm.chunks == layout.chunks[:1] and layout.dram.chunks == layout.chunks[1:]
    assert layout.pcm.free_indices == [0] and layout.dram.free_indices == [1]


def test_half_bounds_boundaries():
    layout = init_layout(512, 256)
    assert layout.half_bounds(MemoryKind.PCM) == (0, 256)
    assert layout.half_bounds(MemoryKind.DRAM) == (256, 512)

    def halves(addr):
        return [kind for kind in MemoryKind if layout.half_bounds(kind)[0] <= addr < layout.half_bounds(kind)[1]]

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
        init_layout(768, 512)  # halves of 384 are not whole 512B chunks
    with pytest.raises(ConfigError):
        init_layout(0, 256)
    init_layout(1024, 256)  # fine: two whole chunks per half


def test_reserve_lowest_first_and_exhaustion():
    layout = init_layout(8 * 256, 256)  # 4 chunks per half
    got = [layout.pcm.reserve("s").index for _ in range(4)]
    assert got == [0, 1, 2, 3]
    with pytest.raises(OutOfChunks):
        layout.pcm.reserve("s")
    # DRAM list is untouched by PCM exhaustion
    assert layout.dram.free_count == 4


def test_release_recycles_without_unmapping():
    layout = init_layout(4 * 256, 256)
    a = layout.pcm.reserve("x")
    b = layout.pcm.reserve("x")
    layout.pcm.release(a)
    assert a.mapped and not a.in_use and a.owner is None
    again = layout.pcm.reserve("y")
    assert again is a  # lowest free index comes back first
    # recycling must not log a second bind
    assert len([e for e in layout.bind_log if e.chunk_index == a.index]) == 1
    assert len(layout.bind_log) == 2
    layout.pcm.release(b)
    layout.pcm.release(again)
    with pytest.raises(DoubleFree):
        layout.pcm.release(again)


def test_reserve_index_and_range():
    layout = init_layout(8 * 256, 256)
    c = layout.pcm.reserve_index(2, "boot")
    assert c.index == 2
    with pytest.raises(OutOfChunks):
        layout.pcm.reserve_index(2, "boot")
    # a range is reserved one index at a time, each from its own half
    spanning = [layout.dram.reserve_index(i, "nursery") for i in (4, 5, 6)]
    assert [c.index for c in spanning] == [4, 5, 6]
    assert all(c.kind is MemoryKind.DRAM and c.owner == "nursery" for c in spanning)
    assert layout.dram.free_indices == [7]
    with pytest.raises(OutOfChunks):
        layout.pcm.reserve_index(4, "wrong-half")  # a DRAM index
    with pytest.raises(OutOfChunks):
        layout.dram.reserve_index(8, "over")  # past the top of the heap
    layout.check_invariants()


def test_chunk_at():
    """Chunk ``addr // chunk_size`` covers ``addr``; a heap reserves the ones under its fixed spaces."""
    layout = init_layout(4 * 256, 256)
    for addr, index in ((0, 0), (255, 0), (256, 1), (1023, 3)):
        chunk = layout.chunks[addr // layout.chunk_size]
        assert chunk.index == index and chunk.base <= addr < chunk.base + chunk.size
    heap, _ = small_heap("KG-N")  # 64 KiB chunks, young and boot in DRAM
    chunks = heap.layout.chunks
    for space in (heap.boot_space, heap.nursery):
        covering = chunks[space.lo // heap.layout.chunk_size : (space.hi - 1) // heap.layout.chunk_size + 1]
        assert covering and all(c.in_use and c.owner == space.name for c in covering)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=60))
def test_reserve_release_conserves_chunks(script):
    """Random reserve/release interleavings keep the accounting identity."""
    layout = init_layout(8 * 256, 256)
    held = []
    for step in script:
        if step < 6 or not held:  # bias toward reserving
            if layout.pcm.free_count:
                held.append(layout.pcm.reserve("t"))
        else:
            layout.pcm.release(held.pop(step % len(held)))
        layout.check_invariants()
    # a full drain always succeeds
    for c in held:
        layout.pcm.release(c)
    assert layout.pcm.free_count == len(layout.pcm.chunks)


def test_exhaustion_is_deterministic():
    """Reserving N+1 chunks from N free ones fails exactly on the last call."""
    layout = init_layout(12 * 256, 256)
    n = layout.dram.free_count
    for _ in range(n):
        layout.dram.reserve("s")
    with pytest.raises(OutOfChunks):
        layout.dram.reserve("s")


@pytest.mark.parametrize("corrupt", ["in_use_cleared", "in_use_index_freed"])
def test_invariants_reject_a_free_list_out_of_step_with_its_chunks(corrupt):
    layout = init_layout(8 * 256, 256)
    held = [layout.pcm.reserve("t"), layout.dram.reserve_index(6, "t")]
    layout.check_invariants()
    if corrupt == "in_use_cleared":
        held[0].in_use = False  # the free list still holds it out
    else:
        layout.dram.free_indices.insert(2, 6)  # handed out again while in use
    with pytest.raises(InvariantError, match="free list disagrees with in_use"):
        layout.check_invariants()
