import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridgc.address_space import MemoryKind, init_layout
from hybridgc.errors import AddressRangeError, ConfigError, DoubleFree, OutOfChunks


def test_two_chunk_layout():
    layout = init_layout(512, 256)
    assert layout.split == 256
    assert len(layout.chunks) == 2
    assert layout.chunks[0].kind is MemoryKind.PCM
    assert layout.chunks[1].kind is MemoryKind.DRAM
    assert layout.pcm.total == 1 and layout.dram.total == 1


def test_region_of_boundaries():
    layout = init_layout(512, 256)
    assert layout.region_of(0) is MemoryKind.PCM
    assert layout.region_of(255) is MemoryKind.PCM
    # the split address itself belongs to the DRAM half
    assert layout.region_of(256) is MemoryKind.DRAM
    assert layout.region_of(511) is MemoryKind.DRAM
    assert layout.region_of(300) is MemoryKind.DRAM
    for bad in (-1, 512, 10_000):
        with pytest.raises(AddressRangeError):
            layout.region_of(bad)


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
    spanning = layout.reserve_range(1024 + 10, 1024 + 600, "nursery")
    assert [c.index for c in spanning] == [4, 5, 6]
    assert all(c.kind is MemoryKind.DRAM for c in spanning)
    with pytest.raises(AddressRangeError):
        layout.reserve_range(0, 4096 + 1, "over")


def test_chunk_at():
    layout = init_layout(4 * 256, 256)
    assert layout.chunk_at(0).index == 0
    assert layout.chunk_at(255).index == 0
    assert layout.chunk_at(256).index == 1
    with pytest.raises(AddressRangeError):
        layout.chunk_at(1024)


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
        assert layout.pcm.free_count + layout.pcm.in_use_count == layout.pcm.total
        layout.check_invariants()
    # a full drain always succeeds
    for c in held:
        layout.pcm.release(c)
    assert layout.pcm.free_count == layout.pcm.total


def test_exhaustion_is_deterministic():
    """Reserving N+1 chunks from N free ones fails exactly on the last call."""
    layout = init_layout(12 * 256, 256)
    n = layout.dram.free_count
    for _ in range(n):
        layout.dram.reserve("s")
    with pytest.raises(OutOfChunks):
        layout.dram.reserve("s")
