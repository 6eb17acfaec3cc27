"""State equivalence between the cache walk and the brute-force reference.

The model side is ``MemorySystem.access``/``drain`` over a ``CacheModel``.
After every access and after the drain, each set's residents must match
the reference's in recency order, instance, line and dirty state, so a
wrong victim or a lost recency update fails at the access that made it.
A dirty line must hold the id of the key it will be written back under,
``(instance, kind of its line, space that last wrote it)``.

The model knows no PCM/DRAM split and no meaning of a key id; the
reference knows the split. So the driver sends each access to the model
as a heap would send it: under the id of an ``(instance, kind, space)``
key, added to the model the first time the driver needs it, with the
kind of the side of the split the bytes are on. The driver keeps its
own table of what each id stands for, and decodes the model's held ids
and count lists through it. An access that straddles the split goes to
the model as two calls, its PCM part and then its DRAM part.
"""

import random

import pytest

from cache_reference import RefCache, RefCounters
from hybridgc.address_space import MemoryKind
from hybridgc.memory import CacheModel, MemorySystem

LINE = 64
PCM, DRAM = MemoryKind.PCM, MemoryKind.DRAM

# (capacity_lines, assoc) pairs, all at most 8 lines total
SMALL_GEOMETRIES = [(1, 1), (2, 1), (2, 2), (4, 2), (4, 4), (8, 2), (8, 8), (6, 3)]


SHORT_LENGTHS = (1, 4, 8, 32, 64, 96, 200)
# 16 to 64 lines each, so one access wraps the sets of every geometry
LONG_LENGTHS = (15 * LINE + 2, 16 * LINE, 23 * LINE - 1, 31 * LINE + 7, 40 * LINE, 63 * LINE - 3)


# A run of RUN lines, or more, can start anywhere in WIDE_SETS sets and
# either fit without wrapping or wrap past the last set.
RUN = 16
WIDE_SETS = 2 * RUN
WIDE_GEOMETRIES = [(WIDE_SETS, 1), (2 * WIDE_SETS, 2)]
# In lines: around RUN, around the set count, and past twice the set count
RUN_LINES = (RUN - 1, RUN, RUN + 1, WIDE_SETS - 1, WIDE_SETS, WIDE_SETS + 1, 2 * WIDE_SETS + 3)


def cached_system(lines, assoc, instances=1):
    return MemorySystem(CacheModel(lines * LINE, assoc, LINE, instances))


def model_access(model, ids, split, inst, addr, length, write, space):
    """Send one access to ``model`` as its heap would, each part of it under the key of its side of ``split``.

    ``split`` is line-aligned, as the reference's is. ``ids`` is the
    driver's table: it maps each ``(instance, kind, space)`` key the
    driver has added to the model to its id.
    """
    end = addr + length
    for lo, hi, kind in ((addr, min(end, split), PCM), (max(addr, split), end, DRAM)):
        if lo < hi:
            key = (inst, kind, space)
            if key not in ids:
                ids[key] = model.counters.add_key()
            model.access(inst, lo, hi - lo, write, ids[key])


def names_of(ids):
    """The driver's table turned around: the ``(instance, kind, space)`` key of each id."""
    return {kid: key for key, kid in ids.items()}


def model_state(system, ids):
    """Per set, ``(inst, line, held key)`` of each resident, least recent first.

    A resident's key is ``tag * instances + instance``; its line is decoded
    from the tag and the index of its set, a dirty line's held id through
    the driver's table ``ids``.
    """
    names = names_of(ids)
    n_sets = system.cache.n_sets
    instances = system.cache.instances
    return [
        [
            (key % instances, key // instances * n_sets + index, None if held is None else names[held])
            for key, held in cset.items()
        ]
        for index, cset in enumerate(system.cache.sets)
    ]


def by_key(ids, counts):
    """The nonzero entries of ``counts``, one of the model's count lists, by ``(instance, kind, space)``."""
    names = names_of(ids)
    return {names[kid]: n for kid, n in enumerate(counts) if n}


def by_pair(ids, counts):
    """The nonzero sums of ``counts`` by ``(instance, kind)``."""
    out = {}
    for (inst, kind, _space), n in by_key(ids, counts).items():
        out[inst, kind] = out.get((inst, kind), 0) + n
    return out


def expected_state(ref):
    """The reference's state with each dirty line's space replaced by the key it must hold."""
    return [
        [
            (inst, line, None if space is None else (inst, PCM if line < ref.split_line else DRAM, space))
            for inst, line, space in residents
        ]
        for residents in ref.state()
    ]


def run_pair(
    geometry,
    seed,
    n_accesses,
    instance_ids=(0, 1),
    addr_lines=32,
    split_lines=16,
    *,
    lengths=SHORT_LENGTHS,
    straddle=False,
):
    """Drive model and reference with one random access stream; compare.

    ``straddle`` makes every access cross the PCM/DRAM split. The model
    is built for ``max(instance_ids) + 1`` instances. Returns the number
    of accesses compared.
    """
    rng = random.Random(seed)
    split = split_lines * LINE
    top = addr_lines * LINE

    def accesses():
        for _ in range(n_accesses):
            inst = instance_ids[rng.randrange(len(instance_ids))]
            if straddle:
                addr = split - rng.randrange(1, 4 * LINE + 1)
                length = split - addr + rng.randrange(1, 4 * LINE + 1)
            else:
                addr = rng.randrange(top)
                length = rng.choice(lengths)
            length = min(length, top - addr)
            if length:
                yield inst, addr, length, rng.random() < 0.5, rng.choice(("a", "b"))

    return compare(geometry, split, accesses(), max(instance_ids) + 1)


def compare(geometry, split, accesses, instances=2):
    """Drive model and reference with ``(inst, addr, length, write, space)`` accesses; compare.

    The model is built for ``instances``, above every ``inst`` of the
    accesses. Returns the number of accesses compared.
    """
    lines, assoc = geometry
    model = cached_system(lines, assoc, instances)
    ref = RefCache(lines * LINE, assoc, LINE, split)
    mc, rc = model.counters, RefCounters()
    ids = {}
    compared = 0
    for inst, addr, length, write, space in accesses:
        model_access(model, ids, split, inst, addr, length, write, space)
        ref.access(rc, inst, addr, length, write, space)
        assert model_state(model, ids) == expected_state(ref)
        compared += 1
    assert by_key(ids, mc.written) == rc.write_bytes and mc.writebacks == rc.writebacks
    assert model.drain() == ref.drain(rc)
    # the drain writes back and invalidates every line
    assert model_state(model, ids) == expected_state(ref) == [[] for _ in range(ref.n_sets)]
    assert by_key(ids, mc.written) == rc.write_bytes
    assert by_key(ids, mc.read) == rc.read_bytes
    # the reference keeps demand and absorbed bytes by (instance, kind)
    demand, absorbed, written = (by_pair(ids, counts) for counts in (mc.demand, mc.absorbed, mc.written))
    assert demand == rc.demand_write_bytes and absorbed == rc.absorbed_write_bytes
    assert mc.fills == rc.fills and mc.writebacks == rc.writebacks
    # write conservation per (instance, kind), as each heap checks it after the drain
    for pair in demand.keys() | written.keys():
        assert demand.get(pair, 0) == absorbed.get(pair, 0) + written.get(pair, 0), pair
    return compared


@pytest.mark.parametrize("geometry", SMALL_GEOMETRIES)
def test_model_matches_reference(geometry):
    for seed in (1, 2, 7, 8):
        run_pair(geometry, seed, 3_000)


def test_cyclic_writes_through_two_line_direct_mapped():
    """Three lines cycled through 2 direct-mapped lines thrash predictably."""
    model = cached_system(2, 1)
    ref = RefCache(2 * LINE, 1, LINE, split=1 << 30)
    rc = RefCounters()
    ids = {(0, PCM, "s"): model.counters.add_key()}
    for _ in range(4):
        for line in (0, 1, 2):
            model.access(0, line * LINE, 8, True, ids[0, PCM, "s"])
            ref.access(rc, 0, line * LINE, 8, True, "s")
            assert model_state(model, ids) == expected_state(ref)
    # lines 0 and 2 share set 0 and evict each other every round, while
    # line 1 stays resident in set 1 after its one fill
    counters = model.counters
    assert counters.writebacks == rc.writebacks == 7
    assert counters.fills == rc.fills == 9
    assert model_state(model, ids) == [[(0, 2, (0, PCM, "s"))], [(0, 1, (0, PCM, "s"))]]


def test_full_oracle_load():
    """The acceptance-scale load: >= 1e5 accesses across 10 seeds, each state-checked."""
    total = 0
    for seed in range(10):
        geometry = SMALL_GEOMETRIES[seed % len(SMALL_GEOMETRIES)]
        total += run_pair(geometry, seed, 10_500)
    assert total >= 100_000


@pytest.mark.parametrize("geometry", SMALL_GEOMETRIES)
def test_long_accesses_wrap_the_sets(geometry):
    for seed in (3, 4, 7, 8):
        run_pair(geometry, seed, 400, addr_lines=160, split_lines=80, lengths=LONG_LENGTHS)


@pytest.mark.parametrize("geometry", SMALL_GEOMETRIES)
def test_accesses_straddling_the_split(geometry):
    for seed in (5, 6, 7, 8):
        run_pair(geometry, seed, 1_500, straddle=True)


@pytest.mark.parametrize("geometry", SMALL_GEOMETRIES + WIDE_GEOMETRIES)
def test_extreme_instance_ids_stay_apart(geometry):
    """Line keys are ``tag * instances + instance``: no two (tag, instance) pairs alias.

    The ids are spread over an odd instance count, up to the highest, or
    are the one instance of a cache. Long accesses wrap the sets of every
    geometry, so the key's step to the next tag at a wrap is checked too.
    """
    for instance_ids in ((0, 1, 500, 998), (0,)):
        for seed in (9, 10):
            run_pair(geometry, seed, 1_000, instance_ids=instance_ids)
            run_pair(geometry, seed, 600, instance_ids=instance_ids, straddle=True)
            run_pair(geometry, seed, 300, instance_ids, 160, 80, lengths=LONG_LENGTHS)


def line_access(rng, first_line, lines):
    """A random access to ``lines`` whole lines from ``first_line``."""
    inst = rng.randrange(2)
    return inst, first_line * LINE, lines * LINE, rng.random() < 0.5, rng.choice(("a", "b"))


@pytest.mark.parametrize("geometry", WIDE_GEOMETRIES)
def test_long_runs_that_fit_wrap_and_outgrow_the_sets(geometry):
    """Runs of ``RUN_LINES`` that fit in the sets, wrap past the last set once or twice, or outnumber the sets."""
    rng = random.Random(11)
    shapes = set()
    accesses = []
    for _ in range(600):
        lines = rng.choice(RUN_LINES)
        if lines <= WIDE_SETS and rng.random() < 0.5:
            start = rng.randrange(WIDE_SETS - lines + 1)  # fits
        else:
            start = rng.randrange(max(WIDE_SETS - lines + 1, 0), WIDE_SETS)  # from the last sets
        first = rng.randrange(8) * WIDE_SETS + start
        wraps = (start + lines - 1) // WIDE_SETS
        shapes.add((min(wraps, 2), lines > WIDE_SETS))
        accesses.append(line_access(rng, first, lines))
    # fits, wraps once, wraps once past the set count, wraps at least twice
    assert {(0, False), (1, False), (1, True), (2, True)} <= shapes
    assert compare(geometry, 4 * WIDE_SETS * LINE, accesses) == 600


@pytest.mark.parametrize("geometry", WIDE_GEOMETRIES)
def test_long_and_short_parts_straddling_the_split(geometry):
    """A long PCM part with a short DRAM part, and the reverse.

    The split is RUN sets into a round of the sets, so a long part of
    exactly RUN lines fits on either side of it and a longer one wraps.
    """
    rng = random.Random(12)
    split_line = 3 * WIDE_SETS + RUN
    accesses = []
    for _ in range(600):
        long_part = rng.choice(RUN_LINES[1:])
        short_part = rng.randrange(1, RUN)
        pcm, dram = (long_part, short_part) if rng.random() < 0.5 else (short_part, long_part)
        accesses.append(line_access(rng, split_line - pcm, pcm + dram))
    assert compare(geometry, split_line * LINE, accesses) == 600
