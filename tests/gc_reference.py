"""Independent references for the collector: reachability and copy traffic.

``ShadowGraph`` replays only the structural side of a trace (allocations,
reference stores, root flips), with no spaces, addresses, or write
barriers, so expected live sets can be computed without trusting the
collector. ``reference_move`` copies survivors the plain way, a read and
a write per copy, for the engine's grouped copies to be checked against.
"""

import random

from hybridgc import workloads as wl
from hybridgc.config import Collector
from hybridgc.errors import HeapExhausted
from hybridgc.heap import BOOT_OBJECT_REFS

from support import KIB, MIB, small_heap


class ShadowGraph:
    def __init__(self, boot_ids):
        self.slots: dict[int, list[int]] = {oid: [0] * BOOT_OBJECT_REFS for oid in boot_ids}
        self.boot_ids = list(boot_ids)
        self.roots: set[int] = set()

    def apply(self, op):
        match op:
            case (wl.ALLOC, oid, _, n, _):
                self.slots[oid] = [0] * n
            case (wl.REF, parent, slot, child):
                self.slots[parent][slot] = child
            case (wl.ROOT, oid):
                self.roots.add(oid)
            case (wl.UNROOT, oid):
                self.roots.discard(oid)
            case (wl.WRITE | wl.READ, _, _, _):
                pass

    def reachable(self) -> set[int]:
        """Everything a full collection must keep; boot objects are roots."""
        live: set[int] = set()
        stack = list(self.roots) + self.boot_ids
        while stack:
            oid = stack.pop()
            if oid in live:
                continue
            live.add(oid)
            stack.extend(child for child in self.slots[oid] if child)
        return live

    def young_live(self, heap) -> set[int]:
        """What a minor collection must keep, given the heap's placements.

        Seeds are young roots plus every young child referenced from any
        object outside the young region; the walk then stays young. This
        is exactly the guarantee the write barrier has to uphold.
        """

        lo, hi = young_range(heap)

        def young(oid: int) -> bool:
            rec = heap.objects.get(oid)
            return rec is not None and lo <= rec.addr < hi

        stack = [oid for oid in self.roots if young(oid)]
        for pid, rec in heap.objects.items():
            if young(pid):
                continue
            stack.extend(c for c in self.slots[pid] if c and young(c))
        live: set[int] = set()
        while stack:
            oid = stack.pop()
            if oid in live:
                continue
            live.add(oid)
            stack.extend(c for c in self.slots[oid] if c and young(c))
        return live


def reference_move(engine, moves, stats) -> None:
    """``GcEngine._move`` without copy groups: each copy reads its source and writes its destination."""
    heap = engine.heap
    system = heap.system
    stats.bytes_copied_total += sum(rec.size for rec, _dest in moves)
    for rec, dest in moves:
        new_addr = dest.alloc(rec.size)
        assert new_addr is not None
        system.access(heap.instance_id, rec.addr, rec.size, False, rec.space.kid, collector=True)
        system.access(heap.instance_id, new_addr, rec.size, True, dest.kid, collector=True)
        if system.include_collector_time:
            system.now_ns += system.op_cost_ns + 2 * rec.size * system.byte_cost_ns
        rec.addr = new_addr
        rec.space = dest
        rec.write_count = 0


def young_range(heap) -> tuple[int, int]:
    """[lo, hi) of the young region, from the bounds of the nursery and of the observer below it."""
    return (heap.observer or heap.nursery).lo, heap.nursery.hi


def boot_id(rng: random.Random, boot_count: int) -> int:
    """A boot object id: the image's first or last, or any in between."""
    r = rng.random()
    if r < 0.25:
        return -1
    if r < 0.5:
        return -boot_count
    return -rng.randrange(1, boot_count + 1)


def random_ops(rng: random.Random, n_objects: int, boot_count: int) -> list:
    """A structured-random trace that only ever touches live ids.

    Boot parents and boot children are drawn from the whole image of
    ``boot_count`` objects, its first and last ids included.
    """
    ops = []
    rooted: list[int] = []
    meta: dict[int, tuple[int, int]] = {}  # id -> (size, n_slots)
    for oid in range(1, n_objects + 1):
        if rng.random() < 0.06:
            n_slots = rng.randrange(0, 3)
            size = rng.randrange(4 * KIB, 20 * KIB)  # a quarter fit the 8 KiB LOO nursery cap
            large = True
        else:
            n_slots = rng.randrange(0, 4)
            size = max(rng.randrange(16, 512), 16 + 8 * n_slots)
            large = False
        ops.append((wl.ALLOC, oid, size, n_slots, large))
        ops.append((wl.ROOT, oid))
        rooted.append(oid)
        meta[oid] = (size, n_slots)

        for _ in range(rng.randrange(0, 5)):
            r = rng.random()
            tid = rooted[rng.randrange(len(rooted))]
            tsize, tslots = meta[tid]
            if r < 0.30:
                length = min(tsize, rng.choice((8, 32, 64)))
                ops.append((wl.WRITE, tid, rng.randrange(0, tsize - length + 1), length))
            elif r < 0.45:
                length = min(tsize, 32)
                ops.append((wl.READ, tid, rng.randrange(0, tsize - length + 1), length))
            elif r < 0.80:
                if rng.random() < 0.15:
                    pid, pslots = boot_id(rng, boot_count), BOOT_OBJECT_REFS
                else:
                    pid = rooted[rng.randrange(len(rooted))]
                    pslots = meta[pid][1]
                if pslots == 0:
                    continue
                c = rng.random()
                if c < 0.15:
                    child = 0
                elif c < 0.25:
                    child = boot_id(rng, boot_count)
                else:
                    child = rooted[rng.randrange(len(rooted))]
                ops.append((wl.REF, pid, rng.randrange(pslots), child))
                if child > 0 and child != pid and len(rooted) > 4 and rng.random() < 0.4:
                    # now held only through that edge, or garbage once
                    # the slot is overwritten; either way never targeted again
                    ops.append((wl.UNROOT, child))
                    rooted.remove(child)
            elif len(rooted) > 4:
                victim = rooted.pop(rng.randrange(len(rooted)))
                ops.append((wl.UNROOT, victim))
    return ops


def apply_op(heap, op) -> None:
    match op:
        case (wl.ALLOC, oid, size, n_refs, large):
            heap.alloc_object(oid, size, n_refs, large)
        case (wl.WRITE, oid, offset, length):
            heap.write_data(oid, offset, length)
        case (wl.READ, oid, offset, length):
            heap.read_data(oid, offset, length)
        case (wl.REF, parent, slot, child):
            heap.write_ref(parent, slot, child)
        case (wl.ROOT, oid):
            heap.set_root(oid, True)
        case (wl.UNROOT, oid):
            heap.set_root(oid, False)


def check_young_list(heap) -> None:
    """``heap.young`` is exactly the records in the young region, in address order."""
    lo, hi = young_range(heap)
    expected = sorted((rec for rec in heap.objects.values() if lo <= rec.addr < hi), key=lambda r: r.addr)
    assert list(map(id, heap.young)) == list(map(id, expected)), (
        [r.id for r in heap.young],
        [r.id for r in expected],
    )


def check_spaces(heap) -> None:
    """Each record's space is its own heap's space object, and is young
    exactly when the record's address is in the young region."""
    lo, hi = young_range(heap)
    for rec in heap.objects.values():
        space = rec.space
        assert space is heap.spaces[space.name], (rec.id, space.name)
        assert space.young == (lo <= rec.addr < hi), (rec.id, space.name, hex(rec.addr))


def check_collections(seed: int, variant: str, n_objects: int = 1500) -> dict[str, int]:
    """Run one random trace, asserting every live set against the shadow.

    After every op the heap's young list must also match its objects, and
    after every op that collected, each record its space.

    Returns how many collections of each kind were checked.
    """
    # the B variants triple their nursery; keep every effective nursery near 64 KiB
    multiplier = Collector.from_name(variant).nursery_multiplier
    heap, _ = small_heap(
        variant,
        nursery=(64 * KIB // multiplier) & ~7,
        observer_multiplier=1.0,
        budget=1 * MIB,
        heap_size=16 * MIB,
        chunk_size=64 * KIB,
        zeroing=False,
    )
    ops = random_ops(random.Random(seed), n_objects, len(heap.boot_ids))
    shadow = ShadowGraph(heap.boot_ids)
    checks = {"minor": 0, "major": 0}

    def hook(kind: str, live: frozenset) -> None:
        expected = shadow.reachable() if kind == "major" else shadow.young_live(heap)
        assert live == expected, f"{kind} live set mismatch (seed {seed}, {variant})"
        for oid in live:
            rec = heap.objects.get(oid)
            if rec is None:  # a boot object no op has named: all slots null
                assert oid in heap.boot_ids and not any(shadow.slots[oid])
            else:
                assert rec.refs == shadow.slots[oid]
        checks[kind] += 1

    heap.gc.inspect_hook = hook
    collections = 0
    try:
        for op in ops:
            apply_op(heap, op)
            shadow.apply(op)
            check_young_list(heap)
            if len(heap.gc.collections) > collections:
                collections = len(heap.gc.collections)
                check_spaces(heap)
        heap.gc.collect_major()
    except HeapExhausted:
        pass
    check_young_list(heap)
    check_spaces(heap)
    heap.check_placement()
    heap.check_write_conservation()
    return checks
