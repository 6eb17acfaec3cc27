"""Brute-force cache reference used by the equivalence oracles.

Deliberately structured nothing like the production model: a flat entry
list with explicit recency stamps and linear scans, so a shared bug is
implausible. It reproduces the same observable behavior: per-line
demand/absorb/writeback accounting, each set's residents in recency
order with their dirty state, and drains that write back every dirty
line and empty the cache. Its counters are plain dicts, keyed by
``(instance, kind, space)`` or, for demand and absorbed bytes, by
``(instance, kind)``, so no list or key id is shared with the model.
"""

from hybridgc.address_space import MemoryKind


class RefCounters:
    """The reference's traffic counts, in dicts rather than ``TrafficCounters``' lists."""

    def __init__(self):
        self.write_bytes: dict = {}
        self.read_bytes: dict = {}
        self.demand_write_bytes: dict = {}
        self.absorbed_write_bytes: dict = {}
        self.fills = 0
        self.writebacks = 0


class RefCache:
    def __init__(self, capacity: int, assoc: int, line_size: int, split: int):
        assert capacity > 0 and capacity % (assoc * line_size) == 0
        self.assoc = assoc
        self.line_size = line_size
        self.split_line = split // line_size
        self.n_sets = capacity // (assoc * line_size)
        # each entry: [inst, line, dirty, space, stamp]
        self.entries: list[list] = []
        self.tick = 0

    def _kind(self, line: int) -> MemoryKind:
        return MemoryKind.PCM if line < self.split_line else MemoryKind.DRAM

    def _find(self, inst: int, line: int):
        for e in self.entries:
            if e[0] == inst and e[1] == line:
                return e
        return None

    def _set_members(self, set_index: int):
        return [e for e in self.entries if e[1] % self.n_sets == set_index]

    def access(self, counters, inst, addr, length, write, space):
        if length <= 0:
            return
        first = addr // self.line_size
        last = (addr + length - 1) // self.line_size
        for line in range(first, last + 1):
            self.tick += 1
            kind = self._kind(line)
            if write:
                key = (inst, kind)
                counters.demand_write_bytes[key] = (
                    counters.demand_write_bytes.get(key, 0) + self.line_size
                )
            entry = self._find(inst, line)
            if entry is not None:
                entry[4] = self.tick
                if write:
                    if entry[2]:
                        key = (inst, kind)
                        counters.absorbed_write_bytes[key] = (
                            counters.absorbed_write_bytes.get(key, 0) + self.line_size
                        )
                    else:
                        entry[2] = True
                    entry[3] = space
                continue
            counters.fills += 1
            rkey = (inst, kind, space)
            counters.read_bytes[rkey] = counters.read_bytes.get(rkey, 0) + self.line_size
            members = self._set_members(line % self.n_sets)
            if len(members) >= self.assoc:
                victim = min(members, key=lambda e: e[4])
                self.entries.remove(victim)
                if victim[2]:
                    self._write_back(counters, victim)
            self.entries.append([inst, line, write, space, self.tick])

    def _write_back(self, counters, entry):
        inst, line, _dirty, space, _stamp = entry
        kind = self._kind(line)
        counters.writebacks += 1
        wkey = (inst, kind, space)
        counters.write_bytes[wkey] = counters.write_bytes.get(wkey, 0) + self.line_size

    def drain(self, counters) -> int:
        flushed = 0
        for entry in self.entries:
            if entry[2]:
                self._write_back(counters, entry)
                flushed += 1
        self.entries = []
        return flushed

    def state(self) -> list[list[tuple]]:
        """Per set, ``(inst, line, space if dirty else None)`` of each resident, least recent first."""
        sets: list[list[tuple]] = [[] for _ in range(self.n_sets)]
        for inst, line, dirty, space, _stamp in sorted(self.entries, key=lambda e: e[4]):
            sets[line % self.n_sets].append((inst, line, space if dirty else None))
        return sets
